(** Message accounting.

    The paper's single cost metric is the number of messages sent per
    second (Section 3: "As is a standard practice in P2P systems we
    consider the number of messages as the main cost").  Every simulated
    subsystem charges messages here, tagged by category, so experiment
    output can be broken down exactly like the model's cost terms. *)

type category =
  | Query_unstructured  (** flooding / random-walk search traffic (cSUnstr) *)
  | Query_index         (** DHT lookup traffic (cSIndx) *)
  | Replica_flood       (** replica-subnetwork flooding on index search (Eq. 16 term) *)
  | Index_insert        (** inserting a resolved key into the index *)
  | Maintenance         (** routing-table probe traffic (cRtn) *)
  | Update_gossip       (** replica update rumor spreading (cUpd) *)
  | Other

val category_label : category -> string
val all_categories : category list

type t

val create : unit -> t
val charge : t -> category -> int -> unit
(** Count [n] messages in [category].  Negative counts are rejected. *)

val attach_registry : t -> Pdht_obs.Registry.t -> unit
(** Tee every subsequent charge into a named counter
    ["messages.<category-label>"] in [registry]; counts charged before
    attaching are carried over, so the registry's per-category totals
    always sum to {!total}.  {!copy} produces a detached account and
    {!reset} leaves the registry's cumulative counters untouched. *)

val counter_name : category -> string
(** The registry counter name used by {!attach_registry}. *)

val count : t -> category -> int
val total : t -> int

val snapshot : t -> (category * int) list
(** All categories with their current counts. *)

val diff : before:t -> after:t -> (category * int) list
(** Per-category difference of two accounting states ([after] minus
    [before]). *)

val copy : t -> t
val reset : t -> unit
