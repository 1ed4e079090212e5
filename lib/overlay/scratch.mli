(** Reusable per-topology search scratch: generation-stamped visited
    set plus preallocated frontier / candidate / walker buffers.

    Passing one scratch to repeated {!Flood.search},
    {!Expanding_ring.search} or {!Random_walk.search} calls makes the
    per-search cost allocation-free (beyond the small result record)
    while returning results identical to fresh-allocation calls.

    A scratch is single-owner mutable state: share it across sequential
    searches freely, never across domains.  The record is exposed so the
    search implementations can index the buffers directly; treat it as
    opaque elsewhere. *)

type t = {
  mutable stamp : int array;
      (** [stamp.(p) = generation] means peer [p] was visited in the
          current search. *)
  mutable generation : int;
  mutable frontier : int array;
  mutable next_frontier : int array;
  mutable candidates : int array;  (** online-neighbor staging buffer *)
  mutable positions : int array;   (** random-walk walker positions *)
  mutable holders : int array;
      (** [holders.(p) = holder_generation] means peer [p] holds the
          item of the current search. *)
  mutable holder_generation : int;
}

val create : unit -> t

val ensure_peers : t -> int -> unit
(** Grow [stamp]/[frontier]/[next_frontier]/[candidates] to hold at
    least [n] peers.  Idempotent and allocation-free when already large
    enough. *)

val ensure_walkers : t -> int -> unit
(** Grow [positions] to hold at least [n] walkers. *)

val next_generation : t -> int
(** Begin a new search: returns the fresh generation under which to
    stamp visited peers.  Handles stamp-counter overflow by wiping. *)

val mark_holders : t -> peers:int -> int array -> int
(** [mark_holders t ~peers members] stamps every peer of [members]
    (indices below [peers]) under a fresh holder generation and returns
    it: afterwards [t.holders.(p) = gen] iff [p] is in [members].  One
    pass over the set per search replaces a set lookup per visit. *)
