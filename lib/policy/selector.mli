(** Pluggable index-selection policies.

    The paper's Section 5 answers "what should the partial index hold?"
    with one mechanism: a global key TTL, reset on every query, so keys
    queried less often than once per keyTtl fall out.  That heuristic
    is a single point in a larger design space — Sarshar &
    Roychowdhury's size-budgeted optimum cache (arXiv cs/0210010) and
    the Distributed Learned Hash Table (arXiv 2508.14239) both pick
    the indexed set from observed demand.  This module makes the
    decision a first-class interface so the strategies can be raced on
    identical workloads.

    A selector sees the query stream ({!SELECTOR.observe}), gates index
    insertions ({!SELECTOR.admit}), sets per-key expirations
    ({!SELECTOR.ttl_for}), and periodically refits itself
    ({!SELECTOR.retune}).  All implementations are deterministic: they
    draw no randomness, so simulation reports remain pure functions of
    (scenario, strategy, options).

    The paper's static TTL ([Ttl Model_derived], [Ttl (Fixed _)]) needs
    no selector: the PDHT's global-TTL code path is that policy.  Four
    adaptive policies implement the interface:
    - {!Adaptive_ttl} — the paper's Section 5.1.1 future work: admit
      everything under one global TTL, re-derived from live traffic by
      Eq. 2 ("keyTtl can be calculated by estimating cSUnstr, cSIndx,
      and cIndKey").
    - {!Cost_optimal} — re-solves the Eq. 1-2 fixed point online from
      the estimated live fQry and admits exactly the keys whose
      estimated query rate clears the resulting fMin threshold.
    - {!Learned} — demand-coverage placement à la DLHT: at each refit,
      index the smallest popularity prefix covering a fixed fraction of
      the observed query mass.
    - {!Cache_budget} — a size-budgeted optimum cache per cs/0210010:
      index the top-[budget] keys by estimated rate. *)

(** The paper's TTL axis, kept as one arm of the new policy space. *)
type ttl_mode =
  | Model_derived  (** keyTtl = 1/fMin from the analytical model *)
  | Fixed of float (** explicit keyTtl in seconds *)
  | Adaptive       (** the self-tuning Section 5.1.1 controller,
                       {!Adaptive_ttl} *)

(** What drives index selection for a run. *)
type spec =
  | Ttl of ttl_mode
  | Cost_optimal
  | Learned
  | Cache_budget of int  (** maximum number of distinct indexed keys *)

val default : spec
(** [Ttl Model_derived] — the paper's behaviour. *)

val equal : spec -> spec -> bool
val label : spec -> string
(** Short display name: ["ttl"], ["ttl:300"], ["ttl:adaptive"],
    ["cost"], ["learned"], ["cache:500"]. *)

val to_string : spec -> string
(** Round-trips with {!of_string} (same output as {!label}). *)

val of_string : string -> (spec, string) result
(** CLI grammar: [ttl] (model-derived), [ttl:SECS] (fixed, positive),
    [ttl:adaptive], [cost], [learned], [cache:BUDGET] (>= 1). *)

val uses_selector : spec -> bool
(** [true] for the policies that need a live selector instance
    ([Ttl Adaptive], [Cost_optimal], [Learned], [Cache_budget]).  The
    static [Ttl Model_derived] and [Ttl (Fixed _)] runs use the original
    global-TTL code path and need none. *)

val retune_period : spec -> sample_every:float -> float
(** Refit period a run drives the selector at, given its sample-bucket
    width: [10 * sample_every] for [Ttl _] (the Eq.-2 controller's cost
    window), [5 * sample_every] for the demand-driven placements. *)

val validate : spec -> (spec, string) result
(** Reject non-positive fixed TTLs and non-positive cache budgets. *)

(** What a selector is told about a key. *)
type event =
  | Queried of { hit : bool; broadcast_messages : int; index_messages : int }
      (** a query for the key: [hit] = answered from the index;
          [broadcast_messages] = its broadcast-search cost (0 without a
          broadcast); [index_messages] = its index routing plus replica
          flood cost.  Only {!Adaptive_ttl} reads the costs. *)
  | Inserted  (** an index insertion was admitted *)
  | Rejected  (** an index insertion was declined *)

(** What {!Adaptive_ttl} reads off the running system at each refit. *)
type probes = {
  maintenance_messages : unit -> int;
      (** routing-maintenance messages sent so far (cumulative) *)
  indexed_keys : now:float -> int;
      (** distinct keys currently in the index (empirical Eq. 15) *)
}

(** Reporting snapshot, folded into the run report. *)
type summary = {
  policy : string;         (** {!label} of the spec *)
  retunes : int;           (** completed {!SELECTOR.retune} passes *)
  observed_queries : int;  (** [Queried] events seen *)
  admitted_inserts : int;  (** [Inserted] events seen *)
  rejected_inserts : int;  (** [Rejected] events seen *)
  target_keys : int;       (** current admission-set size; -1 = unbounded *)
  est_f_qry : float;       (** estimated per-peer query rate, 1/s *)
  threshold : float;       (** admission rate threshold, queries/s;
                               0. while warming up or unbounded *)
}

module type SELECTOR = sig
  type t

  val observe : t -> now:float -> key_index:int -> event -> unit
  (** Feed one key event; called on the query hot path. *)

  val admit : t -> now:float -> key_index:int -> bool
  (** Should a freshly resolved key be (re)inserted into the index? *)

  val ttl_for : t -> now:float -> key_index:int -> float
  (** Expiration lease for an insertion or query-hit refresh of the
      key, in seconds (always positive). *)

  val retune : t -> now:float -> unit
  (** Periodic refit from the observation window. *)

  val summary : t -> summary
end

module Adaptive_ttl : sig
  include SELECTOR
  val create : probes:probes -> base_ttl:float -> t
  (** Admits every key and leases one global TTL: [base_ttl] until the
      first productive {!SELECTOR.retune}, then the smoothed Eq.-2
      estimate.  Each retune fits [keyTtl = 1/fMin] with
      [fMin = cIndKey / (cSUnstr - cSIndx2)] over the window since the
      previous retune: cSUnstr and cSIndx2 are the mean broadcast and
      index-search costs of the window's [Queried] events, cIndKey the
      window's maintenance messages per second per indexed key.  The fit
      is clamped to [1, 1e7] seconds and folded in with EMA weight 0.3;
      a window without broadcasts, index searches, elapsed time, indexed
      keys or a positive cost gap keeps the previous TTL. *)
end

module Cost_optimal : sig
  include SELECTOR
  val create :
    params:Pdht_model.Params.t -> base_ttl:float -> retune_every:float -> t
  val threshold : t -> float
  (** Current fMin estimate (0. until the first productive retune). *)
end

module Learned : sig
  include SELECTOR
  val create :
    ?coverage:float ->
    params:Pdht_model.Params.t -> base_ttl:float -> retune_every:float -> unit -> t
  (** [coverage] (default 0.9, in (0, 1]) is the fraction of observed
      query mass the learned placement must cover. *)
end

module Cache_budget : sig
  include SELECTOR
  val create :
    budget:int ->
    params:Pdht_model.Params.t -> base_ttl:float -> retune_every:float -> t
  (** @raise Invalid_argument on [budget < 1]. *)
end

(** A selector instance with its implementation packed away. *)
type packed = Packed : (module SELECTOR with type t = 'a) * 'a -> packed

val instantiate :
  ?probes:probes ->
  spec ->
  params:Pdht_model.Params.t ->
  base_ttl:float ->
  retune_every:float ->
  packed
(** Build the selector for [spec].  [params] is the analytical-model
    view of the scenario (for the online Eq. 1-2 re-solve), [base_ttl]
    the TTL the run starts with (used until the first retune), and
    [retune_every] the refit period the caller will drive retunes at
    (see {!retune_period}).  [probes] is only read by [Ttl Adaptive];
    without it the controller sees no indexed keys and keeps
    [base_ttl].  @raise Invalid_argument on non-positive
    [base_ttl]/[retune_every], an invalid spec, or a static [Ttl _]
    spec (those install no selector). *)

val observe : packed -> now:float -> key_index:int -> event -> unit
val admit : packed -> now:float -> key_index:int -> bool
val ttl_for : packed -> now:float -> key_index:int -> float
val retune : packed -> now:float -> unit
val summary : packed -> summary
(** Convenience forwarders through the packed existential. *)
