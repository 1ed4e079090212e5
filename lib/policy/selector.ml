module Params = Pdht_model.Params
module Index_policy = Pdht_model.Index_policy

type ttl_mode = Model_derived | Fixed of float | Adaptive
type spec = Ttl of ttl_mode | Cost_optimal | Learned | Cache_budget of int

let default = Ttl Model_derived
let equal (a : spec) (b : spec) = a = b

let label = function
  | Ttl Model_derived -> "ttl"
  | Ttl (Fixed s) -> Printf.sprintf "ttl:%g" s
  | Ttl Adaptive -> "ttl:adaptive"
  | Cost_optimal -> "cost"
  | Learned -> "learned"
  | Cache_budget b -> Printf.sprintf "cache:%d" b

let to_string = label

let validate = function
  | Ttl (Fixed s) when not (Float.is_finite s && s > 0.) ->
      Error (Printf.sprintf "fixed ttl %g must be finite and positive" s)
  | Cache_budget b when b < 1 ->
      Error (Printf.sprintf "cache budget %d must be >= 1" b)
  | s -> Ok s

let of_string s =
  let s = String.trim s in
  let parsed =
    match String.index_opt s ':' with
    | None -> (
        match String.lowercase_ascii s with
        | "ttl" -> Ok (Ttl Model_derived)
        | "cost" -> Ok Cost_optimal
        | "learned" -> Ok Learned
        | "cache" -> Error "cache needs a budget: cache:BUDGET"
        | _ -> Error (Printf.sprintf "unknown policy %S (ttl / cost / learned / cache)" s)
    )
    | Some i -> (
        let head = String.lowercase_ascii (String.sub s 0 i) in
        let arg = String.sub s (i + 1) (String.length s - i - 1) in
        match head with
        | "ttl" -> (
            match String.lowercase_ascii arg with
            | "adaptive" -> Ok (Ttl Adaptive)
            | _ -> (
                match float_of_string_opt arg with
                | Some secs -> Ok (Ttl (Fixed secs))
                | None ->
                    Error
                      (Printf.sprintf "ttl argument %S: expected SECS or 'adaptive'" arg)))
        | "cache" -> (
            match int_of_string_opt arg with
            | Some b -> Ok (Cache_budget b)
            | None -> Error (Printf.sprintf "cache budget %S: expected an integer" arg))
        | _ -> Error (Printf.sprintf "unknown policy %S (ttl / cost / learned / cache)" s))
  in
  match parsed with Ok spec -> validate spec | Error _ as e -> e

let uses_selector = function
  | Ttl (Model_derived | Fixed _) -> false
  | Ttl Adaptive | Cost_optimal | Learned | Cache_budget _ -> true

(* The Eq.-2 controller's cost window spans ten sample buckets; the
   demand-driven placements refit twice as often. *)
let retune_period spec ~sample_every =
  match spec with
  | Ttl _ -> 10. *. sample_every
  | Cost_optimal | Learned | Cache_budget _ -> 5. *. sample_every

type event =
  | Queried of { hit : bool; broadcast_messages : int; index_messages : int }
  | Inserted
  | Rejected

type probes = { maintenance_messages : unit -> int; indexed_keys : now:float -> int }

type summary = {
  policy : string;
  retunes : int;
  observed_queries : int;
  admitted_inserts : int;
  rejected_inserts : int;
  target_keys : int;
  est_f_qry : float;
  threshold : float;
}

module type SELECTOR = sig
  type t

  val observe : t -> now:float -> key_index:int -> event -> unit
  val admit : t -> now:float -> key_index:int -> bool
  val ttl_for : t -> now:float -> key_index:int -> float
  val retune : t -> now:float -> unit
  val summary : t -> summary
end

(* Event bookkeeping shared by every implementation. *)
module Counters = struct
  type t = {
    mutable observed : int;
    mutable admitted : int;
    mutable rejected : int;
    mutable retunes : int;
  }

  let create () = { observed = 0; admitted = 0; rejected = 0; retunes = 0 }

  let note t = function
    | Queried _ -> t.observed <- t.observed + 1
    | Inserted -> t.admitted <- t.admitted + 1
    | Rejected -> t.rejected <- t.rejected + 1
end

(* Lease clamp shared by the adaptive policies: never shorter than a
   second, never the effectively-infinite baseline. *)
let clamp_ttl x = Float.max 1. (Float.min 1e7 x)

(* TTL handed to keys outside the admission set (reachable only for
   entries admitted before the first retune): short enough to decay
   within a refit period, but never below a second. *)
let outside_ttl ~base_ttl ~retune_every =
  Float.max 1. (Float.min base_ttl (0.5 *. retune_every))

module Adaptive_ttl = struct
  let smoothing = 0.3

  type t = {
    probes : probes;
    base_ttl : float;
    c : Counters.t;
    (* Observation window since the previous retune. *)
    mutable broadcast_count : int;
    mutable broadcast_messages : int;
    mutable index_count : int;
    mutable index_messages : int;
    mutable last_maintenance : int;
    mutable last_time : float;
    mutable estimate : float option;
  }

  let create ~probes ~base_ttl =
    {
      probes;
      base_ttl;
      c = Counters.create ();
      broadcast_count = 0;
      broadcast_messages = 0;
      index_count = 0;
      index_messages = 0;
      last_maintenance = 0;
      last_time = 0.;
      estimate = None;
    }

  let observe t ~now:_ ~key_index:_ event =
    Counters.note t.c event;
    match event with
    | Queried { broadcast_messages; index_messages; _ } ->
        if broadcast_messages > 0 then begin
          t.broadcast_count <- t.broadcast_count + 1;
          t.broadcast_messages <- t.broadcast_messages + broadcast_messages
        end;
        if index_messages > 0 then begin
          t.index_count <- t.index_count + 1;
          t.index_messages <- t.index_messages + index_messages
        end
    | Inserted | Rejected -> ()

  let admit _ ~now:_ ~key_index:_ = true

  let ttl_for t ~now:_ ~key_index:_ =
    match t.estimate with Some ttl -> ttl | None -> t.base_ttl

  (* Eq. 2 on the window: cSUnstr and cSIndx2 are the mean broadcast and
     index-search (routing + replica flood) costs, cIndKey the
     maintenance traffic per indexed key per second; keyTtl = 1/fMin.
     [None] when the window cannot define all three. *)
  let fit t ~now =
    if t.broadcast_count = 0 || t.index_count = 0 then None
    else begin
      let c_s_unstr = float_of_int t.broadcast_messages /. float_of_int t.broadcast_count in
      let c_s_indx2 = float_of_int t.index_messages /. float_of_int t.index_count in
      let elapsed = now -. t.last_time in
      let maintenance = t.probes.maintenance_messages () - t.last_maintenance in
      let indexed = t.probes.indexed_keys ~now in
      let denom = c_s_unstr -. c_s_indx2 in
      if elapsed <= 0. || indexed = 0 || denom <= 0. then None
      else
        let c_ind_key = float_of_int maintenance /. elapsed /. float_of_int indexed in
        let f_min = c_ind_key /. denom in
        Some (clamp_ttl (if f_min > 0. then 1. /. f_min else infinity))
    end

  let retune t ~now =
    t.c.Counters.retunes <- t.c.Counters.retunes + 1;
    (match fit t ~now with
    | None -> ()
    | Some raw ->
        t.estimate <-
          Some
            (match t.estimate with
            | None -> raw
            | Some prev -> ((1. -. smoothing) *. prev) +. (smoothing *. raw)));
    t.broadcast_count <- 0;
    t.broadcast_messages <- 0;
    t.index_count <- 0;
    t.index_messages <- 0;
    t.last_maintenance <- t.probes.maintenance_messages ();
    t.last_time <- now

  let summary t =
    {
      policy = "ttl:adaptive";
      retunes = t.c.Counters.retunes;
      observed_queries = t.c.Counters.observed;
      admitted_inserts = t.c.Counters.admitted;
      rejected_inserts = t.c.Counters.rejected;
      target_keys = -1;
      est_f_qry = 0.;
      threshold = 0.;
    }
end

module Cost_optimal = struct
  type t = {
    params : Params.t;
    base_ttl : float;
    retune_every : float;
    freq : Freq.t;
    c : Counters.t;
    mutable thr : float;       (* admission threshold: current fMin estimate *)
    mutable ttl_in : float;    (* lease for admitted keys *)
    mutable target : int;
    mutable have_fit : bool;
  }

  let create ~params ~base_ttl ~retune_every =
    {
      params;
      base_ttl;
      retune_every;
      freq = Freq.create ~keys:params.Params.keys ();
      c = Counters.create ();
      thr = 0.;
      ttl_in = base_ttl;
      target = -1;
      have_fit = false;
    }

  let threshold t = t.thr

  let observe t ~now:_ ~key_index event =
    Counters.note t.c event;
    match event with Queried _ -> Freq.note t.freq ~key_index | Inserted | Rejected -> ()

  let admit t ~now ~key_index =
    (* Warm up permissively: until the first fit there is no estimate
       to gate on, which reproduces the plain TTL behaviour.  The live
       window lets a key that turns hot mid-window back in without
       waiting for the next retune. *)
    (not t.have_fit) || Freq.live_rate t.freq ~now ~key_index >= t.thr

  let ttl_for t ~now ~key_index =
    if not t.have_fit then t.base_ttl
    else if Freq.live_rate t.freq ~now ~key_index >= t.thr then t.ttl_in
    else outside_ttl ~base_ttl:t.base_ttl ~retune_every:t.retune_every

  let retune t ~now =
    Freq.fold t.freq ~now;
    t.c.Counters.retunes <- t.c.Counters.retunes + 1;
    let per_peer = Freq.total_rate t.freq /. float_of_int t.params.Params.num_peers in
    if per_peer > 0. then begin
      (* Re-solve the Eq. 1-2 fixed point against the *measured* query
         rate: the resulting fMin is the indexing-worthiness threshold
         keys must clear (Eq. 2). *)
      let solution = Index_policy.solve { t.params with Params.f_qry = per_peer } in
      let f_min = solution.Index_policy.f_min in
      if Float.is_finite f_min && f_min > 0. then begin
        t.thr <- f_min;
        (* Admitted keys get a lease a few expected inter-query gaps
           long: the paper's 1/fMin is the *marginal* key's gap, so a
           multiple keeps clearly-worthwhile keys from oscillating out
           on Poisson gaps. *)
        t.ttl_in <- clamp_ttl (4. /. f_min);
        t.have_fit <- true
      end;
      let count = ref 0 in
      for k = 0 to t.params.Params.keys - 1 do
        if Freq.rate t.freq ~key_index:k >= t.thr && Freq.rate t.freq ~key_index:k > 0.
        then incr count
      done;
      t.target <- !count
    end

  let summary t =
    {
      policy = "cost";
      retunes = t.c.Counters.retunes;
      observed_queries = t.c.Counters.observed;
      admitted_inserts = t.c.Counters.admitted;
      rejected_inserts = t.c.Counters.rejected;
      target_keys = t.target;
      est_f_qry = Freq.total_rate t.freq /. float_of_int t.params.Params.num_peers;
      threshold = t.thr;
    }
end

(* Set-based placements (Learned, Cache_budget) share the admission
   machinery: a byte per key, rebuilt at each refit. *)
module Placement = struct
  type t = {
    params : Params.t;
    base_ttl : float;
    retune_every : float;
    freq : Freq.t;
    c : Counters.t;
    admitted : Bytes.t;
    mutable thr : float;
    mutable target : int;
    mutable have_fit : bool;
  }

  let create ~params ~base_ttl ~retune_every =
    {
      params;
      base_ttl;
      retune_every;
      freq = Freq.create ~keys:params.Params.keys ();
      c = Counters.create ();
      admitted = Bytes.make params.Params.keys '\000';
      thr = 0.;
      target = -1;
      have_fit = false;
    }

  let in_set t key_index = Bytes.get t.admitted key_index <> '\000'

  let observe t ~now:_ ~key_index event =
    Counters.note t.c event;
    match event with Queried _ -> Freq.note t.freq ~key_index | Inserted | Rejected -> ()

  let ttl_for t ~now:_ ~key_index =
    if not t.have_fit then t.base_ttl
    else if in_set t key_index then clamp_ttl (2. *. t.retune_every)
    else outside_ttl ~base_ttl:t.base_ttl ~retune_every:t.retune_every

  (* Rebuild the admission set as the longest popularity prefix [keep]
     accepts; returns the number of keys placed. *)
  let refit t ~now ~keep =
    Freq.fold t.freq ~now;
    t.c.Counters.retunes <- t.c.Counters.retunes + 1;
    if Freq.total_rate t.freq > 0. then begin
      Bytes.fill t.admitted 0 (Bytes.length t.admitted) '\000';
      let ranked = Freq.ranked t.freq in
      let placed = ref 0 in
      let cum = ref 0. in
      let continue = ref true in
      let i = ref 0 in
      let n = Array.length ranked in
      while !continue && !i < n do
        let k = ranked.(!i) in
        let r = Freq.rate t.freq ~key_index:k in
        if r > 0. && keep ~placed:!placed ~cum:!cum ~rate:r then begin
          Bytes.set t.admitted k '\001';
          cum := !cum +. r;
          incr placed;
          t.thr <- r;
          incr i
        end
        else continue := false
      done;
      t.target <- !placed;
      t.have_fit <- true
    end

  let summary t ~policy =
    {
      policy;
      retunes = t.c.Counters.retunes;
      observed_queries = t.c.Counters.observed;
      admitted_inserts = t.c.Counters.admitted;
      rejected_inserts = t.c.Counters.rejected;
      target_keys = t.target;
      est_f_qry = Freq.total_rate t.freq /. float_of_int t.params.Params.num_peers;
      threshold = t.thr;
    }
end

module Learned = struct
  type t = { p : Placement.t; coverage : float }

  let create ?(coverage = 0.9) ~params ~base_ttl ~retune_every () =
    if not (coverage > 0. && coverage <= 1.) then
      invalid_arg "Learned.create: coverage must be in (0, 1]";
    { p = Placement.create ~params ~base_ttl ~retune_every; coverage }

  let observe t ~now ~key_index event = Placement.observe t.p ~now ~key_index event

  let admit t ~now:_ ~key_index =
    (not t.p.Placement.have_fit) || Placement.in_set t.p key_index

  let ttl_for t ~now ~key_index = Placement.ttl_for t.p ~now ~key_index

  let retune t ~now =
    (* DLHT-style refit: learn the smallest popularity prefix covering
       [coverage] of the observed query mass. *)
    Placement.refit t.p ~now ~keep:(fun ~placed:_ ~cum ~rate:_ ->
        cum < t.coverage *. Freq.total_rate t.p.Placement.freq)

  let summary t = Placement.summary t.p ~policy:"learned"
end

module Cache_budget = struct
  type t = { p : Placement.t; budget : int }

  let create ~budget ~params ~base_ttl ~retune_every =
    if budget < 1 then invalid_arg "Cache_budget.create: budget must be >= 1";
    { p = Placement.create ~params ~base_ttl ~retune_every; budget }

  let observe t ~now ~key_index event = Placement.observe t.p ~now ~key_index event

  let admit t ~now:_ ~key_index =
    (not t.p.Placement.have_fit)
    || Placement.in_set t.p key_index
    (* Under-budget caches have room: keep admitting until the next
       refit ranks the newcomers properly. *)
    || t.p.Placement.target < t.budget

  let ttl_for t ~now ~key_index = Placement.ttl_for t.p ~now ~key_index

  let retune t ~now =
    (* cs/0210010's optimum cache under a size constraint: the most
       popular [budget] keys by estimated rate. *)
    Placement.refit t.p ~now ~keep:(fun ~placed ~cum:_ ~rate:_ -> placed < t.budget)

  let summary t = Placement.summary t.p ~policy:(Printf.sprintf "cache:%d" t.budget)
end

type packed = Packed : (module SELECTOR with type t = 'a) * 'a -> packed

let no_probes = { maintenance_messages = (fun () -> 0); indexed_keys = (fun ~now:_ -> 0) }

let instantiate ?(probes = no_probes) spec ~params ~base_ttl ~retune_every =
  if not (Float.is_finite base_ttl && base_ttl > 0.) then
    invalid_arg "Selector.instantiate: base_ttl must be finite and positive";
  if not (retune_every > 0.) then
    invalid_arg "Selector.instantiate: retune_every must be positive";
  (match validate spec with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Selector.instantiate: " ^ msg));
  match spec with
  | Ttl (Model_derived | Fixed _) ->
      invalid_arg "Selector.instantiate: a static TTL installs no selector"
  | Ttl Adaptive ->
      Packed
        ( (module Adaptive_ttl : SELECTOR with type t = Adaptive_ttl.t),
          Adaptive_ttl.create ~probes ~base_ttl )
  | Cost_optimal ->
      Packed
        ( (module Cost_optimal : SELECTOR with type t = Cost_optimal.t),
          Cost_optimal.create ~params ~base_ttl ~retune_every )
  | Learned ->
      Packed
        ( (module Learned : SELECTOR with type t = Learned.t),
          Learned.create ~params ~base_ttl ~retune_every () )
  | Cache_budget budget ->
      Packed
        ( (module Cache_budget : SELECTOR with type t = Cache_budget.t),
          Cache_budget.create ~budget ~params ~base_ttl ~retune_every )

let observe (Packed ((module S), t)) ~now ~key_index event =
  S.observe t ~now ~key_index event

let admit (Packed ((module S), t)) ~now ~key_index = S.admit t ~now ~key_index
let ttl_for (Packed ((module S), t)) ~now ~key_index = S.ttl_for t ~now ~key_index
let retune (Packed ((module S), t)) ~now = S.retune t ~now
let summary (Packed ((module S), t)) = S.summary t
