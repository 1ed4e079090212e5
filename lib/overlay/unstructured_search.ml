type strategy =
  | Flooding of { ttl : int }
  | Random_walks of { walkers : int; max_steps : int; check_every : int }
  | Expanding_ring of { initial_ttl : int; growth : int; max_ttl : int }

type t = {
  topology : Topology.t;
  replication : Replication.t;
  strategy : strategy;
  (* One scratch per search front end: searches through [t] are
     sequential (one simulated system per domain), so the visited set
     and frontier buffers are reused across every query instead of
     reallocated per broadcast. *)
  scratch : Scratch.t;
}

let create ~topology ~replication ~strategy =
  if Topology.peer_count topology <> Replication.peers replication then
    invalid_arg "Unstructured_search.create: topology and replication disagree on peer count";
  { topology; replication; strategy; scratch = Scratch.create () }

let topology t = t.topology
let replication t = t.replication
let strategy t = t.strategy

type outcome = { found : bool; messages : int; provider : int option; rounds : int }

let search ?span ?deliver t rng ~online ~source ~item =
  (* Stamp the item's replica set once, so a walk step or flood visit
     tests holding with one array read instead of a binary search over
     the replicas. *)
  let gen =
    Scratch.mark_holders t.scratch ~peers:(Replication.peers t.replication)
      (Replication.replicas t.replication ~item)
  in
  let holders = t.scratch.Scratch.holders in
  let holds p = online p && holders.(p) = gen in
  match t.strategy with
  | Flooding { ttl } ->
      let r =
        Flood.search ~scratch:t.scratch ?span ?deliver t.topology ~online ~holds
          ~source ~ttl
      in
      { found = r.Flood.found_at <> None; messages = r.Flood.messages;
        provider = r.Flood.found_at; rounds = r.Flood.depth }
  | Random_walks { walkers; max_steps; check_every } ->
      let r =
        Random_walk.search ~scratch:t.scratch ?span ?deliver t.topology rng ~online
          ~holds ~source ~walkers ~max_steps ~check_every
      in
      { found = r.Random_walk.found_at <> None; messages = r.Random_walk.messages;
        provider = r.Random_walk.found_at; rounds = r.Random_walk.rounds }
  | Expanding_ring { initial_ttl; growth; max_ttl } ->
      let r =
        Expanding_ring.search ~scratch:t.scratch ?span ?deliver t.topology ~online
          ~holds ~source ~initial_ttl ~growth ~max_ttl
      in
      { found = r.Expanding_ring.found_at <> None; messages = r.Expanding_ring.messages;
        provider = r.Expanding_ring.found_at; rounds = r.Expanding_ring.depth }

let expected_cost_model ~peers ~repl ~dup =
  float_of_int peers /. float_of_int repl *. dup
