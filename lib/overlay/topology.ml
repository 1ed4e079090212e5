(* CSR adjacency: [neighbors.(offsets.(p) .. offsets.(p+1) - 1)] are
   peer [p]'s neighbors in ascending order — two flat int arrays for
   the whole graph instead of a boxed array per peer, so a million-peer
   topology is ~2 words per directed edge with no per-peer headers.
   Topologies are build-once static. *)
type t = { offsets : int array; neighbors : int array; edges : int }

let peer_count t = Array.length t.offsets - 1
let degree t p = t.offsets.(p + 1) - t.offsets.(p)
let neighbor t p i = t.neighbors.(t.offsets.(p) + i)

let iter_neighbors t p ~f =
  for i = t.offsets.(p) to t.offsets.(p + 1) - 1 do
    f t.neighbors.(i)
  done

let neighbors t p = Array.sub t.neighbors t.offsets.(p) (degree t p)
let edge_count t = t.edges

(* Construction scratch shared by every generator: accepted undirected
   edges in generation order, plus what the generators that draw
   peer-by-peer need to gate a draw on "already adjacent".  Peer [p]'s
   adjacency at the start of its turn is exactly the lower peers that
   connected to it during their own turns; [head]/[next] thread those
   edges into one list per higher endpoint, and [begin_turn] stamps
   them into [mark], so [mark.(q) = p] iff [q] is adjacent to [p] while
   it is [p]'s turn.  [capacity] must bound the number of edges. *)
type builder = {
  src : int array;
  dst : int array;
  next : int array; (* edge -> next edge opened to the same higher peer, or -1 *)
  head : int array; (* peer -> last edge a lower peer opened to it, or -1 *)
  mark : int array;
  mutable count : int;
}

let builder ~peers ~capacity =
  {
    src = Array.make capacity 0;
    dst = Array.make capacity 0;
    next = Array.make capacity (-1);
    head = Array.make peers (-1);
    mark = Array.make peers (-1);
    count = 0;
  }

let begin_turn b p =
  let e = ref b.head.(p) in
  while !e >= 0 do
    b.mark.(b.src.(!e)) <- p;
    e := b.next.(!e)
  done

let adjacent b p q = b.mark.(q) = p

(* Record the new edge (p, q) during [p]'s turn; callers never repeat
   an edge, so rows come out duplicate-free. *)
let connect b p q =
  let e = b.count in
  b.src.(e) <- p;
  b.dst.(e) <- q;
  b.mark.(q) <- p;
  if q > p then begin
    b.next.(e) <- b.head.(q);
    b.head.(q) <- e
  end;
  b.count <- e + 1

(* Counting sort of both edge directions into CSR rows, then an
   insertion sort per row: rows are short and arrive nearly ascending
   (lower openers first, in turn order). *)
let freeze ~peers b =
  let offsets = Array.make (peers + 1) 0 in
  for e = 0 to b.count - 1 do
    let s = b.src.(e) + 1 and d = b.dst.(e) + 1 in
    offsets.(s) <- offsets.(s) + 1;
    offsets.(d) <- offsets.(d) + 1
  done;
  for p = 0 to peers - 1 do
    offsets.(p + 1) <- offsets.(p + 1) + offsets.(p)
  done;
  let fill = Array.sub offsets 0 peers in
  let neighbors = Array.make offsets.(peers) 0 in
  let put a q =
    neighbors.(fill.(a)) <- q;
    fill.(a) <- fill.(a) + 1
  in
  for e = 0 to b.count - 1 do
    put b.src.(e) b.dst.(e);
    put b.dst.(e) b.src.(e)
  done;
  for p = 0 to peers - 1 do
    let first = offsets.(p) in
    for i = first + 1 to offsets.(p + 1) - 1 do
      let v = neighbors.(i) in
      let j = ref (i - 1) in
      while !j >= first && neighbors.(!j) > v do
        neighbors.(!j + 1) <- neighbors.(!j);
        decr j
      done;
      neighbors.(!j + 1) <- v
    done
  done;
  { offsets; neighbors; edges = b.count }

let random_regularish rng ~peers ~degree =
  if peers < 2 then invalid_arg "Topology.random_regularish: need >= 2 peers";
  if degree < 1 || degree >= peers then invalid_arg "Topology.random_regularish: bad degree";
  let b = builder ~peers ~capacity:(peers * degree) in
  for p = 0 to peers - 1 do
    begin_turn b p;
    let opened = ref 0 in
    let attempts = ref 0 in
    (* A peer may fail to open all connections in a tiny network where
       every other peer is already a neighbor; cap the retries. *)
    while !opened < degree && !attempts < 20 * degree do
      incr attempts;
      let q = Pdht_util.Rng.int rng peers in
      if q <> p && not (adjacent b p q) then begin
        connect b p q;
        incr opened
      end
    done
  done;
  freeze ~peers b

let barabasi_albert rng ~peers ~attach =
  if attach < 1 || peers <= attach then invalid_arg "Topology.barabasi_albert: need peers > attach >= 1";
  let b = builder ~peers ~capacity:((attach * (attach + 1) / 2) + ((peers - attach - 1) * attach)) in
  (* Endpoint multiset: picking a uniform element is picking a node with
     probability proportional to its degree.  Stored in a growable array
     so sampling stays O(1) as the graph grows. *)
  let capacity = 2 * ((attach * peers) + (attach * attach)) in
  let endpoints = Array.make capacity 0 in
  let endpoint_count = ref 0 in
  let push p =
    endpoints.(!endpoint_count) <- p;
    incr endpoint_count
  in
  (* Seed: a small clique over the first attach+1 peers. *)
  for a = 0 to attach do
    for c = a + 1 to attach do
      connect b a c;
      push a;
      push c
    done
  done;
  (* Distinct targets of the arriving peer, kept ascending: that order
     decides the [endpoints] push order, hence later draws. *)
  let chosen = Array.make attach 0 in
  for p = attach + 1 to peers - 1 do
    let len = ref 0 in
    let tries = ref 0 in
    while !len < attach && !tries < 50 * attach do
      incr tries;
      let target = endpoints.(Pdht_util.Rng.int rng !endpoint_count) in
      if target <> p then begin
        let i = ref 0 in
        while !i < !len && chosen.(!i) < target do
          incr i
        done;
        if !i = !len || chosen.(!i) <> target then begin
          Array.blit chosen !i chosen (!i + 1) (!len - !i);
          chosen.(!i) <- target;
          incr len
        end
      end
    done;
    for i = 0 to !len - 1 do
      connect b p chosen.(i);
      push p;
      push chosen.(i)
    done
  done;
  freeze ~peers b

let ring_lattice ~peers ~k =
  if peers < 3 then invalid_arg "Topology.ring_lattice: need >= 3 peers";
  if k < 1 || 2 * k >= peers then invalid_arg "Topology.ring_lattice: bad k";
  (* [2k < peers] makes every (p, p+d) pair distinct. *)
  let b = builder ~peers ~capacity:(peers * k) in
  for p = 0 to peers - 1 do
    for d = 1 to k do
      connect b p ((p + d) mod peers)
    done
  done;
  freeze ~peers b

let watts_strogatz rng ~peers ~k ~beta =
  if peers < 3 then invalid_arg "Topology.watts_strogatz: need >= 3 peers";
  if k < 1 || 2 * k >= peers then invalid_arg "Topology.watts_strogatz: bad k";
  if beta < 0. || beta > 1. then invalid_arg "Topology.watts_strogatz: beta outside [0,1]";
  let b = builder ~peers ~capacity:(peers * k) in
  for p = 0 to peers - 1 do
    begin_turn b p;
    for d = 1 to k do
      let q = (p + d) mod peers in
      let target =
        if Pdht_util.Rng.bernoulli rng ~p:beta then
          (* Rewire the lattice edge (p, q) to a random endpoint that
             creates neither a self-loop nor a duplicate. *)
          let rec fresh tries =
            if tries = 0 then q (* dense corner: keep the lattice edge *)
            else
              let r = Pdht_util.Rng.int rng peers in
              if r = p || adjacent b p r then fresh (tries - 1) else r
          in
          fresh 20
        else q
      in
      (* An earlier rewire may already have produced the lattice edge. *)
      if not (adjacent b p target) then connect b p target
    done
  done;
  freeze ~peers b

let bfs_reach t ~online start =
  let n = peer_count t in
  let visited = Array.make n false in
  let queue = Queue.create () in
  if online start then begin
    visited.(start) <- true;
    Queue.add start queue
  end;
  let reached = ref 0 in
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    incr reached;
    iter_neighbors t p ~f:(fun q ->
        if (not visited.(q)) && online q then begin
          visited.(q) <- true;
          Queue.add q queue
        end)
  done;
  !reached

let is_connected t =
  let n = peer_count t in
  n = 0 || bfs_reach t ~online:(fun _ -> true) 0 = n

let connected_fraction_from t ~online start =
  let online_total =
    let acc = ref 0 in
    for p = 0 to peer_count t - 1 do
      if online p then incr acc
    done;
    !acc
  in
  if online_total = 0 then 0.
  else float_of_int (bfs_reach t ~online start) /. float_of_int online_total

let mean_degree t =
  if peer_count t = 0 then 0.
  else 2. *. float_of_int t.edges /. float_of_int (peer_count t)

let duplication_factor t = mean_degree t
