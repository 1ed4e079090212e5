(* [by_item] is indexed directly by the item id (items are small dense
   ints in practice — key indices), holding each item's replica set as a
   sorted array, so [holds] is a binary search and unstructured search
   can stamp an item's whole set in one pass.  The per-peer inverse
   view is the compact growable variant of the same idea: one sorted
   int array per peer ([items] prefix of length [len], doubling
   capacity), ~2 words per holding.  Only crash faults ([remove_peer])
   and [items_at] read it, so it is built on first use by one counting
   pass over [by_item] and maintained incrementally from then on;
   placement alone never pays for it. *)
type inverse = {
  items : int array array; (* peer -> sorted items, prefix of len *)
  len : int array;
}

type t = {
  total_peers : int;
  mutable by_item : int array array; (* item -> sorted replicas; [||] = absent *)
  mutable inverse : inverse option;
}

let no_replicas : int array = [||]

let create ~peers =
  if peers < 1 then invalid_arg "Replication.create: need >= 1 peer";
  { total_peers = peers; by_item = Array.make 64 no_replicas; inverse = None }

let peers t = t.total_peers

let ensure_item t item =
  if item < 0 then invalid_arg "Replication: negative item";
  let n = Array.length t.by_item in
  if item >= n then begin
    let grown = Array.make (max (item + 1) (2 * n)) no_replicas in
    Array.blit t.by_item 0 grown 0 n;
    t.by_item <- grown
  end

let replicas_of t item =
  if item < 0 || item >= Array.length t.by_item then no_replicas else t.by_item.(item)

(* Items are visited in ascending order, so each peer's row comes out
   sorted. *)
let inverse t =
  match t.inverse with
  | Some inv -> inv
  | None ->
      let len = Array.make t.total_peers 0 in
      Array.iter (Array.iter (fun p -> len.(p) <- len.(p) + 1)) t.by_item;
      let items = Array.map (fun n -> if n = 0 then no_replicas else Array.make n 0) len in
      Array.fill len 0 t.total_peers 0;
      Array.iteri
        (fun item reps ->
          Array.iter
            (fun p ->
              items.(p).(len.(p)) <- item;
              len.(p) <- len.(p) + 1)
            reps)
        t.by_item;
      let inv = { items; len } in
      t.inverse <- Some inv;
      inv

(* Position of [item] in [peer]'s sorted holdings, or the insertion
   point encoded as [-(pos + 1)] when absent. *)
let peer_find inv peer item =
  let arr = inv.items.(peer) in
  let lo = ref 0 and hi = ref (inv.len.(peer) - 1) in
  let res = ref min_int in
  while !res = min_int && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = Array.unsafe_get arr mid in
    if v = item then res := mid
    else if v < item then lo := mid + 1
    else hi := mid - 1
  done;
  if !res = min_int then -(!lo + 1) else !res

let peer_add inv peer item =
  let pos = peer_find inv peer item in
  if pos < 0 then begin
    let at = -pos - 1 in
    let len = inv.len.(peer) in
    let arr = inv.items.(peer) in
    let arr =
      if len = Array.length arr then begin
        let grown = Array.make (max 4 (2 * len)) 0 in
        Array.blit arr 0 grown 0 len;
        inv.items.(peer) <- grown;
        grown
      end
      else arr
    in
    Array.blit arr at arr (at + 1) (len - at);
    arr.(at) <- item;
    inv.len.(peer) <- len + 1
  end

let peer_remove inv peer item =
  let pos = peer_find inv peer item in
  if pos >= 0 then begin
    let len = inv.len.(peer) in
    let arr = inv.items.(peer) in
    Array.blit arr (pos + 1) arr pos (len - pos - 1);
    inv.len.(peer) <- len - 1
  end

let remove t ~item =
  let reps = replicas_of t item in
  if Array.length reps > 0 then begin
    Option.iter (fun inv -> Array.iter (fun p -> peer_remove inv p item) reps) t.inverse;
    t.by_item.(item) <- no_replicas
  end

let place_on t ~item ~replicas =
  Array.iter
    (fun p -> if p < 0 || p >= t.total_peers then invalid_arg "Replication.place_on: bad peer")
    replicas;
  ensure_item t item;
  remove t ~item;
  (* Sort a copy and drop duplicates in place. *)
  let reps =
    let sorted = Array.copy replicas in
    Array.stable_sort Int.compare sorted;
    let n = Array.length sorted in
    let distinct = ref 0 in
    for i = 0 to n - 1 do
      if i = 0 || sorted.(i) <> sorted.(i - 1) then begin
        sorted.(!distinct) <- sorted.(i);
        incr distinct
      end
    done;
    if !distinct = n then sorted else Array.sub sorted 0 !distinct
  in
  t.by_item.(item) <- reps;
  Option.iter (fun inv -> Array.iter (fun p -> peer_add inv p item) reps) t.inverse

let remove_peer t ~peer =
  if peer < 0 || peer >= t.total_peers then invalid_arg "Replication.remove_peer: bad peer";
  let inv = inverse t in
  let items = inv.items.(peer) in
  let n = inv.len.(peer) in
  for i = 0 to n - 1 do
    let item = items.(i) in
    let reps = t.by_item.(item) in
    let kept = Array.make (Array.length reps - 1) 0 in
    let j = ref 0 in
    Array.iter
      (fun p ->
        if p <> peer then begin
          kept.(!j) <- p;
          incr j
        end)
      reps;
    (* [reps] was sorted and held [peer] exactly once, so [kept] is
       full and still sorted. *)
    t.by_item.(item) <- (if Array.length kept = 0 then no_replicas else kept)
  done;
  inv.len.(peer) <- 0;
  n

let place t rng ~item ~repl =
  if repl < 1 then invalid_arg "Replication.place: repl must be >= 1";
  let k = min repl t.total_peers in
  let replicas = Pdht_util.Sampling.sample_without_replacement rng ~k ~n:t.total_peers in
  place_on t ~item ~replicas

let replicas t ~item = replicas_of t item

let holds t ~peer ~item =
  let reps = replicas_of t item in
  (* Binary search in the sorted replica array. *)
  let lo = ref 0 and hi = ref (Array.length reps - 1) and found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let v = Array.unsafe_get reps mid in
    if v = peer then found := true
    else if v < peer then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let items_at t ~peer =
  let inv = inverse t in
  Array.to_list (Array.sub inv.items.(peer) 0 inv.len.(peer))
let replication_factor t ~item = Array.length (replicas t ~item)

let availability t ~online ~item =
  let reps = replicas t ~item in
  let total = Array.length reps in
  if total = 0 then 0.
  else
    let up = Array.fold_left (fun acc p -> if online p then acc + 1 else acc) 0 reps in
    float_of_int up /. float_of_int total
