module Scratch = Pdht_overlay.Scratch

(* Immutable CSR subnetwork: member [p]'s neighbours are the member
   positions [nbr.(off.(p)) .. nbr.(off.(p + 1) - 1)], ascending and
   duplicate-free.  Subnets are built lazily on the query path (a key's
   first flood), so construction is hot: it runs in time and space
   linear in the number of links, never in [n²]. *)
type t = {
  replicas : int array; (* member position -> global peer index *)
  off : int array; (* length n + 1 *)
  nbr : int array; (* member positions, row by row *)
}

let build rng ~replicas ~chords =
  let n = Array.length replicas in
  if n = 0 then invalid_arg "Replica_net.build: empty replica set";
  if chords < 0 then invalid_arg "Replica_net.build: negative chords";
  (* Record every directed link: per member the ring link, then
     [chords] random long-range links, each in both directions.  The
     draw order is the construction's contract — it fixes the RNG
     stream every later draw sees. *)
  let cap = if n > 1 then 2 * n * (1 + chords) else 0 in
  let src = Array.make cap 0 and dst = Array.make cap 0 in
  let links = ref 0 in
  let connect a b =
    if a <> b then begin
      src.(!links) <- a;
      dst.(!links) <- b;
      incr links
    end
  in
  if n > 1 then
    for i = 0 to n - 1 do
      let succ = (i + 1) mod n in
      connect i succ;
      connect succ i;
      for _ = 1 to chords do
        let j = Pdht_util.Rng.int rng n in
        connect i j;
        connect j i
      done
    done;
  (* Counting sort by source into rows. *)
  let links = !links in
  let off = Array.make (n + 1) 0 in
  for e = 0 to links - 1 do
    off.(src.(e) + 1) <- off.(src.(e) + 1) + 1
  done;
  for p = 1 to n do
    off.(p) <- off.(p) + off.(p - 1)
  done;
  let fill = Array.sub off 0 n in
  let nbr = Array.make links 0 in
  for e = 0 to links - 1 do
    let a = src.(e) in
    nbr.(fill.(a)) <- dst.(e);
    fill.(a) <- fill.(a) + 1
  done;
  (* Insertion-sort each (short) row, drop duplicates and compact the
     rows leftwards in place: [w] never passes the row being read. *)
  let w = ref 0 in
  for p = 0 to n - 1 do
    let lo = off.(p) and hi = off.(p + 1) in
    for k = lo + 1 to hi - 1 do
      let v = nbr.(k) in
      let j = ref (k - 1) in
      while !j >= lo && nbr.(!j) > v do
        nbr.(!j + 1) <- nbr.(!j);
        decr j
      done;
      nbr.(!j + 1) <- v
    done;
    off.(p) <- !w;
    for k = lo to hi - 1 do
      if k = lo || nbr.(k) <> nbr.(k - 1) then begin
        nbr.(!w) <- nbr.(k);
        incr w
      end
    done
  done;
  off.(n) <- !w;
  let nbr = if !w = links then nbr else Array.sub nbr 0 !w in
  { replicas; off; nbr }

let size t = Array.length t.replicas
let replicas t = t.replicas

let neighbors t ~member =
  let lo = t.off.(member) in
  Array.init (t.off.(member + 1) - lo) (fun k -> t.replicas.(t.nbr.(lo + k)))

(* Groups are small (the replication factor), so position lookup is a
   linear scan — building a hash index per subnet cost more at
   construction than every scan it ever served. *)
let position_of_peer t peer =
  let n = Array.length t.replicas in
  let rec go i = if i = n then -1 else if t.replicas.(i) = peer then i else go (i + 1) in
  go 0

let member_of_peer t peer =
  match position_of_peer t peer with -1 -> None | pos -> Some pos

type flood_result = { reached : int; messages : int }

(* BFS over member positions, using the scratch's generation-stamped
   visited set and its frontier buffer as the queue (each member is
   enqueued at most once, so [n] slots suffice). *)
let flood ?scratch t ~online ~from_peer =
  match position_of_peer t from_peer with
  | -1 -> { reached = 0; messages = 0 }
  | start ->
      if not (online t.replicas.(start)) then { reached = 0; messages = 0 }
      else begin
        let scratch = match scratch with Some s -> s | None -> Scratch.create () in
        Scratch.ensure_peers scratch (Array.length t.replicas);
        let gen = Scratch.next_generation scratch in
        let stamp = scratch.Scratch.stamp and queue = scratch.Scratch.frontier in
        let off = t.off and nbr = t.nbr and replicas = t.replicas in
        stamp.(start) <- gen;
        queue.(0) <- start;
        let head = ref 0 and tail = ref 1 in
        let reached = ref 1 in
        let messages = ref 0 in
        while !head < !tail do
          let pos = queue.(!head) in
          incr head;
          for k = off.(pos) to off.(pos + 1) - 1 do
            let q = nbr.(k) in
            if online replicas.(q) then begin
              incr messages;
              if stamp.(q) <> gen then begin
                stamp.(q) <- gen;
                incr reached;
                queue.(!tail) <- q;
                incr tail
              end
            end
          done
        done;
        { reached = !reached; messages = !messages }
      end

let duplication_factor r =
  if r.reached = 0 then 0. else float_of_int r.messages /. float_of_int r.reached
