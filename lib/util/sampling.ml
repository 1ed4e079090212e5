let shuffle_prefix rng arr ~len =
  if len < 0 || len > Array.length arr then invalid_arg "Sampling.shuffle_prefix";
  for i = len - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let shuffle rng arr = shuffle_prefix rng arr ~len:(Array.length arr)

let choose rng arr =
  if Array.length arr = 0 then invalid_arg "Sampling.choose: empty array";
  arr.(Rng.int rng (Array.length arr))

let sample_without_replacement rng ~k ~n =
  if k < 0 || k > n then invalid_arg "Sampling.sample_without_replacement";
  (* Sparse partial Fisher-Yates: O(k) time and space instead of
     materialising the whole [0..n-1] pool (which made every caller pay
     O(n) — ruinous when P-Grid construction samples references out of
     half the population per peer).  The open-addressed table
     [keys]/[vals] records only the positions the virtual pool differs
     from the identity at (at most k, load <= 1/2, linear probing, no
     deletions); draws and output are index-for-index identical to
     shuffling the real pool. *)
  let slots =
    let s = ref 4 in
    while !s < 2 * k do
      s := 2 * !s
    done;
    !s
  in
  let mask = slots - 1 in
  let keys = Array.make slots (-1) in
  let vals = Array.make slots 0 in
  (* Slot holding position [i], or the empty slot it would take;
     Fibonacci hashing, as in the DHT stores. *)
  let slot i =
    let h = i * 0x2545F4914F6CDD1D in
    let pos = ref ((h lxor (h lsr 29)) land mask) in
    while keys.(!pos) <> i && keys.(!pos) >= 0 do
      pos := (!pos + 1) land mask
    done;
    !pos
  in
  let out = Array.make k 0 in
  for i = 0 to k - 1 do
    let j = Rng.int_in_range rng ~lo:i ~hi:(n - 1) in
    let si = slot i in
    let vi = if keys.(si) < 0 then i else vals.(si) in
    let sj = slot j in
    out.(i) <- (if keys.(sj) < 0 then j else vals.(sj));
    (* Position [i] is never read again (future draws live in
       [i+1, n-1]), so only [j]'s displacement needs recording. *)
    keys.(sj) <- j;
    vals.(sj) <- vi
  done;
  out

let reservoir rng ~k seq =
  if k < 0 then invalid_arg "Sampling.reservoir";
  let buf = ref [||] in
  let seen = ref 0 in
  let visit x =
    incr seen;
    let n = !seen in
    if n <= k then buf := Array.append !buf [| x |]
    else
      let j = Rng.int rng n in
      if j < k then !buf.(j) <- x
  in
  Seq.iter visit seq;
  !buf

let weighted_index rng weights =
  let total = Array.fold_left ( +. ) 0. weights in
  if not (total > 0.) then invalid_arg "Sampling.weighted_index: weights sum to zero";
  let target = Rng.float rng total in
  let n = Array.length weights in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.

module Alias = struct
  type t = { prob : float array; alias : int array }

  let create weights =
    let n = Array.length weights in
    if n = 0 then invalid_arg "Alias.create: empty weights";
    let total = Array.fold_left ( +. ) 0. weights in
    if not (total > 0.) then invalid_arg "Alias.create: weights sum to zero";
    Array.iter (fun w -> if w < 0. then invalid_arg "Alias.create: negative weight") weights;
    let scaled = Array.map (fun w -> w *. float_of_int n /. total) weights in
    let prob = Array.make n 1. in
    let alias = Array.init n Fun.id in
    let small = Queue.create () in
    let large = Queue.create () in
    Array.iteri (fun i s -> Queue.add i (if s < 1. then small else large)) scaled;
    while (not (Queue.is_empty small)) && not (Queue.is_empty large) do
      let s = Queue.pop small in
      let l = Queue.pop large in
      prob.(s) <- scaled.(s);
      alias.(s) <- l;
      scaled.(l) <- scaled.(l) +. scaled.(s) -. 1.;
      Queue.add l (if scaled.(l) < 1. then small else large)
    done;
    (* Leftovers are 1.0 up to rounding; prob is already 1. *)
    { prob; alias }

  let size t = Array.length t.prob

  let draw t rng =
    let i = Rng.int rng (Array.length t.prob) in
    if Rng.unit_float rng < t.prob.(i) then i else t.alias.(i)
end
