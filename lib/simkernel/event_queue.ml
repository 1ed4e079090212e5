(* Structure-of-arrays 4-ary min-heap over fixed payload slots.

   The heap orders entries by (time, seq): times in an unboxed
   [float array], tie-breaking sequence numbers in an [int array], and
   beside them the index of the entry's payload slot.  Payloads never
   move: each sits in a fixed slot of a uniform [Obj.t array] (created
   from an immediate filler, so it is never a flat float array and the
   generic reads/writes below are sound), written once on [add] and
   reset to the filler once when it leaves on [pop_min] or [clear].
   Sifting moves only the two unboxed keys and an int slot index, with
   a hole instead of pairwise swaps, so it never calls [caml_modify],
   and the branching factor 4 halves the depth of a binary heap.

   Slot invariant: [slots] is always a permutation of
   [0 .. capacity-1].  Its first [size] entries are the slots of the
   pending events, in heap order; the rest is the free-slot stack, whose
   top is [slots.(size)].  [add] takes the top free slot, [pop_min]
   pushes the popped event's slot back, [clear] frees them all.

   After warm-up (once the backing arrays have grown to the high-water
   mark of the simulation) [add], [pop_min] and [min_time] allocate
   nothing; [clear] keeps the capacity so a reused queue never
   re-grows. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable payloads : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

(* Filler for empty payload slots.  [Obj.repr ()] is an immediate, so
   writing it is cheap and it keeps nothing alive. *)
let nothing = Obj.repr ()

let create () =
  { times = [||]; seqs = [||]; slots = [||]; payloads = [||]; size = 0; next_seq = 0 }

let is_empty t = t.size = 0
let size t = t.size
let capacity t = Array.length t.times

let grow t =
  let old_cap = Array.length t.times in
  let cap = max 16 (2 * old_cap) in
  let times = Array.make cap 0. in
  let seqs = Array.make cap 0 in
  (* The heap is full, so every old slot is in use and the new ones
     [old_cap .. cap-1] form the free stack. *)
  let slots = Array.init cap Fun.id in
  let payloads = Array.make cap nothing in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.slots 0 slots 0 t.size;
  Array.blit t.payloads 0 payloads 0 old_cap;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.payloads <- payloads

let add t ~time payload =
  if Float.is_nan time then invalid_arg "Event_queue.add: NaN time";
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let slot = slots.(t.size) in
  t.payloads.(slot) <- Obj.repr payload;
  (* Sift the hole up from the end.  The new seq exceeds every pending
     one, so the new event only rises past strictly later times. *)
  let i = ref t.size in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) lsr 2 in
    if time < Array.unsafe_get times parent then begin
      Array.unsafe_set times !i (Array.unsafe_get times parent);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
      Array.unsafe_set slots !i (Array.unsafe_get slots parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i t.next_seq;
  Array.unsafe_set slots !i slot;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1

let min_time t =
  if t.size = 0 then invalid_arg "Event_queue.min_time: empty queue";
  t.times.(0)

let peek_time t = if t.size = 0 then None else Some t.times.(0)

(* Move the entry at position [n] into the hole at the root of the heap
   of the [n] entries before it: while the smallest child orders before
   it, lift that child into the hole. *)
let sift_down t n =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let first = (4 * !i) + 1 in
    if first >= n then continue := false
    else begin
      let best = ref first in
      let best_time = ref (Array.unsafe_get times first) in
      let best_seq = ref (Array.unsafe_get seqs first) in
      let last_child = if first + 3 < n then first + 3 else n - 1 in
      for c = first + 1 to last_child do
        let ct = Array.unsafe_get times c in
        if ct < !best_time || (ct = !best_time && Array.unsafe_get seqs c < !best_seq)
        then begin
          best := c;
          best_time := ct;
          best_seq := Array.unsafe_get seqs c
        end
      done;
      if !best_time < time || (!best_time = time && !best_seq < seq) then begin
        Array.unsafe_set times !i !best_time;
        Array.unsafe_set seqs !i !best_seq;
        Array.unsafe_set slots !i (Array.unsafe_get slots !best);
        i := !best
      end
      else continue := false
    end
  done;
  Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot

let pop_min t =
  if t.size = 0 then invalid_arg "Event_queue.pop_min: empty queue";
  let slot = t.slots.(0) in
  let payload = t.payloads.(slot) in
  t.payloads.(slot) <- nothing;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then sift_down t last;
  (* Position [last] is now outside the heap: push the freed slot. *)
  t.slots.(last) <- slot;
  (Obj.obj payload : 'a)

let pop t =
  if t.size = 0 then None
  else begin
    let time = t.times.(0) in
    Some (time, pop_min t)
  end

let clear t =
  (* Keep the backing arrays (capacity is the whole point of a reusable
     queue) but drop every payload reference; the pending slots become
     free in place. *)
  for i = 0 to t.size - 1 do
    t.payloads.(t.slots.(i)) <- nothing
  done;
  t.size <- 0
