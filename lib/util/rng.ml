(* xoshiro256** with its four 64-bit state words packed into a 32-byte
   [Bytes.t], read and written through the unboxed [%caml_bytes_get64u]
   / [%caml_bytes_set64u] primitives.  Within one function ocamlopt keeps
   let-bound [int64] temporaries unboxed, so an inlined {!next} is a plain
   64-bit xoshiro step that allocates nothing, and a state copy is one
   [Bytes.copy].  The byte layout is private to this module; only the
   64-bit output stream is observable (pinned by known-answer tests).

   Every draw takes fixed bits of the output [r] by a logical shift:
   [int] the top 30 ([r lsr 34]) or top 62 ([r lsr 2]) bits,
   [unit_float] the top 53, [bool] the lowest.  Which bits each entry
   point takes is part of the stream every seeded experiment reproduces,
   so none of them may change. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step: the scrambled output [rotl (s1 * 5) 7 * 9],
   then the linear state transition. *)
let[@inline] next t =
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64 t 0 s0;
  set64 t 8 s1;
  set64 t 16 (Int64.logxor s2 tmp);
  set64 t 24 (rotl s3 45);
  result

(* The top [64 - k] bits of the next output, as a non-negative int
   ([k >= 2] so the result fits a 63-bit native int). *)
let[@inline] next_shifted t k = Int64.to_int (Int64.shift_right_logical (next t) k)

(* splitmix64: used only to expand the seed into the four xoshiro words,
   as recommended by Blackman & Vigna.  Setup-time only, so the boxed
   Int64 arithmetic is fine here. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_splitmix start =
  let state = ref start in
  let t = Bytes.create 32 in
  for w = 0 to 3 do
    set64 t (8 * w) (splitmix64_next state)
  done;
  t

let create ~seed = of_splitmix (Int64.of_int seed)
let copy = Bytes.copy
let bits64 t = next t
let split t = of_splitmix (next t)

(* Derivation is stateless: two splitmix64 rounds mix [seed] and
   [stream] so that nearby (seed, stream) pairs land far apart, and the
   result does not depend on any generator having been advanced.  The
   +1 keeps stream 0 from collapsing to a plain splitmix of the seed. *)
let derive_seed ~seed ~stream =
  let state = ref (Int64.of_int seed) in
  let mixed_seed = splitmix64_next state in
  let state =
    ref
      (Int64.logxor mixed_seed
         (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (stream + 1))))
  in
  (* Keep 62 bits: a 63-bit value can still wrap negative through
     Int64.to_int on 64-bit OCaml ints. *)
  Int64.to_int (Int64.shift_right_logical (splitmix64_next state) 2)

let of_stream ~seed ~stream = create ~seed:(derive_seed ~seed ~stream)

(* Exactly uniform bounded draws.  Two strategies, both rejection
   sampled so every bound is exactly uniform:

   - bound < 2^30: Lemire's multiply-shift on the top 30 output bits.
     [r30 * bound] fits a native int, the candidate is its high 30
     bits, and the biased low slots are rejected.  The common case
     costs one multiply and one shift — no hardware division, which at
     the simulator's draw volume (maintenance probes, walk steps,
     routing) is the dominant cost of a draw.  The division computing
     the exact rejection threshold only runs when the cheap
     [low < bound] pre-test fires (probability [bound / 2^30]).
   - larger bounds: the classic modulo rejection on the top 62 bits.

   Top-level [let rec] so the retry paths need no per-call closure. *)
let rec lemire_draw t bound =
  let m = next_shifted t 34 * bound in
  let low = m land 0x3FFFFFFF in
  if low < bound && low < (0x40000000 - bound) mod bound then lemire_draw t bound
  else m lsr 30

let rec int_draw t bound =
  let r = next_shifted t 2 in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then int_draw t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound < 0x40000000 then lemire_draw t bound else int_draw t bound

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

(* The top 53 bits give a uniform double in [0,1). *)
let unit_float t = float_of_int (next_shifted t 11) *. 0x1.0p-53
let float t bound = unit_float t *. bound
let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t ~p =
  if p <= 0. then false else if p >= 1. then true else unit_float t < p

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1. -. unit_float t in
  -.log u /. rate

let geometric t ~p =
  if p <= 0. || p > 1. then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p = 1. then 0
  else
    let u = 1. -. unit_float t in
    int_of_float (Float.floor (log u /. log (1. -. p)))
