(* Unit and property tests for Pdht_util: PRNG, sampling, statistics,
   bit keys, hashing and table rendering. *)

module Rng = Pdht_util.Rng
module Sampling = Pdht_util.Sampling
module Stats = Pdht_util.Stats
module Bitkey = Pdht_util.Bitkey
module Hashing = Pdht_util.Hashing
module Table = Pdht_util.Table

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose msg = Alcotest.(check (float 0.05)) msg

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:3 in
  let b = Rng.copy a in
  let xa = Rng.bits64 a in
  let xb = Rng.bits64 b in
  Alcotest.(check int64) "copy replays" xa xb;
  (* Advancing the copy must not disturb the original. *)
  ignore (Rng.bits64 b);
  ignore (Rng.bits64 b);
  let a' = Rng.bits64 a and b' = Rng.bits64 b in
  Alcotest.(check bool) "diverged" true (not (Int64.equal a' b'))

let test_rng_split_independent () =
  let parent = Rng.create ~seed:11 in
  let child = Rng.split parent in
  let overlap = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 parent) (Rng.bits64 child) then incr overlap
  done;
  Alcotest.(check bool) "split stream is distinct" true (!overlap < 4)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:5 in
  for bound = 1 to 50 do
    for _ = 1 to 100 do
      let v = Rng.int rng bound in
      Alcotest.(check bool) "in range" true (v >= 0 && v < bound)
    done
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create ~seed:5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_in_range () =
  let rng = Rng.create ~seed:6 in
  for _ = 1 to 200 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "degenerate range" 3 (Rng.int_in_range rng ~lo:3 ~hi:3)

let test_rng_derive_seed_deterministic () =
  Alcotest.(check int) "same pair, same seed"
    (Rng.derive_seed ~seed:42 ~stream:3)
    (Rng.derive_seed ~seed:42 ~stream:3);
  Alcotest.(check bool) "non-negative" true (Rng.derive_seed ~seed:(-9) ~stream:0 >= 0);
  (* Stateless: deriving is not affected by other derivations. *)
  let a = Rng.derive_seed ~seed:1 ~stream:5 in
  ignore (Rng.derive_seed ~seed:99 ~stream:7);
  Alcotest.(check int) "stateless" a (Rng.derive_seed ~seed:1 ~stream:5)

let test_rng_derive_seed_separates_streams () =
  (* Distinct streams (and distinct root seeds) must not collide over a
     modest range, and the derived generators must not share a stream. *)
  let seen = Hashtbl.create 512 in
  for seed = 0 to 15 do
    for stream = 0 to 15 do
      let s = Rng.derive_seed ~seed ~stream in
      Alcotest.(check bool)
        (Printf.sprintf "no collision at (%d,%d)" seed stream)
        false (Hashtbl.mem seen s);
      Hashtbl.replace seen s ()
    done
  done;
  let a = Rng.of_stream ~seed:7 ~stream:0 in
  let b = Rng.of_stream ~seed:7 ~stream:1 in
  let overlap = ref 0 in
  for _ = 1 to 200 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr overlap
  done;
  Alcotest.(check int) "streams do not track each other" 0 !overlap

let test_rng_unit_float_range () =
  let rng = Rng.create ~seed:8 in
  for _ = 1 to 1000 do
    let u = Rng.unit_float rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0. && u < 1.)
  done

let test_rng_uniformity () =
  let rng = Rng.create ~seed:9 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      check_float_loose "bucket ~10%" 0.1 frac)
    buckets

let test_rng_bernoulli_extremes () =
  let rng = Rng.create ~seed:10 in
  Alcotest.(check bool) "p=0" false (Rng.bernoulli rng ~p:0.);
  Alcotest.(check bool) "p=1" true (Rng.bernoulli rng ~p:1.);
  Alcotest.(check bool) "p<0 clamps" false (Rng.bernoulli rng ~p:(-0.5));
  Alcotest.(check bool) "p>1 clamps" true (Rng.bernoulli rng ~p:1.5)

let test_rng_bernoulli_mean () =
  let rng = Rng.create ~seed:12 in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng ~p:0.3 then incr hits
  done;
  check_float_loose "mean ~ p" 0.3 (float_of_int !hits /. float_of_int n)

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:13 in
  let acc = ref 0. in
  let n = 50_000 in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential rng ~rate:2.
  done;
  check_float_loose "mean = 1/rate" 0.5 (!acc /. float_of_int n)

let test_rng_exponential_positive () =
  let rng = Rng.create ~seed:14 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng ~rate:0.1 > 0.)
  done;
  Alcotest.check_raises "bad rate"
    (Invalid_argument "Rng.exponential: rate must be positive") (fun () ->
      ignore (Rng.exponential rng ~rate:0.))

let test_rng_geometric () =
  let rng = Rng.create ~seed:15 in
  Alcotest.(check int) "p=1 is 0" 0 (Rng.geometric rng ~p:1.);
  let acc = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    acc := !acc + Rng.geometric rng ~p:0.5
  done;
  (* mean of failures-before-success = (1-p)/p = 1 *)
  check_float_loose "mean" 1.0 (float_of_int !acc /. float_of_int n)


(* The earlier generator, kept as the reference stream: xoshiro256**
   with each 64-bit state word held as two 32-bit halves in native ints.
   [Rng] must emit exactly this stream from every entry point. *)
module Ref_rng = struct
  type t = {
    mutable s0h : int; mutable s0l : int;
    mutable s1h : int; mutable s1l : int;
    mutable s2h : int; mutable s2l : int;
    mutable s3h : int; mutable s3l : int;
    mutable resh : int; mutable resl : int;
  }

  let mask32 = 0xFFFFFFFF

  let step t =
    let m5l0 = t.s1l * 5 in
    let m5l = m5l0 land mask32 in
    let m5h = ((t.s1h * 5) + (m5l0 lsr 32)) land mask32 in
    let r7h = ((m5h lsl 7) lor (m5l lsr 25)) land mask32 in
    let r7l = ((m5l lsl 7) lor (m5h lsr 25)) land mask32 in
    let m9l0 = r7l * 9 in
    t.resl <- m9l0 land mask32;
    t.resh <- ((r7h * 9) + (m9l0 lsr 32)) land mask32;
    let tmph = ((t.s1h lsl 17) lor (t.s1l lsr 15)) land mask32 in
    let tmpl = (t.s1l lsl 17) land mask32 in
    t.s2h <- t.s2h lxor t.s0h;
    t.s2l <- t.s2l lxor t.s0l;
    t.s3h <- t.s3h lxor t.s1h;
    t.s3l <- t.s3l lxor t.s1l;
    t.s1h <- t.s1h lxor t.s2h;
    t.s1l <- t.s1l lxor t.s2l;
    t.s0h <- t.s0h lxor t.s3h;
    t.s0l <- t.s0l lxor t.s3l;
    t.s2h <- t.s2h lxor tmph;
    t.s2l <- t.s2l lxor tmpl;
    let h = t.s3h and l = t.s3l in
    t.s3h <- ((l lsl 13) lor (h lsr 19)) land mask32;
    t.s3l <- ((h lsl 13) lor (l lsr 19)) land mask32

  let splitmix64_next state =
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  let hi64 v = Int64.to_int (Int64.shift_right_logical v 32)
  let lo64 v = Int64.to_int (Int64.logand v 0xFFFFFFFFL)

  let of_splitmix start =
    let state = ref start in
    let s0 = splitmix64_next state in
    let s1 = splitmix64_next state in
    let s2 = splitmix64_next state in
    let s3 = splitmix64_next state in
    {
      s0h = hi64 s0; s0l = lo64 s0;
      s1h = hi64 s1; s1l = lo64 s1;
      s2h = hi64 s2; s2l = lo64 s2;
      s3h = hi64 s3; s3l = lo64 s3;
      resh = 0; resl = 0;
    }

  let create ~seed = of_splitmix (Int64.of_int seed)
  let copy t = { t with resh = 0 }

  let bits64 t =
    step t;
    Int64.logor (Int64.shift_left (Int64.of_int t.resh) 32) (Int64.of_int t.resl)

  let split t = of_splitmix (bits64 t)

  let rec lemire_draw t bound =
    step t;
    let r30 = t.resh lsr 2 in
    let m = r30 * bound in
    let low = m land 0x3FFFFFFF in
    if low < bound && low < (0x40000000 - bound) mod bound then lemire_draw t bound
    else m lsr 30

  let rec int_draw t bound =
    step t;
    let r = (t.resh lsl 30) lor (t.resl lsr 2) in
    let v = r mod bound in
    if r - v > max_int - bound + 1 then int_draw t bound else v

  let int t bound = if bound < 0x40000000 then lemire_draw t bound else int_draw t bound
  let int_in_range t ~lo ~hi = lo + int t (hi - lo + 1)

  let unit_float t =
    step t;
    float_of_int ((t.resh lsl 21) lor (t.resl lsr 11)) *. 0x1.0p-53

  let float t bound = unit_float t *. bound

  let bool t =
    step t;
    t.resl land 1 = 1

  let bernoulli t ~p = if p <= 0. then false else if p >= 1. then true else unit_float t < p
  let exponential t ~rate = -.log (1. -. unit_float t) /. rate

  let geometric t ~p =
    if p = 1. then 0
    else int_of_float (Float.floor (log (1. -. unit_float t) /. log (1. -. p)))
end

(* Known answers: the first outputs of two seeds, so a change that moved
   both generators together would still be caught. *)
let test_rng_known_answers () =
  let first4 bits64 = List.init 4 (fun _ -> bits64 ()) in
  let expect seed words =
    let r = Rng.create ~seed and m = Ref_rng.create ~seed in
    Alcotest.(check (list int64)) (Printf.sprintf "seed %d" seed) words
      (first4 (fun () -> Rng.bits64 r));
    Alcotest.(check (list int64)) (Printf.sprintf "reference seed %d" seed) words
      (first4 (fun () -> Ref_rng.bits64 m))
  in
  expect 0
    [ 0x99EC5F36CB75F2B4L; 0xBF6E1F784956452AL; 0x1A5F849D4933E6E0L; 0x6AA594F1262D2D2CL ];
  expect 42
    [ 0x15780B2E0C2EC716L; 0x6104D9866D113A7EL; 0xAE17533239E499A1L; 0xECB8AD4703B360A1L ];
  let r = Rng.create ~seed:42 in
  Alcotest.(check (list int)) "seed 42 int 1000" [ 83; 378; 680 ]
    (List.init 3 (fun _ -> Rng.int r 1000))

type rng_op =
  | R_int of int
  | R_int_in_range of int * int
  | R_unit_float
  | R_float of float
  | R_bool
  | R_bits64
  | R_bernoulli of float
  | R_exponential of float
  | R_geometric of float
  | R_split
  | R_copy

let rng_op_gen =
  QCheck.Gen.(
    let bound =
      frequency
        [
          (* Lemire path, the rejection pre-test and the modulo path. *)
          (4, int_range 1 ((1 lsl 30) - 1));
          (2, int_range 1 64);
          (2, map (fun d -> (1 lsl 30) + d) (int_range (-3) 3));
          (2, int_range ((1 lsl 30) + 1) max_int);
          (1, map (fun k -> 1 lsl k) (int_range 0 61));
        ]
    in
    let p = float_bound_inclusive 1. in
    frequency
      [
        (4, map (fun b -> R_int b) bound);
        (2, map2 (fun lo w -> R_int_in_range (lo, lo + w)) (int_range (-1000) 1000) (int_bound 5000));
        (1, return R_unit_float);
        (1, map (fun b -> R_float b) (float_bound_inclusive 1e6));
        (1, return R_bool);
        (1, return R_bits64);
        (1, map (fun p -> R_bernoulli p) p);
        (1, map (fun r -> R_exponential (r +. 1e-3)) (float_bound_inclusive 10.));
        (1, map (fun p -> R_geometric (Float.max p 1e-3)) p);
        (1, return R_split);
        (1, return R_copy);
      ])

let rng_op_print = function
  | R_int b -> Printf.sprintf "int %d" b
  | R_int_in_range (lo, hi) -> Printf.sprintf "int_in_range %d..%d" lo hi
  | R_unit_float -> "unit_float"
  | R_float b -> Printf.sprintf "float %h" b
  | R_bool -> "bool"
  | R_bits64 -> "bits64"
  | R_bernoulli p -> Printf.sprintf "bernoulli %h" p
  | R_exponential r -> Printf.sprintf "exponential %h" r
  | R_geometric p -> Printf.sprintf "geometric %h" p
  | R_split -> "split"
  | R_copy -> "copy"

(* Drive [Rng] and [Ref_rng] through the same script.  Floats compare
   bit for bit.  [split] continues on the child (after checking that the
   parents agree); [copy] draws from the copies and continues on the
   originals, so a copy that aliased its source would desynchronise the
   two streams. *)
let rng_matches_reference (seed, ops) =
  let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let rec go r m = function
    | [] -> Int64.equal (Rng.bits64 r) (Ref_rng.bits64 m)
    | op :: rest ->
        let ok =
          match op with
          | R_int b -> Rng.int r b = Ref_rng.int m b
          | R_int_in_range (lo, hi) -> Rng.int_in_range r ~lo ~hi = Ref_rng.int_in_range m ~lo ~hi
          | R_unit_float -> same_float (Rng.unit_float r) (Ref_rng.unit_float m)
          | R_float b -> same_float (Rng.float r b) (Ref_rng.float m b)
          | R_bool -> Rng.bool r = Ref_rng.bool m
          | R_bits64 -> Int64.equal (Rng.bits64 r) (Ref_rng.bits64 m)
          | R_bernoulli p -> Rng.bernoulli r ~p = Ref_rng.bernoulli m ~p
          | R_exponential rate ->
              same_float (Rng.exponential r ~rate) (Ref_rng.exponential m ~rate)
          | R_geometric p -> Rng.geometric r ~p = Ref_rng.geometric m ~p
          | R_split | R_copy -> true
        in
        ok
        &&
        match op with
        | R_split ->
            let r' = Rng.split r and m' = Ref_rng.split m in
            Int64.equal (Rng.bits64 r) (Ref_rng.bits64 m) && go r' m' rest
        | R_copy ->
            let r' = Rng.copy r and m' = Ref_rng.copy m in
            Rng.int r' 1000 = Ref_rng.int m' 1000
            && Int64.equal (Rng.bits64 r') (Ref_rng.bits64 m')
            && go r m rest
        | _ -> go r m rest
  in
  go (Rng.create ~seed) (Ref_rng.create ~seed) ops

(* ------------------------------------------------------------------ *)
(* Sampling *)

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:20 in
  let arr = Array.init 50 Fun.id in
  Sampling.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_shuffle_actually_shuffles () =
  let rng = Rng.create ~seed:21 in
  let arr = Array.init 100 Fun.id in
  Sampling.shuffle rng arr;
  Alcotest.(check bool) "not identity" true (arr <> Array.init 100 Fun.id)

let test_choose_singleton () =
  let rng = Rng.create ~seed:22 in
  Alcotest.(check int) "only element" 42 (Sampling.choose rng [| 42 |])

let test_choose_empty_raises () =
  let rng = Rng.create ~seed:22 in
  Alcotest.check_raises "empty" (Invalid_argument "Sampling.choose: empty array")
    (fun () -> ignore (Sampling.choose rng ([||] : int array)))

let test_sample_without_replacement_distinct () =
  let rng = Rng.create ~seed:23 in
  for _ = 1 to 50 do
    let s = Sampling.sample_without_replacement rng ~k:10 ~n:30 in
    Alcotest.(check int) "k elements" 10 (Array.length s);
    let sorted = Array.copy s in
    Array.sort compare sorted;
    let distinct = Array.to_list sorted |> List.sort_uniq compare in
    Alcotest.(check int) "all distinct" 10 (List.length distinct);
    Array.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 30)) s
  done

let test_sample_without_replacement_full () =
  let rng = Rng.create ~seed:24 in
  let s = Sampling.sample_without_replacement rng ~k:5 ~n:5 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "whole population" [| 0; 1; 2; 3; 4 |] sorted

let test_reservoir_short_input () =
  let rng = Rng.create ~seed:25 in
  let out = Sampling.reservoir rng ~k:10 (List.to_seq [ 1; 2; 3 ]) in
  let sorted = Array.copy out in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "keeps everything" [| 1; 2; 3 |] sorted

let test_reservoir_size () =
  let rng = Rng.create ~seed:26 in
  let out = Sampling.reservoir rng ~k:5 (Seq.init 100 Fun.id) in
  Alcotest.(check int) "k elements" 5 (Array.length out)

let test_weighted_index () =
  let rng = Rng.create ~seed:27 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Sampling.weighted_index rng [| 1.; 2.; 7. |] in
    counts.(i) <- counts.(i) + 1
  done;
  check_float_loose "w0" 0.1 (float_of_int counts.(0) /. 30_000.);
  check_float_loose "w1" 0.2 (float_of_int counts.(1) /. 30_000.);
  check_float_loose "w2" 0.7 (float_of_int counts.(2) /. 30_000.)

let test_alias_matches_weights () =
  let rng = Rng.create ~seed:28 in
  let sampler = Sampling.Alias.create [| 3.; 1.; 6. |] in
  Alcotest.(check int) "size" 3 (Sampling.Alias.size sampler);
  let counts = Array.make 3 0 in
  let n = 60_000 in
  for _ = 1 to n do
    let i = Sampling.Alias.draw sampler rng in
    counts.(i) <- counts.(i) + 1
  done;
  check_float_loose "w0" 0.3 (float_of_int counts.(0) /. float_of_int n);
  check_float_loose "w1" 0.1 (float_of_int counts.(1) /. float_of_int n);
  check_float_loose "w2" 0.6 (float_of_int counts.(2) /. float_of_int n)

let test_alias_rejects_bad_weights () =
  Alcotest.check_raises "empty" (Invalid_argument "Alias.create: empty weights")
    (fun () -> ignore (Sampling.Alias.create [||]));
  Alcotest.check_raises "zero mass" (Invalid_argument "Alias.create: weights sum to zero")
    (fun () -> ignore (Sampling.Alias.create [| 0.; 0. |]));
  Alcotest.check_raises "negative" (Invalid_argument "Alias.create: negative weight")
    (fun () -> ignore (Sampling.Alias.create [| 1.; -1.; 3. |]))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_mean_variance () =
  check_float "mean" 2. (Stats.mean [| 1.; 2.; 3. |]);
  check_float "variance" 1. (Stats.variance [| 1.; 2.; 3. |]);
  check_float "stddev" 1. (Stats.stddev [| 1.; 2.; 3. |]);
  check_float "empty mean" 0. (Stats.mean [||]);
  check_float "single variance" 0. (Stats.variance [| 5. |])

let test_percentiles () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Stats.median xs);
  check_float "p0" 1. (Stats.percentile xs ~p:0.);
  check_float "p100" 5. (Stats.percentile xs ~p:1.);
  check_float "p25 interpolates" 2. (Stats.percentile xs ~p:0.25);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty array")
    (fun () -> ignore (Stats.percentile [||] ~p:0.5))

let test_harmonic () =
  check_float "H_1" 1. (Stats.harmonic_generalized ~n:1 ~alpha:1.2);
  check_float "H_3 alpha=1" (1. +. 0.5 +. (1. /. 3.))
    (Stats.harmonic_generalized ~n:3 ~alpha:1.);
  check_float "alpha=0 counts" 5. (Stats.harmonic_generalized ~n:5 ~alpha:0.)

let test_online_matches_batch () =
  let rng = Rng.create ~seed:30 in
  let xs = Array.init 1000 (fun _ -> Rng.float rng 100.) in
  let online = Stats.Online.create () in
  Array.iter (Stats.Online.add online) xs;
  Alcotest.(check int) "count" 1000 (Stats.Online.count online);
  Alcotest.(check (float 1e-6)) "mean" (Stats.mean xs) (Stats.Online.mean online);
  Alcotest.(check (float 1e-4)) "variance" (Stats.variance xs) (Stats.Online.variance online);
  let mn = Array.fold_left Float.min infinity xs in
  let mx = Array.fold_left Float.max neg_infinity xs in
  check_float "min" mn (Stats.Online.min online);
  check_float "max" mx (Stats.Online.max online)

let test_online_empty () =
  let online = Stats.Online.create () in
  check_float "mean" 0. (Stats.Online.mean online);
  check_float "variance" 0. (Stats.Online.variance online)

let test_histogram () =
  let h = Stats.Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Stats.Histogram.add h) [ 0.5; 1.5; 3.; 9.9; -4.; 15. ];
  Alcotest.(check int) "count" 6 (Stats.Histogram.count h);
  Alcotest.(check int) "underflow clamps to first" 3 (Stats.Histogram.bin_count h 0);
  Alcotest.(check int) "overflow clamps to last" 2 (Stats.Histogram.bin_count h 4);
  Alcotest.(check int) "bins" 5 (Stats.Histogram.bins h);
  let fr = Stats.Histogram.to_fractions h in
  check_float "fraction sums to 1" 1. (Array.fold_left ( +. ) 0. fr)

let test_histogram_rejects_bad_args () =
  Alcotest.check_raises "lo >= hi" (Invalid_argument "Histogram.create: lo must be < hi")
    (fun () -> ignore (Stats.Histogram.create ~lo:1. ~hi:1. ~bins:3))

(* ------------------------------------------------------------------ *)
(* Bitkey *)

let test_bitkey_roundtrip () =
  let k = Bitkey.of_int 12345 in
  Alcotest.(check int) "roundtrip" 12345 (Bitkey.to_int k);
  Alcotest.check_raises "negative" (Invalid_argument "Bitkey.of_int: negative")
    (fun () -> ignore (Bitkey.of_int (-1)))

let test_bitkey_bits () =
  (* Key 1 has only its least significant bit set. *)
  let k = Bitkey.of_int 1 in
  Alcotest.(check bool) "last bit" true (Bitkey.bit k (Bitkey.width - 1));
  Alcotest.(check bool) "first bit" false (Bitkey.bit k 0)

let test_bitkey_common_prefix () =
  let a = Bitkey.of_int 0 in
  Alcotest.(check int) "equal keys" Bitkey.width (Bitkey.common_prefix_length a a);
  let b = Bitkey.flip_bit a 0 in
  Alcotest.(check int) "first bit differs" 0 (Bitkey.common_prefix_length a b);
  let c = Bitkey.flip_bit a 10 in
  Alcotest.(check int) "bit 10 differs" 10 (Bitkey.common_prefix_length a c)

let test_bitkey_flip_involutive () =
  let rng = Rng.create ~seed:40 in
  for _ = 1 to 100 do
    let k = Bitkey.random rng in
    let i = Rng.int rng Bitkey.width in
    Alcotest.(check bool) "flip twice is identity" true
      (Bitkey.equal k (Bitkey.flip_bit (Bitkey.flip_bit k i) i))
  done

let test_bitkey_bits_string_roundtrip () =
  let rng = Rng.create ~seed:41 in
  for _ = 1 to 50 do
    let k = Bitkey.random rng in
    let s = Bitkey.to_bits k ~len:Bitkey.width in
    Alcotest.(check bool) "roundtrip" true (Bitkey.equal k (Bitkey.of_bits s))
  done

let test_bitkey_of_bits_prefix () =
  let k = Bitkey.of_bits "101" in
  Alcotest.(check string) "prefix preserved" "101" (Bitkey.to_bits k ~len:3);
  Alcotest.(check string) "rest zero" "1010000" (Bitkey.to_bits k ~len:7);
  Alcotest.check_raises "bad char" (Invalid_argument "Bitkey.of_bits: expected '0' or '1'")
    (fun () -> ignore (Bitkey.of_bits "10x"))

let test_bitkey_prefix_matching () =
  let k = Bitkey.of_bits "110101" in
  let p = Bitkey.of_bits "1101" in
  Alcotest.(check bool) "matches own prefix" true (Bitkey.matches_prefix k ~prefix:p ~len:4);
  let q = Bitkey.of_bits "1110" in
  Alcotest.(check bool) "mismatch detected" false (Bitkey.matches_prefix k ~prefix:q ~len:4);
  Alcotest.(check bool) "len 0 always matches" true (Bitkey.matches_prefix k ~prefix:q ~len:0)

let test_bitkey_xor_distance () =
  let a = Bitkey.of_int 12 and b = Bitkey.of_int 10 in
  Alcotest.(check int) "xor" (12 lxor 10) (Bitkey.xor_distance a b);
  Alcotest.(check int) "self distance" 0 (Bitkey.xor_distance a a)

let test_bitkey_random_nonnegative () =
  let rng = Rng.create ~seed:42 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "non-negative" true (Bitkey.to_int (Bitkey.random rng) >= 0)
  done

(* ------------------------------------------------------------------ *)
(* Hashing *)

let test_hash_deterministic () =
  Alcotest.(check bool) "same input same key" true
    (Bitkey.equal (Hashing.hash_to_key "abc") (Hashing.hash_to_key "abc"));
  Alcotest.(check bool) "different inputs differ" true
    (not (Bitkey.equal (Hashing.hash_to_key "abc") (Hashing.hash_to_key "abd")))

let test_combine_unambiguous () =
  Alcotest.(check bool) "field boundaries matter" true
    (Hashing.combine [ "ab"; "c" ] <> Hashing.combine [ "a"; "bc" ]);
  Alcotest.(check string) "empty list" "" (Hashing.combine [])

let test_hash_spread () =
  (* Keys from sequential inputs should spread across the MSB space:
     the top 4 bits should take many values (this guards against the
     FNV high-bit weakness that once skewed replica groups). *)
  let seen = Hashtbl.create 16 in
  for i = 0 to 799 do
    let k = Hashing.hash_to_key (Hashing.combine [ "key"; string_of_int i ]) in
    let top4 = Bitkey.to_int k lsr (Bitkey.width - 4) in
    Hashtbl.replace seen top4 ()
  done;
  Alcotest.(check bool) "top bits spread" true (Hashtbl.length seen >= 14)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "longer"; "22" ];
  let out = Table.render t in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines);
  (match lines with
  | _ :: rule :: _ ->
      Alcotest.(check bool) "rule is dashes" true
        (String.for_all (fun c -> c = '-') rule)
  | _ -> Alcotest.fail "missing rule");
  Alcotest.(check bool) "right aligned value" true
    (match lines with
    | header :: _ -> String.length header > 0
    | [] -> false)

let test_table_row_width_check () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Table.add_row: wrong number of cells") (fun () ->
      Table.add_row t [ "1"; "2" ])

let test_table_float_rows () =
  let t = Table.create ~columns:[ ("v", Table.Right) ] in
  Table.add_float_row t [ 3.14159 ];
  Alcotest.(check bool) "formatted" true
    (String.length (Table.render t) > 0)

let test_table_csv () =
  let t = Table.create ~columns:[ ("a", Table.Left); ("b", Table.Right) ] in
  Table.add_row t [ "plain"; "1" ];
  Table.add_row t [ "with,comma"; "say \"hi\"" ];
  let csv = Table.render_csv t in
  let lines = String.split_on_char '\n' csv in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header first" "a,b" (List.hd lines);
  Alcotest.(check string) "row order preserved" "plain,1" (List.nth lines 1);
  Alcotest.(check string) "quoting" "\"with,comma\",\"say \"\"hi\"\"\"" (List.nth lines 2)

(* ------------------------------------------------------------------ *)
(* Flags *)

let test_flags_no_conflict () =
  Alcotest.(check (option string)) "nothing present" None
    (Pdht_util.Flags.conflicts ~dominant:"--policy"
       ~subsumed:[ ("--key-ttl", false); ("--adaptive", false) ]);
  Alcotest.(check (option string)) "empty subsumed list" None
    (Pdht_util.Flags.conflicts ~dominant:"--policy" ~subsumed:[])

let test_flags_single_conflict () =
  Alcotest.(check (option string)) "one flag named"
    (Some "--policy subsumes --adaptive")
    (Pdht_util.Flags.conflicts ~dominant:"--policy"
       ~subsumed:[ ("--key-ttl", false); ("--adaptive", true) ])

let test_flags_reports_every_conflict () =
  (* The point of the helper: passing several subsumed flags yields ONE
     error naming them all, so one fix clears the whole conflict. *)
  Alcotest.(check (option string)) "both flags named"
    (Some "--policy subsumes --key-ttl and --adaptive")
    (Pdht_util.Flags.conflicts ~dominant:"--policy"
       ~subsumed:[ ("--key-ttl", true); ("--adaptive", true) ]);
  Alcotest.(check (option string)) "three flags: comma list then and"
    (Some "--a subsumes --x, --y and --z")
    (Pdht_util.Flags.conflicts ~dominant:"--a"
       ~subsumed:[ ("--x", true); ("--y", true); ("--z", true) ])

(* ------------------------------------------------------------------ *)
(* Property-based tests *)

let qcheck_tests =
  let open QCheck in
  [
    (* The sparse sampler claims index-for-index identity with a dense
       partial Fisher-Yates over the materialised pool; its callers
       (Replication, Pgrid, the fault Injector) rely on that draw
       sequence for reproducible placements. *)
    Test.make ~name:"sample_without_replacement = dense Fisher-Yates prefix" ~count:500
      (triple small_int (int_range 0 2000) (int_range 0 2000))
      (fun (seed, n, k) ->
        let k = k mod (n + 1) in
        let sparse_rng = Rng.create ~seed in
        let dense_rng = Rng.create ~seed in
        let sparse = Sampling.sample_without_replacement sparse_rng ~k ~n in
        let pool = Array.init n Fun.id in
        for i = 0 to k - 1 do
          let j = Rng.int_in_range dense_rng ~lo:i ~hi:(n - 1) in
          let tmp = pool.(i) in
          pool.(i) <- pool.(j);
          pool.(j) <- tmp
        done;
        sparse = Array.sub pool 0 k && Rng.bits64 sparse_rng = Rng.bits64 dense_rng);
    Test.make ~name:"rng int always within bound" ~count:500
      (pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Rng.create ~seed in
        let v = Rng.int rng bound in
        v >= 0 && v < bound);
    Test.make ~name:"shuffle preserves multiset" ~count:200
      (pair small_int (list small_int))
      (fun (seed, xs) ->
        let rng = Rng.create ~seed in
        let arr = Array.of_list xs in
        Sampling.shuffle rng arr;
        List.sort compare (Array.to_list arr) = List.sort compare xs);
    Test.make ~name:"percentile within data range" ~count:200
      (pair (list_of_size (Gen.int_range 1 50) (float_bound_inclusive 1000.))
         (float_bound_inclusive 1.))
      (fun (xs, p) ->
        let arr = Array.of_list xs in
        let v = Stats.percentile arr ~p in
        let mn = Array.fold_left Float.min infinity arr in
        let mx = Array.fold_left Float.max neg_infinity arr in
        v >= mn -. 1e-9 && v <= mx +. 1e-9);
    Test.make ~name:"rng matches the 32-bit-halves reference stream" ~count:1000
      (pair int (list_of_size Gen.(int_bound 80) (make ~print:rng_op_print rng_op_gen)))
      rng_matches_reference;
    Test.make ~name:"common_prefix_length symmetric" ~count:500
      (pair small_int small_int)
      (fun (a, b) ->
        let ka = Bitkey.of_int (abs a) and kb = Bitkey.of_int (abs b) in
        Bitkey.common_prefix_length ka kb = Bitkey.common_prefix_length kb ka);
    Test.make ~name:"prefix of key matches key" ~count:500
      (pair small_int (int_range 0 62))
      (fun (a, len) ->
        let k = Bitkey.of_int (abs a) in
        let p = Bitkey.prefix k ~len in
        Bitkey.matches_prefix k ~prefix:p ~len);
    Test.make ~name:"combine injective on list structure" ~count:300
      (pair (small_list small_string) (small_list small_string))
      (fun (xs, ys) ->
        if xs = ys then Hashing.combine xs = Hashing.combine ys
        else Hashing.combine xs <> Hashing.combine ys);
    Test.make ~name:"online mean within min..max" ~count:200
      (list_of_size (Gen.int_range 1 60) (float_bound_inclusive 500.))
      (fun xs ->
        let online = Stats.Online.create () in
        List.iter (Stats.Online.add online) xs;
        let m = Stats.Online.mean online in
        m >= Stats.Online.min online -. 1e-9 && m <= Stats.Online.max online +. 1e-9);
  ]

let () =
  Alcotest.run "pdht_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy independent" `Quick test_rng_copy_independent;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects nonpositive" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "int_in_range" `Quick test_rng_int_in_range;
          Alcotest.test_case "derive_seed deterministic" `Quick test_rng_derive_seed_deterministic;
          Alcotest.test_case "derive_seed separates streams" `Quick test_rng_derive_seed_separates_streams;
          Alcotest.test_case "unit_float range" `Quick test_rng_unit_float_range;
          Alcotest.test_case "uniformity" `Quick test_rng_uniformity;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli mean" `Quick test_rng_bernoulli_mean;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "geometric" `Quick test_rng_geometric;
          Alcotest.test_case "known answers" `Quick test_rng_known_answers;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "shuffle shuffles" `Quick test_shuffle_actually_shuffles;
          Alcotest.test_case "choose singleton" `Quick test_choose_singleton;
          Alcotest.test_case "choose empty raises" `Quick test_choose_empty_raises;
          Alcotest.test_case "swr distinct" `Quick test_sample_without_replacement_distinct;
          Alcotest.test_case "swr full population" `Quick test_sample_without_replacement_full;
          Alcotest.test_case "reservoir short input" `Quick test_reservoir_short_input;
          Alcotest.test_case "reservoir size" `Quick test_reservoir_size;
          Alcotest.test_case "weighted index" `Quick test_weighted_index;
          Alcotest.test_case "alias matches weights" `Quick test_alias_matches_weights;
          Alcotest.test_case "alias rejects bad weights" `Quick test_alias_rejects_bad_weights;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance" `Quick test_mean_variance;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "harmonic numbers" `Quick test_harmonic;
          Alcotest.test_case "online matches batch" `Quick test_online_matches_batch;
          Alcotest.test_case "online empty" `Quick test_online_empty;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram bad args" `Quick test_histogram_rejects_bad_args;
        ] );
      ( "bitkey",
        [
          Alcotest.test_case "roundtrip" `Quick test_bitkey_roundtrip;
          Alcotest.test_case "bit indexing" `Quick test_bitkey_bits;
          Alcotest.test_case "common prefix" `Quick test_bitkey_common_prefix;
          Alcotest.test_case "flip involutive" `Quick test_bitkey_flip_involutive;
          Alcotest.test_case "bits string roundtrip" `Quick test_bitkey_bits_string_roundtrip;
          Alcotest.test_case "of_bits prefix" `Quick test_bitkey_of_bits_prefix;
          Alcotest.test_case "prefix matching" `Quick test_bitkey_prefix_matching;
          Alcotest.test_case "xor distance" `Quick test_bitkey_xor_distance;
          Alcotest.test_case "random nonnegative" `Quick test_bitkey_random_nonnegative;
        ] );
      ( "hashing",
        [
          Alcotest.test_case "deterministic" `Quick test_hash_deterministic;
          Alcotest.test_case "combine unambiguous" `Quick test_combine_unambiguous;
          Alcotest.test_case "MSB spread" `Quick test_hash_spread;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row width check" `Quick test_table_row_width_check;
          Alcotest.test_case "float rows" `Quick test_table_float_rows;
          Alcotest.test_case "csv" `Quick test_table_csv;
        ] );
      ( "flags",
        [
          Alcotest.test_case "no conflict" `Quick test_flags_no_conflict;
          Alcotest.test_case "single conflict" `Quick test_flags_single_conflict;
          Alcotest.test_case "reports every conflict" `Quick
            test_flags_reports_every_conflict;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
