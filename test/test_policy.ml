(* Selection-policy tests: the spec grammar (exact round-trips plus
   qcheck properties), the per-key frequency estimator, the admission
   behaviour of the demand-driven selectors, and the Eq.-2 keyTtl
   controller behind [ttl:adaptive]. *)

module Sel = Pdht_policy.Selector
module Freq = Pdht_policy.Freq

let spec = Alcotest.testable (Fmt.of_to_string Sel.to_string) Sel.equal

let params =
  {
    Pdht_model.Params.num_peers = 500;
    keys = 1000;
    stor = 100;
    repl = 20;
    alpha = 1.0;
    f_qry = 0.001;
    f_upd = 0.;
    env = 1. /. 14.;
    dup = 1.8;
    dup2 = 1.8;
  }

(* --- grammar ------------------------------------------------------- *)

let test_grammar_round_trip () =
  List.iter
    (fun (s, expected) ->
      match Sel.of_string s with
      | Ok parsed ->
          Alcotest.check spec (Printf.sprintf "parse %S" s) expected parsed;
          Alcotest.(check string)
            (Printf.sprintf "print %S" s)
            (Sel.to_string expected) (Sel.to_string parsed)
      | Error msg -> Alcotest.failf "of_string %S: %s" s msg)
    [
      ("ttl", Sel.Ttl Sel.Model_derived);
      ("ttl:300", Sel.Ttl (Sel.Fixed 300.));
      ("ttl:0.5", Sel.Ttl (Sel.Fixed 0.5));
      ("ttl:adaptive", Sel.Ttl Sel.Adaptive);
      ("TTL:Adaptive", Sel.Ttl Sel.Adaptive);
      ("cost", Sel.Cost_optimal);
      ("learned", Sel.Learned);
      ("cache:500", Sel.Cache_budget 500);
      ("  cache:1 ", Sel.Cache_budget 1);
    ]

let test_grammar_rejects () =
  List.iter
    (fun s ->
      match Sel.of_string s with
      | Ok parsed -> Alcotest.failf "of_string %S accepted as %s" s (Sel.to_string parsed)
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S error mentions input" s)
            true
            (String.length msg > 0))
    [ ""; "ttl:"; "ttl:-5"; "ttl:0"; "ttl:nan"; "cache"; "cache:0"; "cache:-3";
      "cache:many"; "cost:5"; "learned:0.9"; "lru"; "ttl:adaptive:fast" ]

let spec_gen =
  QCheck.Gen.(
    oneof
      [
        return (Sel.Ttl Sel.Model_derived);
        return (Sel.Ttl Sel.Adaptive);
        map (fun ttl -> Sel.Ttl (Sel.Fixed ttl)) (map float_of_int (int_range 1 100000));
        return Sel.Cost_optimal;
        return Sel.Learned;
        map (fun b -> Sel.Cache_budget b) (int_range 1 100000);
      ])

let arbitrary_spec = QCheck.make ~print:Sel.to_string spec_gen

let prop_print_parse_round_trip =
  QCheck.Test.make ~name:"to_string |> of_string round-trips" ~count:500 arbitrary_spec
    (fun s ->
      match Sel.of_string (Sel.to_string s) with
      | Ok parsed -> Sel.equal s parsed
      | Error _ -> false)

let prop_parse_print_idempotent =
  QCheck.Test.make ~name:"of_string output reprints canonically" ~count:500 arbitrary_spec
    (fun s ->
      (* Any accepted string prints to a canonical form that parses to
         the same spec — parsing is idempotent through printing. *)
      match Sel.of_string (Sel.to_string s) with
      | Error _ -> false
      | Ok parsed -> (
          match Sel.of_string (Sel.to_string parsed) with
          | Ok again -> Sel.equal parsed again && Sel.to_string parsed = Sel.to_string again
          | Error _ -> false))

let prop_validate_accepts_generated =
  QCheck.Test.make ~name:"generated specs validate" ~count:200 arbitrary_spec (fun s ->
      match Sel.validate s with Ok v -> Sel.equal s v | Error _ -> false)

(* --- frequency estimator ------------------------------------------- *)

let test_freq_fold_and_rank () =
  let f = Freq.create ~keys:4 () in
  (* Window 1 (10s): key 0 queried 10 times, key 1 once. *)
  for _ = 1 to 10 do
    Freq.note f ~key_index:0
  done;
  Freq.note f ~key_index:1;
  Freq.fold f ~now:10.;
  Alcotest.(check (float 1e-9)) "seeded rate" 1.0 (Freq.rate f ~key_index:0);
  Alcotest.(check (float 1e-9)) "seeded rate key1" 0.1 (Freq.rate f ~key_index:1);
  Alcotest.(check (float 1e-9)) "cold key" 0. (Freq.rate f ~key_index:3);
  (let ranked = Freq.ranked f in
   if Array.length ranked < 2 then Alcotest.fail "ranked returned too few keys";
   Alcotest.(check int) "hottest first" 0 ranked.(0);
   Alcotest.(check int) "second" 1 ranked.(1));
  (* Window 2 (10s): key 0 silent — EMA halves toward 0 at default
     smoothing 0.5; key 2 bursts. *)
  for _ = 1 to 20 do
    Freq.note f ~key_index:2
  done;
  Freq.fold f ~now:20.;
  Alcotest.(check (float 1e-9)) "decayed" 0.5 (Freq.rate f ~key_index:0);
  (* Only the estimator's first fold seeds directly; a key first seen
     later climbs through the EMA: 0.5*0 + 0.5*2.0. *)
  Alcotest.(check (float 1e-9)) "burst climbs via EMA" 1.0 (Freq.rate f ~key_index:2);
  Alcotest.(check int) "two folds" 2 (Freq.folds f)

let test_freq_live_rate () =
  let f = Freq.create ~keys:2 () in
  for _ = 1 to 10 do
    Freq.note f ~key_index:0
  done;
  Freq.fold f ~now:10.;
  (* Open window: key 1 suddenly hot; live_rate sees it before any fold. *)
  for _ = 1 to 30 do
    Freq.note f ~key_index:1
  done;
  Alcotest.(check bool) "live beats stale EMA" true
    (Freq.live_rate f ~now:15. ~key_index:1 > Freq.rate f ~key_index:1);
  Alcotest.(check (float 1e-9)) "live is count/elapsed" 6.0
    (Freq.live_rate f ~now:15. ~key_index:1)

(* --- selectors ----------------------------------------------------- *)

let feed_queries sel ~now ~key_index ~n =
  for _ = 1 to n do
    Sel.observe sel ~now ~key_index
      (Sel.Queried { hit = false; broadcast_messages = 0; index_messages = 0 })
  done

let test_cost_optimal_thresholds () =
  let packed = Sel.instantiate Sel.Cost_optimal ~params ~base_ttl:600. ~retune_every:300. in
  (* Before any retune the selector is permissive (no fit yet). *)
  Alcotest.(check bool) "warm-up admits" true (Sel.admit packed ~now:10. ~key_index:42);
  (* Hot key: far above any plausible fMin; cold key: never queried. *)
  feed_queries packed ~now:100. ~key_index:0 ~n:2000;
  feed_queries packed ~now:100. ~key_index:1 ~n:1;
  Sel.retune packed ~now:300.;
  let s = Sel.summary packed in
  Alcotest.(check bool) "threshold fitted" true (s.Sel.threshold > 0.);
  Alcotest.(check bool) "hot admitted" true (Sel.admit packed ~now:310. ~key_index:0);
  Alcotest.(check bool) "cold rejected" false (Sel.admit packed ~now:310. ~key_index:5);
  Alcotest.(check bool) "hot lease longer than cold" true
    (Sel.ttl_for packed ~now:310. ~key_index:0 > Sel.ttl_for packed ~now:310. ~key_index:5)

let test_learned_coverage () =
  let packed = Sel.instantiate Sel.Learned ~params ~base_ttl:600. ~retune_every:300. in
  (* 90% of the mass on key 0; key 2 carries ~1%. *)
  feed_queries packed ~now:100. ~key_index:0 ~n:900;
  feed_queries packed ~now:100. ~key_index:1 ~n:90;
  feed_queries packed ~now:100. ~key_index:2 ~n:10;
  Sel.retune packed ~now:300.;
  let s = Sel.summary packed in
  Alcotest.(check bool) "placement is a strict subset" true
    (s.Sel.target_keys >= 1 && s.Sel.target_keys < params.Pdht_model.Params.keys);
  Alcotest.(check bool) "head admitted" true (Sel.admit packed ~now:310. ~key_index:0);
  Alcotest.(check bool) "tail rejected" false (Sel.admit packed ~now:310. ~key_index:2)

let test_cache_budget_respects_budget () =
  let packed =
    Sel.instantiate (Sel.Cache_budget 2) ~params ~base_ttl:600. ~retune_every:300.
  in
  List.iter
    (fun (k, n) -> feed_queries packed ~now:100. ~key_index:k ~n)
    [ (0, 500); (1, 400); (2, 300); (3, 200) ];
  Sel.retune packed ~now:300.;
  let s = Sel.summary packed in
  Alcotest.(check int) "placement capped at budget" 2 s.Sel.target_keys;
  Alcotest.(check bool) "top-1 in" true (Sel.admit packed ~now:310. ~key_index:0);
  Alcotest.(check bool) "top-2 in" true (Sel.admit packed ~now:310. ~key_index:1);
  Alcotest.(check bool) "rank-3 out" false (Sel.admit packed ~now:310. ~key_index:2);
  Alcotest.(check bool) "rank-4 out" false (Sel.admit packed ~now:310. ~key_index:3)

let test_ttl_selector_is_transparent () =
  let packed =
    Sel.instantiate (Sel.Ttl Sel.Adaptive) ~params ~base_ttl:600. ~retune_every:300.
  in
  Alcotest.(check bool) "installs a selector" true (Sel.uses_selector (Sel.Ttl Sel.Adaptive));
  Alcotest.(check bool) "static ttl installs none" false
    (Sel.uses_selector (Sel.Ttl (Sel.Fixed 30.)));
  Alcotest.(check bool) "always admits" true (Sel.admit packed ~now:5. ~key_index:9);
  Alcotest.(check (float 1e-9)) "starts at base ttl" 600.
    (Sel.ttl_for packed ~now:5. ~key_index:9);
  Sel.observe packed ~now:6. ~key_index:9
    (Sel.Queried { hit = false; broadcast_messages = 80; index_messages = 3 });
  Sel.retune packed ~now:300.;
  (* Without probes the index looks empty: the controller cannot fit. *)
  Alcotest.(check (float 1e-9)) "no probes, no refit" 600.
    (Sel.ttl_for packed ~now:301. ~key_index:3);
  let s = Sel.summary packed in
  Alcotest.(check string) "label" "ttl:adaptive" s.Sel.policy;
  Alcotest.(check int) "unbounded target" (-1) s.Sel.target_keys;
  Alcotest.(check int) "retunes" 1 s.Sel.retunes

let test_instantiate_validates () =
  Alcotest.check_raises "bad base_ttl"
    (Invalid_argument "Selector.instantiate: base_ttl must be finite and positive")
    (fun () ->
      ignore (Sel.instantiate Sel.Cost_optimal ~params ~base_ttl:0. ~retune_every:300.));
  Alcotest.check_raises "bad retune_every"
    (Invalid_argument "Selector.instantiate: retune_every must be positive") (fun () ->
      ignore (Sel.instantiate Sel.Cost_optimal ~params ~base_ttl:600. ~retune_every:0.));
  Alcotest.check_raises "bad spec"
    (Invalid_argument "Selector.instantiate: cache budget 0 must be >= 1") (fun () ->
      ignore (Sel.instantiate (Sel.Cache_budget 0) ~params ~base_ttl:600. ~retune_every:300.));
  Alcotest.check_raises "static ttl"
    (Invalid_argument "Selector.instantiate: a static TTL installs no selector") (fun () ->
      ignore
        (Sel.instantiate (Sel.Ttl Sel.Model_derived) ~params ~base_ttl:600.
           ~retune_every:300.))

let test_summary_counters () =
  let packed = Sel.instantiate Sel.Learned ~params ~base_ttl:600. ~retune_every:300. in
  feed_queries packed ~now:50. ~key_index:0 ~n:7;
  Sel.observe packed ~now:50. ~key_index:0 Sel.Inserted;
  Sel.observe packed ~now:50. ~key_index:1 Sel.Rejected;
  Sel.retune packed ~now:300.;
  Sel.retune packed ~now:600.;
  let s = Sel.summary packed in
  Alcotest.(check string) "label" "learned" s.Sel.policy;
  Alcotest.(check int) "observed" 7 s.Sel.observed_queries;
  Alcotest.(check int) "admitted" 1 s.Sel.admitted_inserts;
  Alcotest.(check int) "rejected" 1 s.Sel.rejected_inserts;
  Alcotest.(check int) "retunes" 2 s.Sel.retunes

(* --- adaptive TTL (Section 5.1.1) --------------------------------- *)

(* The controller reads maintenance traffic and the index size off the
   running system; these refs stand in for it. *)
let adaptive_with ~maintenance ~indexed =
  let probes =
    {
      Sel.maintenance_messages = (fun () -> !maintenance);
      indexed_keys = (fun ~now:_ -> !indexed);
    }
  in
  let spec = Sel.Ttl Sel.Adaptive in
  Sel.instantiate ~probes spec ~params ~base_ttl:600.
    ~retune_every:(Sel.retune_period spec ~sample_every:10.)

(* [n] misses (an 80-message broadcast after a 3-message index search)
   and [n] hits (the index search alone): cSUnstr = 80, cSIndx2 = 3. *)
let feed_traffic sel ~now ~n =
  for k = 0 to n - 1 do
    Sel.observe sel ~now ~key_index:k
      (Sel.Queried { hit = false; broadcast_messages = 80; index_messages = 3 });
    Sel.observe sel ~now ~key_index:k
      (Sel.Queried { hit = true; broadcast_messages = 0; index_messages = 3 })
  done

let ttl sel = Sel.ttl_for sel ~now:0. ~key_index:0

let test_adaptive_needs_data () =
  let sel = adaptive_with ~maintenance:(ref 500) ~indexed:(ref 31) in
  Sel.retune sel ~now:10.;
  Alcotest.(check (float 1e-9)) "no data, no tune" 600. (ttl sel);
  (* Broadcasts alone leave cSIndx2 undefined. *)
  Sel.observe sel ~now:12. ~key_index:1
    (Sel.Queried { hit = false; broadcast_messages = 80; index_messages = 0 });
  Sel.retune sel ~now:20.;
  Alcotest.(check (float 1e-9)) "one cost alone, no tune" 600. (ttl sel)

let test_adaptive_produces_estimate () =
  let maintenance = ref 500 and indexed = ref 31 in
  let sel = adaptive_with ~maintenance ~indexed in
  feed_traffic sel ~now:50. ~n:31;
  Sel.retune sel ~now:100.;
  (* cIndKey = 500 / 100 s / 31 keys; fMin = cIndKey / (80 - 3);
     keyTtl = 1 / fMin = 77 * 31 * 100 / 500. *)
  let first = 77. *. 31. *. 100. /. 500. in
  Alcotest.(check (float 1e-9)) "Eq. 2 fit" first (ttl sel);
  Alcotest.(check (float 1e-9)) "one ttl for every key" first
    (Sel.ttl_for sel ~now:101. ~key_index:999);
  (* The next window doubles the index at the same maintenance rate:
     the raw fit doubles and the 0.3 EMA moves part of the way. *)
  maintenance := 1000;
  indexed := 62;
  feed_traffic sel ~now:150. ~n:31;
  Sel.retune sel ~now:200.;
  Alcotest.(check (float 1e-9)) "smoothed"
    ((0.7 *. first) +. (0.3 *. (2. *. first)))
    (ttl sel)

let test_adaptive_retune_empty_window () =
  let sel = adaptive_with ~maintenance:(ref 500) ~indexed:(ref 31) in
  feed_traffic sel ~now:50. ~n:31;
  Sel.retune sel ~now:100.;
  let before = ttl sel in
  Alcotest.(check bool) "primed retune fits" true (before <> 600.);
  (* The retune reset the observation window: with nothing new observed
     the next retune must decline rather than divide by an empty
     window, and the previous estimate must survive. *)
  Sel.retune sel ~now:200.;
  Alcotest.(check (float 1e-9)) "estimate survives" before (ttl sel);
  Alcotest.(check int) "both retunes counted" 2 (Sel.summary sel).Sel.retunes

let test_adaptive_retune_no_index () =
  (* Costs observed, but the index is empty: cIndKey per indexed key is
     undefined, so no tune. *)
  let sel = adaptive_with ~maintenance:(ref 500) ~indexed:(ref 0) in
  feed_traffic sel ~now:50. ~n:31;
  Sel.retune sel ~now:100.;
  Alcotest.(check (float 1e-9)) "no indexed keys, no tune" 600. (ttl sel)

let test_adaptive_retune_clamps_to_max () =
  (* No maintenance traffic: fMin = 0 and 1/fMin is unbounded; only the
     clamp keeps the lease finite. *)
  let sel = adaptive_with ~maintenance:(ref 0) ~indexed:(ref 31) in
  feed_traffic sel ~now:50. ~n:31;
  Sel.retune sel ~now:100.;
  Alcotest.(check (float 0.)) "clamped to 1e7" 1e7 (ttl sel);
  (* And a maintenance storm drives the fit below the one-second floor. *)
  let storm = adaptive_with ~maintenance:(ref 100_000_000) ~indexed:(ref 1) in
  feed_traffic storm ~now:50. ~n:31;
  Sel.retune storm ~now:100.;
  Alcotest.(check (float 0.)) "clamped to 1" 1. (ttl storm)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_print_parse_round_trip; prop_parse_print_idempotent;
      prop_validate_accepts_generated ]

let () =
  Alcotest.run "pdht_policy"
    [
      ( "grammar",
        [
          Alcotest.test_case "round trips" `Quick test_grammar_round_trip;
          Alcotest.test_case "rejects junk" `Quick test_grammar_rejects;
        ]
        @ qsuite );
      ( "freq",
        [
          Alcotest.test_case "fold and rank" `Quick test_freq_fold_and_rank;
          Alcotest.test_case "live rate" `Quick test_freq_live_rate;
        ] );
      ( "selectors",
        [
          Alcotest.test_case "cost-optimal thresholds" `Quick test_cost_optimal_thresholds;
          Alcotest.test_case "learned coverage" `Quick test_learned_coverage;
          Alcotest.test_case "cache budget" `Quick test_cache_budget_respects_budget;
          Alcotest.test_case "ttl transparent" `Quick test_ttl_selector_is_transparent;
          Alcotest.test_case "instantiate validates" `Quick test_instantiate_validates;
          Alcotest.test_case "summary counters" `Quick test_summary_counters;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "needs data" `Quick test_adaptive_needs_data;
          Alcotest.test_case "produces estimate" `Quick test_adaptive_produces_estimate;
          Alcotest.test_case "empty window declines" `Quick test_adaptive_retune_empty_window;
          Alcotest.test_case "no index declines" `Quick test_adaptive_retune_no_index;
          Alcotest.test_case "clamps to max" `Quick test_adaptive_retune_clamps_to_max;
        ] );
    ]
