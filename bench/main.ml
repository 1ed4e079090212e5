(* Benchmark / experiment harness.

   Regenerates every table and figure of the paper's evaluation plus the
   extension experiments indexed in DESIGN.md:

     table1           Table 1  parameters + derived model quantities
     fig1             Fig. 1   total msg/s per strategy vs query frequency
     fig2             Fig. 2   savings of ideal partial indexing
     fig3             Fig. 3   index size and pIndxd vs query frequency
     fig4             Fig. 4   savings of the TTL selection algorithm
     ttl_sensitivity  S 5.1.1  keyTtl estimation-error sensitivity
     sim_vs_model     E7       event-driven simulation vs Eq. 11/12/17
     sim_adaptivity   E6       hit-rate recovery across a popularity shift
     ablation         E8       flooding vs random walks; Chord vs P-Grid
     ttl_tuning       ext      fixed keyTtl grid vs the adaptive controller
     micro            -        Bechamel micro-benchmarks of the hot paths
     scale            ext      decade sweep 10^3..10^6 peers (bytes/peer,
                               events/s, hops vs log N); cap the largest
                               decade with --scale-max N

   Usage: main.exe [section ...] [-j N] [--scale-max N]
   (no sections = everything)

   -j/--jobs N runs each experiment's independent simulations on N
   domains (default: recommended_domain_count - 1).  Output is
   byte-identical for every N. *)

module Params = Pdht_model.Params
module Sweep = Pdht_model.Sweep
module Strategies = Pdht_model.Strategies
module Index_policy = Pdht_model.Index_policy
module Ttl_analysis = Pdht_model.Ttl_analysis
module Table = Pdht_util.Table
module Scenario = Pdht_work.Scenario
module System = Pdht_core.System
module Experiment = Pdht_core.Experiment
module Strategy = Pdht_core.Strategy
module Psel = Pdht_policy.Selector

let heading title note =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  if note <> "" then Printf.printf "%s\n" note;
  Printf.printf "================================================================\n"

let freq_label f = Printf.sprintf "1/%.0f" (1. /. f)

(* ------------------------------------------------------------------ *)
(* Analytic sections (paper scale: Table 1 parameters) *)

let section_table1 () =
  heading "Table 1 - parameters of the sample scenario"
    "(paper Section 4; the model sections below all use these values)";
  let t = Table.create ~columns:[ ("Description", Table.Left); ("Param.", Table.Left);
                                  ("Value", Table.Left) ] in
  List.iter (fun (d, s, v) -> Table.add_row t [ d; s; v ]) (Params.to_rows Params.default);
  Table.print t;
  let s = Index_policy.solve Params.default in
  Printf.printf
    "\nDerived at fQry = 1/30: cSUnstr = %.1f msg, cSIndx = %.2f msg,\n\
     cIndKey = %.4f msg/s, fMin = %.6f, maxRank = %d, numActivePeers = %d,\n\
     keyTtl = 1/fMin = %.0f s\n"
    s.Index_policy.c_s_unstr s.Index_policy.c_s_indx s.Index_policy.c_ind_key
    s.Index_policy.f_min s.Index_policy.max_rank s.Index_policy.num_active_peers
    (Strategies.default_key_ttl s)

let sweep_points () = Sweep.default_run Params.default

let section_fig1 () =
  heading "Fig. 1 - query frequency vs total sent messages per second"
    "(paper: indexAll flat ~20-25k; noIndex linear in fQry; partial below both)";
  let t =
    Table.create
      ~columns:
        [ ("fQry [1/s]", Table.Left); ("indexAll [msg/s]", Table.Right);
          ("noIndex [msg/s]", Table.Right); ("partial (ideal) [msg/s]", Table.Right) ]
  in
  List.iter
    (fun (p : Sweep.point) ->
      Table.add_row t
        [ freq_label p.Sweep.f_qry;
          Printf.sprintf "%.0f" p.Sweep.index_all;
          Printf.sprintf "%.0f" p.Sweep.no_index;
          Printf.sprintf "%.0f" p.Sweep.partial_ideal ])
    (sweep_points ());
  Table.print t

let section_fig2 () =
  heading "Fig. 2 - savings of ideal partial indexing"
    "(paper: vs indexAll rising toward 1 at low rates; vs noIndex ~0.95 falling)";
  let t =
    Table.create
      ~columns:
        [ ("fQry [1/s]", Table.Left); ("vs indexAll", Table.Right);
          ("vs noIndex", Table.Right) ]
  in
  List.iter
    (fun (p : Sweep.point) ->
      Table.add_row t
        [ freq_label p.Sweep.f_qry;
          Printf.sprintf "%.3f" p.Sweep.savings_ideal_vs_all;
          Printf.sprintf "%.3f" p.Sweep.savings_ideal_vs_none ])
    (sweep_points ());
  Table.print t

let section_fig3 () =
  heading "Fig. 3 - index size and answerable fraction (ideal partial)"
    "(paper: both fall as queries get rarer; small index still answers most queries)";
  let t =
    Table.create
      ~columns:
        [ ("fQry [1/s]", Table.Left); ("index size (maxRank/keys)", Table.Right);
          ("pIndxd (Eq. 5)", Table.Right); ("maxRank", Table.Right) ]
  in
  List.iter
    (fun (p : Sweep.point) ->
      Table.add_row t
        [ freq_label p.Sweep.f_qry;
          Printf.sprintf "%.3f" p.Sweep.index_fraction;
          Printf.sprintf "%.3f" p.Sweep.p_indexed;
          string_of_int p.Sweep.max_rank ])
    (sweep_points ());
  Table.print t

let section_fig4 () =
  heading "Fig. 4 - savings with the TTL selection algorithm (Eq. 17)"
    "(paper: substantial savings except vs indexAll at very high query rates)";
  let t =
    Table.create
      ~columns:
        [ ("fQry [1/s]", Table.Left); ("vs indexAll", Table.Right);
          ("vs noIndex", Table.Right); ("keyTtl [s]", Table.Right);
          ("TTL index frac (Eq. 15)", Table.Right); ("pIndxd (Eq. 14)", Table.Right) ]
  in
  List.iter
    (fun (p : Sweep.point) ->
      Table.add_row t
        [ freq_label p.Sweep.f_qry;
          Printf.sprintf "%.3f" p.Sweep.savings_selection_vs_all;
          Printf.sprintf "%.3f" p.Sweep.savings_selection_vs_none;
          Printf.sprintf "%.0f" p.Sweep.key_ttl;
          Printf.sprintf "%.3f" p.Sweep.ttl_index_fraction;
          Printf.sprintf "%.3f" p.Sweep.p_indexed_ttl ])
    (sweep_points ());
  Table.print t

let section_ttl_sensitivity () =
  heading "Section 5.1.1 - sensitivity to keyTtl estimation error"
    "(paper claim: +-50% mis-estimation decreases savings only slightly)";
  let table_at f_qry =
    Printf.printf "\nat fQry = %s:\n" (freq_label f_qry);
    let params = Params.with_query_frequency Params.default f_qry in
    let t =
      Table.create
        ~columns:
          [ ("TTL scale", Table.Right); ("keyTtl [s]", Table.Right);
            ("cost [msg/s]", Table.Right); ("savings vs indexAll", Table.Right);
            ("savings vs noIndex", Table.Right); ("savings drop", Table.Right) ]
    in
    List.iter
      (fun (r : Ttl_analysis.row) ->
        Table.add_row t
          [ Printf.sprintf "%.2f" r.Ttl_analysis.scale;
            Printf.sprintf "%.0f" r.Ttl_analysis.key_ttl;
            Printf.sprintf "%.0f" r.Ttl_analysis.total_cost;
            Printf.sprintf "%.3f" r.Ttl_analysis.savings_vs_all;
            Printf.sprintf "%.3f" r.Ttl_analysis.savings_vs_none;
            Printf.sprintf "%+.4f" r.Ttl_analysis.savings_drop_vs_ideal_ttl ])
      (Ttl_analysis.run params ~scales:Ttl_analysis.default_scales);
    Table.print t
  in
  table_at (1. /. 30.);
  table_at (1. /. 600.)

(* ------------------------------------------------------------------ *)
(* Simulation sections (scaled deployment: the full 20,000-peer news
   system does not fit an interactive bench run, so population and key
   space are scaled by 1/10 with rates preserved; EXPERIMENTS.md tracks
   the scale factors). *)

let sim_scenario =
  {
    Scenario.news_default with
    Scenario.num_peers = 1_000;
    keys = 2_000;
    duration = 1_800.;
    seed = 2004;
  }

let sim_options = System.Options.make ~repl:20 ~stor:100 ()

(* Worker domains for the experiment batches (-j/--jobs).  Results are
   identical for any value; only wall-clock changes. *)
let jobs = ref (Pdht_core.Runner.default_jobs ())

let section_sim_vs_model () =
  heading "E7 - event-driven simulation vs analytical model (scaled 1/10)"
    "(shape check: who wins and by roughly what factor; absolute numbers differ\n\
     because the simulator measures its own dup factors and warm-up misses)";
  let frequencies = [ 1. /. 30.; 1. /. 120.; 1. /. 600.; 1. /. 3600. ] in
  let rows = Experiment.face_off ~jobs:!jobs ~options:sim_options ~scenario:sim_scenario ~frequencies () in
  let t =
    Table.create
      ~columns:
        [ ("fQry [1/s]", Table.Left);
          ("sim all", Table.Right); ("sim none", Table.Right); ("sim partial", Table.Right);
          ("model all", Table.Right); ("model none", Table.Right); ("model partial", Table.Right);
          ("sim hit rate", Table.Right); ("Eq.14 pIndxd", Table.Right) ]
  in
  List.iter
    (fun (r : Experiment.face_off_row) ->
      Table.add_row t
        [ freq_label r.Experiment.f_qry;
          Printf.sprintf "%.0f" r.Experiment.sim_index_all;
          Printf.sprintf "%.0f" r.Experiment.sim_no_index;
          Printf.sprintf "%.0f" r.Experiment.sim_partial;
          Printf.sprintf "%.0f" r.Experiment.model_index_all;
          Printf.sprintf "%.0f" r.Experiment.model_no_index;
          Printf.sprintf "%.0f" r.Experiment.model_partial;
          Printf.sprintf "%.3f" r.Experiment.sim_hit_rate;
          Printf.sprintf "%.3f" r.Experiment.model_p_indexed_ttl ])
    rows;
  Table.print t

let section_sim_adaptivity () =
  heading "E6 - adaptivity to a changing query distribution (Section 5.2 claim)"
    "(the popular half of the key space swaps with the unpopular half mid-run;\n\
     the partial index must dip and then re-learn the new hot set)";
  let scenario =
    {
      sim_scenario with
      Scenario.num_peers = 800;
      keys = 1_600;
      duration = 2_400.;
      shift = Scenario.Swap_halves_at 1_200.;
      seed = 2005;
    }
  in
  let r = Experiment.adaptivity ~jobs:!jobs ~options:sim_options ~scenario () in
  Printf.printf
    "shift at t=%.0fs: hit rate %.3f before -> dip %.3f -> %.3f at end; recovery %s\n\n"
    r.Experiment.shift_time r.Experiment.before_hit_rate r.Experiment.dip_hit_rate
    r.Experiment.after_hit_rate
    (match r.Experiment.recovery_seconds with
    | Some s -> Printf.sprintf "within %.0f s" s
    | None -> "not reached in-run");
  let t =
    Table.create
      ~columns:
        [ ("t [s]", Table.Right); ("hit rate", Table.Right); ("indexed keys", Table.Right);
          ("msgs in bucket", Table.Right) ]
  in
  List.iter
    (fun (s : System.sample) ->
      (* Print one sample per 4 buckets to keep the table readable. *)
      if int_of_float s.System.time mod 240 = 0 then
        Table.add_row t
          [ Printf.sprintf "%.0f" s.System.time;
            Printf.sprintf "%.3f" s.System.hit_rate;
            string_of_int s.System.indexed_keys;
            string_of_int s.System.messages ])
    r.Experiment.series;
  Table.print t

let section_ablation () =
  heading "E8a - unstructured search mechanism (cSUnstr substrate)"
    "(paper assumes multiple random walks [LvCa02] because flooding is wasteful)";
  let rows = Experiment.search_ablation ~jobs:!jobs ~seed:7 ~peers:1_000 ~repl:50 ~trials:200 () in
  let t =
    Table.create
      ~columns:
        [ ("mechanism", Table.Left); ("mean msgs/search", Table.Right);
          ("success rate", Table.Right); ("empirical dup", Table.Right) ]
  in
  List.iter
    (fun (r : Experiment.search_ablation_row) ->
      Table.add_row t
        [ r.Experiment.mechanism;
          Printf.sprintf "%.1f" r.Experiment.mean_messages;
          Printf.sprintf "%.3f" r.Experiment.success_rate;
          (if Float.is_nan r.Experiment.empirical_dup then "-"
           else Printf.sprintf "%.2f" r.Experiment.empirical_dup) ])
    rows;
  Table.print t;
  Printf.printf "(model Eq. 6 for these parameters: %.0f msgs)\n"
    (Pdht_overlay.Unstructured_search.expected_cost_model ~peers:1_000 ~repl:50 ~dup:1.8);
  heading "E8b - structured substrates: Chord / P-Grid / Kademlia / Pastry lookups"
    "(all four track Eq. 7 = 1/2 log2 n up to their branching factors;\n\
     Kademlia spends more messages per hop on its alpha=3 parallel probes,\n\
     Pastry resolves 2 bits per hop with base-4 digits; 0% and 15% churn)";
  let t2 =
    Table.create
      ~columns:
        [ ("backend", Table.Left); ("churn", Table.Right); ("mean msgs", Table.Right);
          ("mean hops", Table.Right); ("Eq. 7", Table.Right); ("success", Table.Right) ]
  in
  List.iter
    (fun offline_fraction ->
      List.iter
        (fun (r : Experiment.backend_ablation_row) ->
          Table.add_row t2
            [ r.Experiment.backend;
              Printf.sprintf "%.0f%%" (100. *. offline_fraction);
              Printf.sprintf "%.2f" r.Experiment.mean_lookup_messages;
              Printf.sprintf "%.2f" r.Experiment.mean_hops;
              Printf.sprintf "%.2f" r.Experiment.model_expectation;
              Printf.sprintf "%.3f" r.Experiment.success_rate ])
        (Experiment.backend_ablation ~jobs:!jobs ~seed:8 ~members:1_024 ~trials:400 ~offline_fraction ()))
    [ 0.; 0.15 ];
  Table.print t2

let section_ttl_tuning () =
  heading "Extension - self-tuning keyTtl (paper Section 5.1.1 future work)"
    "(the adaptive controller estimates cSUnstr/cSIndx2/cRtn from live traffic)";
  let scenario = { sim_scenario with Scenario.num_peers = 600; keys = 1_200; seed = 2006 } in
  let rows =
    Experiment.ttl_tuning ~jobs:!jobs ~options:sim_options ~scenario
      ~fixed_ttls:[ 30.; 120.; 600.; 3_000. ] ()
  in
  let t =
    Table.create
      ~columns:
        [ ("configuration", Table.Left); ("final keyTtl [s]", Table.Right);
          ("msg/s", Table.Right); ("hit rate", Table.Right) ]
  in
  List.iter
    (fun (r : Experiment.ttl_tuning_row) ->
      Table.add_row t
        [ r.Experiment.label;
          Printf.sprintf "%.0f" r.Experiment.key_ttl_final;
          Printf.sprintf "%.1f" r.Experiment.messages_per_second;
          Printf.sprintf "%.3f" r.Experiment.hit_rate ])
    rows;
  Table.print t

let section_backends_e2e () =
  heading "E19 - the whole PDHT on every structured substrate"
    "(the paper: 'our proposal is generic enough such that it can be used for\n\
     any of the DHT based systems' — the full selection algorithm end-to-end\n\
     on Chord, P-Grid, Kademlia and Pastry with identical workloads)";
  let scenario = { sim_scenario with Scenario.num_peers = 500; keys = 1_000; seed = 2019 } in
  let rows = Experiment.backend_face_off ~jobs:!jobs ~options:sim_options ~scenario () in
  let t =
    Table.create
      ~columns:
        [ ("backend", Table.Left); ("hit rate", Table.Right); ("msg/s", Table.Right);
          ("answer rate", Table.Right); ("routing msgs", Table.Right);
          ("replica-flood msgs", Table.Right) ]
  in
  List.iter
    (fun (r : Experiment.backend_system_row) ->
      Table.add_row t
        [ r.Experiment.backend_name;
          Printf.sprintf "%.3f" r.Experiment.hit_rate;
          Printf.sprintf "%.1f" r.Experiment.messages_per_second;
          Printf.sprintf "%.3f" r.Experiment.answer_rate;
          string_of_int r.Experiment.index_messages;
          string_of_int r.Experiment.replica_flood_messages ])
    rows;
  Table.print t;
  Printf.printf
    "(backends trade routing hops against replica-group shape: Chord pays in\n\
     routing, P-Grid in subnet floods — nearly identical totals, opposite mix)\n"

let section_churn () =
  heading "E12 - selection algorithm under churn"
    "(the paper's premise: P2P clients are extremely transient [ChRa03];\n\
     partial run at decreasing stationary availability, 10-min mean sessions)";
  let scenario = { sim_scenario with Scenario.num_peers = 600; keys = 1_200; seed = 2007 } in
  let rows =
    Experiment.churn_sensitivity ~jobs:!jobs ~options:sim_options ~scenario
      ~availabilities:[ 1.0; 0.9; 0.75; 0.5 ] ()
  in
  let t =
    Table.create
      ~columns:
        [ ("availability", Table.Right); ("hit rate", Table.Right);
          ("answer rate", Table.Right); ("msg/s", Table.Right);
          ("indexed keys", Table.Right) ]
  in
  List.iter
    (fun (r : Experiment.churn_row) ->
      Table.add_row t
        [ Printf.sprintf "%.2f" r.Experiment.availability;
          Printf.sprintf "%.3f" r.Experiment.hit_rate;
          Printf.sprintf "%.3f" r.Experiment.answer_rate;
          Printf.sprintf "%.1f" r.Experiment.messages_per_second;
          string_of_int r.Experiment.indexed_keys ])
    rows;
  Table.print t

let section_workloads () =
  heading "E13 - index response to workload shape"
    "(skew is what makes partial indexing pay: flatter query distributions\n\
     index more keys for a lower hit rate)";
  let scenario = { sim_scenario with Scenario.num_peers = 600; keys = 1_200; seed = 2008 } in
  let rows = Experiment.workload_mix ~jobs:!jobs ~options:sim_options ~scenario () in
  let t =
    Table.create
      ~columns:
        [ ("workload", Table.Left); ("hit rate", Table.Right); ("msg/s", Table.Right);
          ("indexed fraction", Table.Right) ]
  in
  List.iter
    (fun (r : Experiment.workload_row) ->
      Table.add_row t
        [ r.Experiment.workload;
          Printf.sprintf "%.3f" r.Experiment.hit_rate;
          Printf.sprintf "%.1f" r.Experiment.messages_per_second;
          Printf.sprintf "%.3f" r.Experiment.indexed_fraction ])
    rows;
  Table.print t

let section_seeds () =
  heading "Seed replication - statistical confidence of the headline numbers"
    "(the partial strategy re-run over five independent seeds)";
  let scenario = { sim_scenario with Scenario.num_peers = 600; keys = 1_200 } in
  let options = sim_options in
  let key_ttl = System.derive_key_ttl scenario options in
  let stats =
    Experiment.replicate_seeds ~jobs:!jobs ~options ~scenario
      ~strategy:(Strategy.Partial_index { key_ttl })
      ~seeds:[ 1; 2; 3; 4; 5 ] ()
  in
  Printf.printf "%d runs: %.1f +- %.1f msg/s, hit rate %.3f +- %.3f\n"
    stats.Experiment.runs stats.Experiment.mean_messages_per_second
    stats.Experiment.sd_messages_per_second stats.Experiment.mean_hit_rate
    stats.Experiment.sd_hit_rate

let section_fullscale () =
  heading "E18 - full-scale spot check: the actual Table-1 deployment"
    "(20,000 peers, 40,000 keys, repl 50, fQry 1/30 — every message simulated;\n\
     120 simulated seconds, so the TTL index is still warming up toward Eq. 14's\n\
     steady state; compare the measured msg/s with Eq. 17's prediction)";
  let scenario =
    {
      Scenario.news_default with
      Scenario.num_peers = 20_000;
      keys = 40_000;
      f_qry = 1. /. 30.;
      duration = 120.;
      seed = 2018;
    }
  in
  let options = System.Options.make ~repl:50 ~stor:100 () in
  let key_ttl = System.derive_key_ttl scenario options in
  let report = System.run scenario (Strategy.Partial_index { key_ttl }) options in
  let params = Params.default in
  let model = (Strategies.partial_selection params ~key_ttl).Strategies.total in
  Printf.printf
    "%d queries in %.0f s over %d DHT members (keyTtl = %.0f s)\n\
     measured: %.0f msg/s, hit rate %.3f (Eq. 14 steady state: %.3f)\n\
     model Eq. 17 at these parameters: %.0f msg/s\n\
     per-query cost p50/p95/p99: %.0f / %.0f / %.0f msgs\n"
    report.System.queries scenario.Scenario.duration report.System.active_members key_ttl
    report.System.messages_per_second report.System.hit_rate
    (Strategies.ttl_state params ~key_ttl).Strategies.p_indexed_ttl model
    report.System.query_cost_p50 report.System.query_cost_p95 report.System.query_cost_p99

let section_bootstrap () =
  heading "E16 - P-Grid self-organizing bootstrap ([Aber01])"
    "(the paper's platform builds its trie by random pairwise exchanges with no\n\
     coordination; mean path length should converge to ~log2 n = 9 for n = 512)";
  let rng = Pdht_util.Rng.create ~seed:16 in
  let boot = Pdht_dht.Pgrid_bootstrap.create ~members:512 () in
  let t =
    Table.create
      ~columns:
        [ ("meetings", Table.Right); ("mean depth", Table.Right);
          ("depth range", Table.Right); ("distinct paths", Table.Right);
          ("refs/peer", Table.Right); ("lookup success", Table.Right) ]
  in
  let total = ref 0 in
  List.iter
    (fun meetings ->
      Pdht_dht.Pgrid_bootstrap.run_exchanges boot rng ~meetings;
      total := !total + meetings;
      let s = Pdht_dht.Pgrid_bootstrap.stats boot in
      let rate = Pdht_dht.Pgrid_bootstrap.lookup_success_rate boot rng ~trials:300 in
      Table.add_row t
        [ string_of_int !total;
          Printf.sprintf "%.2f" s.Pdht_dht.Pgrid_bootstrap.mean_path_length;
          Printf.sprintf "[%d,%d]" s.Pdht_dht.Pgrid_bootstrap.min_path_length
            s.Pdht_dht.Pgrid_bootstrap.max_path_length;
          string_of_int s.Pdht_dht.Pgrid_bootstrap.distinct_paths;
          Printf.sprintf "%.1f" s.Pdht_dht.Pgrid_bootstrap.mean_refs;
          Printf.sprintf "%.3f" rate ])
    [ 256; 256; 512; 1024; 2048; 4096 ];
  Table.print t

let section_membership () =
  heading "E17 - Chord membership dynamics (joins, crashes, stabilization)"
    "(the substrate behind 'peers continuously join and leave': grow a ring\n\
     node by node, crash a quarter of it, and watch stabilization heal it;\n\
     'correct' = lookup answer matches the ideal owner under perfect pointers)";
  let module CD = Pdht_dht.Chord_dynamic in
  let rng = Pdht_util.Rng.create ~seed:17 in
  let t = CD.create rng ~capacity:400 () in
  let first = CD.bootstrap t in
  let members = ref [ first ] in
  let join_messages = ref 0 in
  let stabilize_messages = ref 0 in
  while CD.node_count t < 256 do
    let alive = List.filter (CD.is_member t) !members in
    let via = List.nth alive (Pdht_util.Rng.int rng (List.length alive)) in
    (match CD.join t ~via with
    | Ok (node, msgs) ->
        members := node :: !members;
        join_messages := !join_messages + msgs
    | Error _ -> ());
    stabilize_messages := !stabilize_messages + CD.stabilize t rng
  done;
  for _ = 1 to 15 do
    stabilize_messages := !stabilize_messages + CD.stabilize t rng
  done;
  let correct trials =
    let alive = List.filter (CD.is_member t) !members in
    let ok = ref 0 in
    for _ = 1 to trials do
      let key = Pdht_util.Bitkey.random rng in
      let src = List.nth alive (Pdht_util.Rng.int rng (List.length alive)) in
      let o = CD.lookup t ~source:src ~key in
      if o.CD.responsible = CD.ideal_responsible t key then incr ok
    done;
    float_of_int !ok /. float_of_int trials
  in
  Printf.printf
    "grown to %d nodes: ring consistent = %b, lookup correctness %.3f\n\
     (join cost %.1f msg/join, stabilization %.1f msg/node/round)\n"
    (CD.node_count t) (CD.ring_consistent t) (correct 300)
    (float_of_int !join_messages /. 255.)
    (float_of_int !stabilize_messages /. (255. +. 15.) /. 256.);
  let alive = List.filter (CD.is_member t) !members in
  List.iteri (fun i m -> if i mod 4 = 0 then CD.crash t ~node:m) alive;
  Printf.printf "crashed 25%% (-> %d nodes): consistent = %b\n" (CD.node_count t)
    (CD.ring_consistent t);
  let rounds = ref 0 in
  while (not (CD.ring_consistent t)) && !rounds < 60 do
    incr rounds;
    ignore (CD.stabilize t rng)
  done;
  Printf.printf
    "stabilization healed the ring in %d rounds; lookup correctness %.3f\n" !rounds
    (correct 300)

let section_diurnal () =
  heading "E15 - adaptation to changing query frequency (busy/calm day)"
    "(paper Section 4: per-peer rates swing between 1/30 and much calmer;\n\
     with TTL eviction the index must breathe with the load — the time-domain\n\
     analogue of Fig. 3's frequency axis)";
  let scenario =
    {
      sim_scenario with
      Scenario.num_peers = 600;
      keys = 1_200;
      duration = 4_800.;
      seed = 2010;
    }
  in
  let r =
    Experiment.diurnal ~jobs:!jobs ~options:sim_options ~scenario ~calm_f_qry:(1. /. 600.)
      ~period:1_600. ()
  in
  Printf.printf
    "busy phases: %.0f keys indexed on average (hit rate %.3f)\n\
     calm phases: %.0f keys indexed on average (hit rate %.3f)\n\n"
    r.Experiment.busy_indexed_mean r.Experiment.busy_hit_rate
    r.Experiment.calm_indexed_mean r.Experiment.calm_hit_rate;
  let t =
    Table.create
      ~columns:
        [ ("t [s]", Table.Right); ("phase", Table.Left); ("indexed", Table.Right);
          ("hit rate", Table.Right) ]
  in
  List.iter
    (fun (s : System.sample) ->
      if int_of_float s.System.time mod 240 = 0 then
        Table.add_row t
          [ Printf.sprintf "%.0f" s.System.time;
            (if Float.rem s.System.time 1_600. /. 1_600. < 0.5 then "busy" else "calm");
            string_of_int s.System.indexed_keys;
            Printf.sprintf "%.3f" s.System.hit_rate ])
    r.Experiment.series;
  Table.print t

let section_eviction () =
  heading "E14 - cache-eviction policy under pressure"
    "(per-peer cache starved to stor=20 with an under-provisioned DHT; with a\n\
     single global keyTtl, expiry = last-query + keyTtl, so evict-soonest-expiry\n\
     and LRU coincide exactly — random eviction is the one that pays)";
  let scenario = { sim_scenario with Scenario.num_peers = 600; keys = 1_200; seed = 2009 } in
  let rows = Experiment.eviction_ablation ~jobs:!jobs ~options:sim_options ~scenario ~stor:20 () in
  let t =
    Table.create
      ~columns:
        [ ("policy", Table.Left); ("hit rate", Table.Right); ("msg/s", Table.Right) ]
  in
  List.iter
    (fun (r : Experiment.eviction_row) ->
      Table.add_row t
        [ r.Experiment.policy;
          Printf.sprintf "%.3f" r.Experiment.hit_rate;
          Printf.sprintf "%.1f" r.Experiment.messages_per_second ])
    rows;
  Table.print t

let section_arity () =
  heading "Extension - k-ary key space (paper Section 3.2, footnote 3)"
    "(generalized Eq. 7/8: wider digits shorten lookups but grow the routing\n\
     tables the maintenance traffic must probe; arity 2 is the paper's model)";
  let t =
    Table.create
      ~columns:
        [ ("arity", Table.Right); ("cSIndx [msg]", Table.Right);
          ("table entries", Table.Right); ("cRtn [msg/key/s]", Table.Right);
          ("indexAll total [msg/s]", Table.Right) ]
  in
  List.iter
    (fun (p : Pdht_model.Kary.point) ->
      Table.add_row t
        [ string_of_int p.Pdht_model.Kary.arity;
          Printf.sprintf "%.2f" p.Pdht_model.Kary.c_s_indx;
          Printf.sprintf "%.1f" p.Pdht_model.Kary.table_entries;
          Printf.sprintf "%.3f" p.Pdht_model.Kary.c_rtn;
          Printf.sprintf "%.0f" p.Pdht_model.Kary.index_all_total ])
    (Pdht_model.Kary.sweep Params.default ~arities:[ 2; 4; 8; 16; 32 ]);
  Table.print t

let section_replication_planning () =
  heading "Extension - replication planning ([VaCh02], assumed by the paper)"
    "(pick the replication factor: availability floor from churn, then the\n\
     cost-minimising factor above it; Table-1 scenario, peers 50% available)";
  let t =
    Table.create
      ~columns:
        [ ("repl", Table.Right); ("item availability", Table.Right);
          ("cSUnstr [msg]", Table.Right); ("Eq.17 cost [msg/s]", Table.Right) ]
  in
  let repls = [ 7; 15; 25; 50; 100; 200 ] in
  let curve = Pdht_model.Replication_planner.cost_curve Params.default ~repls in
  List.iter2
    (fun repl (_, c_s_unstr, cost) ->
      Table.add_row t
        [ string_of_int repl;
          Printf.sprintf "%.4f"
            (Pdht_model.Replication_planner.item_availability ~peer_availability:0.5 ~repl);
          Printf.sprintf "%.0f" c_s_unstr;
          Printf.sprintf "%.0f" cost ])
    repls curve;
  Table.print t;
  let plan =
    Pdht_model.Replication_planner.plan Params.default ~peer_availability:0.5 ~target:0.99
      ~max_repl:200
  in
  Printf.printf
    "\nplanner: 99%% availability at 50%% peer uptime needs >= %d replicas;\n\
     cheapest factor in [floor, 200] is repl = %d (%.4f availability, %.0f msg/s)\n"
    plan.Pdht_model.Replication_planner.floor plan.Pdht_model.Replication_planner.repl
    plan.Pdht_model.Replication_planner.achieved_availability
    plan.Pdht_model.Replication_planner.partial_cost

(* Set members of the object in BENCH_pdht.json: parse the file,
   replace each member in place or append it, print it back.  Every
   other block survives, in order, so sections can be rerun alone in any
   order.  A missing or malformed file starts a fresh object. *)
let splice_members path members =
  let module Json = Pdht_obs.Json in
  let base =
    if Sys.file_exists path then (
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.of_string (String.trim s) with Ok v -> v | Error _ -> Json.Obj [])
    else Json.Obj []
  in
  let merged = List.fold_left (fun acc (key, v) -> Json.set_member key v acc) base members in
  let oc = open_out path in
  output_string oc (Json.to_string merged);
  output_char oc '\n';
  close_out oc

let splice_section_json path ~key json_value = splice_members path [ (key, json_value) ]

(* ------------------------------------------------------------------ *)
(* Perf run: instrumented simulation, exported as BENCH_pdht.json *)

let section_perf () =
  heading "Perf - instrumented partial-index run (writes BENCH_pdht.json)"
    "(wall-clock engine throughput, allocation counters, and runner scaling,\n\
     exported as JSON so runs can be compared across commits)";
  let module Json = Pdht_obs.Json in
  let scenario =
    {
      sim_scenario with
      Scenario.num_peers = 600;
      keys = 1_200;
      duration = 1_200.;
      seed = 2020;
    }
  in
  let options = sim_options in
  let key_ttl = System.derive_key_ttl scenario options in
  (* One discarded warm-up run, then best wall-clock of three measured
     runs.  The warm-up pays the process's one-off costs (page faults
     on fresh heap chunks, the GC growing its heaps to steady state);
     taking the minimum of the repeats filters scheduler noise, which
     on a small shared box swings single measurements by +-20%.  The
     run is deterministic, so every repeat produces the identical
     report — only the wall-clock varies, and the fastest repeat is
     the best estimate of what the code actually costs.  Each repeat
     gets its own observability context so [engine.events_processed]
     counts one run. *)
  let partial = Strategy.Partial_index { key_ttl } in
  let (_ : System.report) =
    System.run ~obs:(Pdht_obs.Context.create ()) scenario partial options
  in
  let measure () =
    let obs = Pdht_obs.Context.create () in
    let gc0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let report = System.run ~obs scenario partial options in
    let wall = Unix.gettimeofday () -. t0 in
    let gc1 = Gc.quick_stat () in
    (wall, gc0, gc1, obs, report)
  in
  let best = ref (measure ()) in
  for _ = 2 to 3 do
    let ((wall, _, _, _, _) as m) = measure () in
    let best_wall, _, _, _, _ = !best in
    if wall < best_wall then best := m
  done;
  let wall, gc0, gc1, obs, report = !best in
  let minor_words_run = gc1.Gc.minor_words -. gc0.Gc.minor_words in
  let minor_collections_run = gc1.Gc.minor_collections - gc0.Gc.minor_collections in
  let registry = Pdht_obs.Context.registry obs in
  let engine_events =
    match Pdht_obs.Registry.counter_value_by_name registry "engine.events_processed" with
    | Some n -> n
    | None -> 0
  in
  let events_per_second = if wall > 0. then float_of_int engine_events /. wall else 0. in
  let minor_words_per_event =
    if engine_events > 0 then minor_words_run /. float_of_int engine_events else 0.
  in
  (* Allocation probes for the two hot paths this bench guards: the event
     queue must be allocation-free after warm-up, and a scratch-reusing
     flood must allocate only its result record (a fresh-scratch flood
     pays the visited set and frontier buffers every call). *)
  let minor_words_per_op ~warmup ~iters f =
    for _ = 1 to warmup do
      f ()
    done;
    let w0 = Gc.minor_words () in
    for _ = 1 to iters do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int iters
  in
  let queue_words_per_op =
    let q = Pdht_sim.Event_queue.create () in
    minor_words_per_op ~warmup:10_000 ~iters:100_000 (fun () ->
        Pdht_sim.Event_queue.add q ~time:1.0 0;
        ignore (Pdht_sim.Event_queue.pop_min q))
  in
  let flood_topo =
    Pdht_overlay.Topology.random_regularish (Pdht_util.Rng.create ~seed:7) ~peers:2_000
      ~degree:4
  in
  let flood_online _ = true in
  let flood_holds _ = false in
  let flood_words ?scratch () =
    minor_words_per_op ~warmup:50 ~iters:500 (fun () ->
        ignore
          (Pdht_overlay.Flood.search ?scratch flood_topo ~online:flood_online
             ~holds:flood_holds ~source:0 ~ttl:6))
  in
  let flood_scratch_words = flood_words ~scratch:(Pdht_overlay.Scratch.create ()) () in
  let flood_fresh_words = flood_words () in
  (* Storage probes: the open-addressed table's expiry sweep and the
     put/get cycle must both run without allocating — [expire] used to
     build a list of doomed keys per call, which at simulation scale was
     a steady allocation tax proportional to live entries. *)
  let storage_expire_words =
    let store = Pdht_dht.Storage.create ~capacity:256 () in
    for i = 0 to 199 do
      Pdht_dht.Storage.put store ~key:(Pdht_util.Bitkey.of_int i) ~value:i ~now:0.
        ~ttl:(3_600. +. float_of_int i)
    done;
    minor_words_per_op ~warmup:1_000 ~iters:100_000 (fun () ->
        ignore (Pdht_dht.Storage.expire store ~now:1.0))
  in
  let storage_put_get_words =
    let store = Pdht_dht.Storage.create ~capacity:256 () in
    let i = ref 0 in
    minor_words_per_op ~warmup:1_000 ~iters:100_000 (fun () ->
        let key = Pdht_util.Bitkey.of_int (!i land 127) in
        incr i;
        Pdht_dht.Storage.put store ~key ~value:!i ~now:0. ~ttl:3_600.;
        ignore (Pdht_dht.Storage.get store ~key ~now:0.))
  in
  (* Runner scaling: a sweep-sized seed batch (>= 4x the domain count, so
     work-stealing has something to balance) on one domain and on
     [max !jobs 4] domains.  The outputs are asserted identical; only the
     wall-clock may differ.  The pool clamps its worker count to the
     physical cores, so on a single-core box both batches run inline and
     the honest speedup is ~1.0 rather than the oversubscription slowdown
     spawning 4 domains there would cost. *)
  let cores = Domain.recommended_domain_count () in
  let par_jobs = max !jobs 4 in
  let batch_specs =
    let scenario =
      { scenario with Scenario.num_peers = 400; keys = 800; duration = 600. }
    in
    Pdht_core.Run_spec.over_seeds
      (List.init 16 (fun i -> i + 1))
      (Pdht_core.Run_spec.make ~options scenario)
  in
  let timed_batch jobs =
    let g0 = Gc.quick_stat () in
    let t0 = Unix.gettimeofday () in
    let results = Pdht_core.Runner.run_all ~jobs batch_specs in
    let wall = Unix.gettimeofday () -. t0 in
    let g1 = Gc.quick_stat () in
    ( wall,
      g1.Gc.minor_words -. g0.Gc.minor_words,
      Pdht_core.Run_result.reports_exn results )
  in
  let wall_single, minor_single, reports_single = timed_batch 1 in
  let wall_parallel, minor_parallel, reports_parallel = timed_batch par_jobs in
  if reports_single <> reports_parallel then
    failwith "perf: parallel batch diverged from the single-domain batch";
  let speedup = if wall_parallel > 0. then wall_single /. wall_parallel else 0. in
  (* Network model under the same workload (smaller instance so the
     sweep stays interactive): first the contract — a zero-cost net
     (zero latency, zero loss) must reproduce the no-net report
     field-for-field once its own [net.*] additions are set aside —
     then a loss sweep 0 -> 20% showing the selection algorithm
     degrading gracefully (bounded retries, broadcast fallback, no
     unhandled exceptions). *)
  let net_scenario =
    { scenario with Scenario.num_peers = 400; keys = 800; duration = 600. }
  in
  let net_key_ttl = System.derive_key_ttl net_scenario options in
  let net_partial = Strategy.Partial_index { key_ttl = net_key_ttl } in
  let run_with net =
    let options =
      match net with
      | None -> System.Options.without_net options
      | Some cfg -> System.Options.with_net cfg options
    in
    System.run net_scenario net_partial options
  in
  let strip_net (r : System.report) =
    {
      r with
      System.net = None;
      histograms =
        List.filter
          (fun (name, _) ->
            not (String.length name >= 4 && String.sub name 0 4 = "net."))
          r.System.histograms;
    }
  in
  let plain_report = run_with None in
  let zero_cost_report = run_with (Some Pdht_net.Config.zero_cost) in
  let zero_cost_equivalent = strip_net zero_cost_report = plain_report in
  if not zero_cost_equivalent then
    failwith "perf: zero-cost network model diverged from the no-net report";
  let loss_sweep =
    List.map
      (fun loss ->
        let cfg =
          { Pdht_net.Config.default with Pdht_net.Config.loss;
            latency = Pdht_net.Config.Constant 0.02; rpc_timeout = 0.5 }
        in
        (loss, run_with (Some cfg)))
      [ 0.0; 0.05; 0.1; 0.2 ]
  in
  let net_json =
    let row (loss, (r : System.report)) =
      let n =
        match r.System.net with
        | Some n -> n
        | None -> failwith "perf: net-enabled report lacks its net summary"
      in
      let fq = float_of_int (max 1 r.System.queries) in
      Json.Obj
        [
          ("loss", Json.Float loss);
          ("queries", Json.Int r.System.queries);
          ("answered", Json.Int r.System.answered);
          ("answer_rate", Json.Float (float_of_int r.System.answered /. fq));
          ("hit_rate", Json.Float r.System.hit_rate);
          ("messages_per_second", Json.Float r.System.messages_per_second);
          ("messages_sent", Json.Int n.System.messages_sent);
          ("messages_dropped", Json.Int n.System.messages_dropped);
          ("messages_retried", Json.Int n.System.messages_retried);
          ("messages_timed_out", Json.Int n.System.messages_timed_out);
          ("latency_p50", Json.Float n.System.latency_p50);
          ("latency_p95", Json.Float n.System.latency_p95);
          ("latency_p99", Json.Float n.System.latency_p99);
        ]
    in
    Json.Obj
      [
        ("zero_cost_net_equivalent", Json.Bool zero_cost_equivalent);
        ("loss_sweep", Json.List (List.map row loss_sweep));
      ]
  in
  let net_table =
    let t =
      Table.create
        ~columns:
          [ ("loss", Table.Right); ("answer rate", Table.Right);
            ("hit rate", Table.Right); ("sent", Table.Right);
            ("dropped", Table.Right); ("retried", Table.Right);
            ("timed out", Table.Right); ("lat p50 [s]", Table.Right);
            ("lat p99 [s]", Table.Right) ]
    in
    List.iter
      (fun (loss, (r : System.report)) ->
        match r.System.net with
        | None -> ()
        | Some n ->
            Table.add_row t
              [ Printf.sprintf "%.0f%%" (100. *. loss);
                Printf.sprintf "%.3f"
                  (float_of_int r.System.answered
                  /. float_of_int (max 1 r.System.queries));
                Printf.sprintf "%.3f" r.System.hit_rate;
                string_of_int n.System.messages_sent;
                string_of_int n.System.messages_dropped;
                string_of_int n.System.messages_retried;
                string_of_int n.System.messages_timed_out;
                Printf.sprintf "%.3f" n.System.latency_p50;
                Printf.sprintf "%.3f" n.System.latency_p99 ])
      loss_sweep;
    t
  in
  (* Crash faults under the same workload: the contract first — an
     empty fault plan must reproduce the no-fault report
     field-for-field once its own [fault] summary is set aside — then
     E21 in miniature: a crash-fraction sweep 0 -> 50% at mid-run with
     anti-entropy repair, showing dip depth, recovery time and repair
     message overhead. *)
  let run_with_fault plan =
    (* 10 s sample buckets: the dip lives in the first seconds after the
       crash (organic re-insertion repairs popular keys query-by-query),
       so the default 60 s buckets would average it away. *)
    let options = { options with System.sample_every = 10. } in
    let options =
      match plan with
      | None -> System.Options.without_fault options
      | Some p -> System.Options.with_fault p options
    in
    System.run net_scenario net_partial options
  in
  let no_fault_report = run_with_fault None in
  let empty_plan_report = run_with_fault (Some Pdht_fault.Plan.default) in
  let no_fault_equivalent =
    { empty_plan_report with System.fault = None } = no_fault_report
  in
  if not no_fault_equivalent then
    failwith "perf: empty fault plan diverged from the no-fault report";
  let crash_sweep =
    List.map
      (fun fraction ->
        let plan =
          {
            Pdht_fault.Plan.default with
            Pdht_fault.Plan.events =
              [ Pdht_fault.Plan.Crash { peer_fraction = fraction; at = 300. } ];
            repair = Some { Pdht_fault.Plan.every = 30.; min_fraction = 0.5 };
          }
        in
        (fraction, run_with_fault (Some plan)))
      [ 0.0; 0.1; 0.3; 0.5 ]
  in
  let fault_of (r : System.report) =
    match r.System.fault with
    | Some f -> f
    | None -> failwith "perf: fault-enabled report lacks its fault summary"
  in
  let e21 = fault_of (List.assoc 0.3 crash_sweep) in
  let e21_recovered =
    match e21.System.time_to_recover with Some _ -> true | None -> false
  in
  let fault_json =
    let row (fraction, (r : System.report)) =
      let f = fault_of r in
      Json.Obj
        [
          ("crash_fraction", Json.Float fraction);
          ("crashes", Json.Int f.System.crashes);
          ("entries_lost", Json.Int f.System.entries_lost);
          ("content_lost", Json.Int f.System.content_lost);
          ("repair_passes", Json.Int f.System.repair_passes);
          ("repair_messages", Json.Int f.System.repair_messages);
          ( "repair_overhead",
            Json.Float
              (float_of_int f.System.repair_messages
              /. float_of_int (max 1 r.System.total_messages)) );
          ("repaired_items", Json.Int f.System.repaired_items);
          ("repaired_entries", Json.Int f.System.repaired_entries);
          ("pre_fault_rate", Json.Float f.System.pre_fault_rate);
          ("dip_rate", Json.Float f.System.dip_rate);
          ("dip_depth", Json.Float (f.System.pre_fault_rate -. f.System.dip_rate));
          ( "time_to_recover_s",
            match f.System.time_to_recover with
            | Some t -> Json.Float t
            | None -> Json.Null );
        ]
    in
    Json.Obj
      [
        ("no_fault_equivalent", Json.Bool no_fault_equivalent);
        ("crash_sweep", Json.List (List.map row crash_sweep));
        ( "e21_small",
          Json.Obj
            [
              ("crash_fraction", Json.Float 0.3);
              ("pre_fault_rate", Json.Float e21.System.pre_fault_rate);
              ("dip_rate", Json.Float e21.System.dip_rate);
              ( "time_to_recover_s",
                match e21.System.time_to_recover with
                | Some t -> Json.Float t
                | None -> Json.Null );
              ("fault_recovered", Json.Bool e21_recovered);
            ] );
      ]
  in
  let fault_table =
    let t =
      Table.create
        ~columns:
          [ ("crash", Table.Right); ("crashes", Table.Right);
            ("entries lost", Table.Right); ("content lost", Table.Right);
            ("pre", Table.Right); ("dip", Table.Right);
            ("recover [s]", Table.Right); ("repair msgs", Table.Right);
            ("overhead", Table.Right) ]
    in
    List.iter
      (fun (fraction, (r : System.report)) ->
        let f = fault_of r in
        Table.add_row t
          [ Printf.sprintf "%.0f%%" (100. *. fraction);
            string_of_int f.System.crashes;
            string_of_int f.System.entries_lost;
            string_of_int f.System.content_lost;
            Printf.sprintf "%.3f" f.System.pre_fault_rate;
            Printf.sprintf "%.3f" f.System.dip_rate;
            (match f.System.time_to_recover with
            | Some t -> Printf.sprintf "%.0f" t
            | None -> "never");
            string_of_int f.System.repair_messages;
            Printf.sprintf "%.1f%%"
              (100.
              *. float_of_int f.System.repair_messages
              /. float_of_int (max 1 r.System.total_messages)) ])
      crash_sweep;
    t
  in
  (* Selection-policy race (E23 in miniature): contracts first — an
     explicit [Ttl Model_derived] spec must build the very options the
     defaults already carry, and a [Ttl _] run must install no selector
     (its report carries no policy summary; the byte-level golden-file
     gate lives in ci.sh) — then the five-policy race across a
     flash-crowd popularity flip.  The post-shift message rate is the
     empirical Eq.-17 analogue; at least one adaptive policy must beat
     the static model-derived TTL there. *)
  let policy_default_equivalent =
    let tiny = { net_scenario with Scenario.duration = 300. } in
    let r_default = System.run tiny net_partial options in
    let r_alias =
      System.run tiny net_partial
        (System.Options.with_selection_policy
           (Pdht_policy.Selector.Ttl Pdht_policy.Selector.Model_derived) options)
    in
    if r_alias <> r_default then
      failwith "perf: explicit default policy spec diverged from the default options";
    if r_default.System.policy <> None then
      failwith "perf: default-policy run unexpectedly installed a selector";
    true
  in
  let race_scenario =
    (* Updates every 10 minutes make the *model's* TTL conservative
       (Eq. 2 charges staleness), so the statically-derived lease is
       short; the measurement-driven policies re-learn the simulator's
       actual cost structure and recover the headroom. *)
    {
      net_scenario with
      Scenario.name = "flash-race";
      duration = 900.;
      shift = Scenario.Swap_halves_at 450.;
      update_mean_lifetime = Some 300.;
      seed = 2023;
    }
  in
  let race_budget =
    let params =
      {
        Params.default with
        Params.num_peers = race_scenario.Scenario.num_peers;
        keys = race_scenario.Scenario.keys;
        stor = options.System.stor;
        repl = options.System.repl;
        f_qry = race_scenario.Scenario.f_qry;
      }
    in
    max 1 (Index_policy.solve params).Index_policy.max_rank
  in
  let race_policies =
    [
      Psel.Ttl Psel.Model_derived;
      Psel.Ttl Psel.Adaptive;
      Psel.Cost_optimal;
      Psel.Learned;
      Psel.Cache_budget race_budget;
    ]
  in
  let race_rows =
    Experiment.policy_race ~jobs:!jobs ~options ~scenario:race_scenario
      ~policies:race_policies ()
  in
  let static_row, adaptive_race_rows =
    match race_rows with
    | static :: rest -> (static, rest)
    | [] -> assert false
  in
  let policy_adaptive_beats_static =
    List.exists
      (fun (r : Experiment.policy_race_row) ->
        r.Experiment.post_shift_cost < static_row.Experiment.post_shift_cost)
      adaptive_race_rows
  in
  let policy_json =
    let row (r : Experiment.policy_race_row) =
      Json.Obj
        [
          ("policy", Json.String r.Experiment.policy_label);
          ("hit_rate", Json.Float r.Experiment.hit_rate);
          ("messages_per_second", Json.Float r.Experiment.messages_per_second);
          ("post_shift_cost", Json.Float r.Experiment.post_shift_cost);
          ("post_shift_hit_rate", Json.Float r.Experiment.post_shift_hit_rate);
          ("rejected_inserts", Json.Int r.Experiment.rejected_inserts);
          ("indexed_keys_final", Json.Int r.Experiment.indexed_keys_final);
        ]
    in
    Json.Obj
      [
        ("policy_default_equivalent", Json.Bool policy_default_equivalent);
        ("policy_adaptive_beats_static", Json.Bool policy_adaptive_beats_static);
        ("cache_budget", Json.Int race_budget);
        ("shift_time_s", Json.Float 450.);
        ("policy_race", Json.List (List.map row race_rows));
      ]
  in
  let policy_table =
    let t =
      Table.create
        ~columns:
          [ ("policy", Table.Left); ("hit rate", Table.Right);
            ("msg/s", Table.Right); ("post-shift msg/s", Table.Right);
            ("post-shift hits", Table.Right); ("rejected", Table.Right);
            ("indexed", Table.Right) ]
    in
    List.iter
      (fun (r : Experiment.policy_race_row) ->
        Table.add_row t
          [ r.Experiment.policy_label;
            Printf.sprintf "%.3f" r.Experiment.hit_rate;
            Printf.sprintf "%.0f" r.Experiment.messages_per_second;
            Printf.sprintf "%.0f" r.Experiment.post_shift_cost;
            Printf.sprintf "%.3f" r.Experiment.post_shift_hit_rate;
            string_of_int r.Experiment.rejected_inserts;
            string_of_int r.Experiment.indexed_keys_final ])
      race_rows;
    t
  in
  (* Tracing overhead: every simulation now threads span context and
     guards event construction with [Tracer.active]; the contract is
     that a *disabled* tracer (the default for every run without
     --trace-out) costs nothing measurable.  There is no
     pre-instrumentation binary to race against, so measure the
     disabled path twice, interleaved A B A B A B (interleaving cancels
     thermal/scheduler drift) and take best-of-3 each: the two minima
     must agree within 2%.  The enabled walls (full sampling and 1-in-16
     into a counting sink) are recorded for information — they price the
     tracing you opted into, not a regression. *)
  let tracing_cfg =
    {
      Pdht_net.Config.default with
      Pdht_net.Config.latency = Pdht_net.Config.Constant 0.02;
      loss = 0.05;
      rpc_timeout = 0.5;
    }
  in
  let traced_events = ref 0 in
  let timed_traced ~sample () =
    let tracer = Pdht_obs.Tracer.create ~enabled:true () in
    Pdht_obs.Tracer.set_sampling tracer sample;
    Pdht_obs.Tracer.add_sink tracer
      (Pdht_obs.Sink.callback (fun _ -> incr traced_events));
    let obs = Pdht_obs.Context.create ~tracer () in
    let t0 = Unix.gettimeofday () in
    let (_ : System.report) =
      System.run ~obs net_scenario net_partial (System.Options.with_net tracing_cfg options)
    in
    Unix.gettimeofday () -. t0
  in
  let timed_disabled () =
    (* One run is a few tens of ms — below the clock's useful 2%
       resolution — so one sample aggregates several back-to-back
       runs. *)
    let t0 = Unix.gettimeofday () in
    for _ = 1 to 4 do
      let (_ : System.report) =
        System.run net_scenario net_partial
          (System.Options.with_net tracing_cfg options)
      in
      ()
    done;
    Unix.gettimeofday () -. t0
  in
  let best_a = ref infinity and best_b = ref infinity in
  ignore (timed_disabled ());
  (* warm-up *)
  for _ = 1 to 3 do
    best_a := Float.min !best_a (timed_disabled ());
    best_b := Float.min !best_b (timed_disabled ())
  done;
  let disabled_overhead_frac =
    if !best_a > 0. then Float.max 0. ((!best_b -. !best_a) /. !best_a) else 0.
  in
  let tracing_within_2pct = disabled_overhead_frac <= 0.02 in
  if not tracing_within_2pct then
    Printf.printf
      "WARNING: disabled-tracer re-measure drifted %.1f%% from its interleaved \
       baseline\n"
      (100. *. disabled_overhead_frac);
  traced_events := 0;
  let wall_traced_full = timed_traced ~sample:1 () in
  let events_traced_full = !traced_events in
  traced_events := 0;
  let wall_traced_sampled = timed_traced ~sample:16 () in
  let events_traced_sampled = !traced_events in
  let tracing_json =
    Json.Obj
      [
        ("wall_disabled_s", Json.Float !best_a);
        ("wall_disabled_remeasured_s", Json.Float !best_b);
        ("disabled_overhead_frac", Json.Float disabled_overhead_frac);
        ("tracing_disabled_within_2pct", Json.Bool tracing_within_2pct);
        ("wall_traced_full_s", Json.Float wall_traced_full);
        ("events_traced_full", Json.Int events_traced_full);
        ("wall_traced_1in16_s", Json.Float wall_traced_sampled);
        ("events_traced_1in16", Json.Int events_traced_sampled);
      ]
  in
  let run_name = scenario.Scenario.name ^ "/partial" in
  let members =
    [
      ("run", Json.String run_name);
      ("seed", Json.Int scenario.Scenario.seed);
      ("sim_duration_s", Json.Float scenario.Scenario.duration);
      ("wall_time_s", Json.Float wall);
      ("engine_events", Json.Int engine_events);
      ("sim_events_per_second", Json.Float events_per_second);
      ("queries", Json.Int report.System.queries);
      ("total_messages", Json.Int report.System.total_messages);
      ("messages_per_second", Json.Float report.System.messages_per_second);
      ("hit_rate", Json.Float report.System.hit_rate);
      ("query_cost_p50", Json.Float report.System.query_cost_p50);
      ("query_cost_p95", Json.Float report.System.query_cost_p95);
      ("query_cost_p99", Json.Float report.System.query_cost_p99);
      ( "gc",
        Json.Obj
          [
            ("minor_words_run", Json.Float minor_words_run);
            ("minor_collections_run", Json.Int minor_collections_run);
            ("minor_words_per_event", Json.Float minor_words_per_event);
          ] );
      ( "alloc",
        Json.Obj
          [
            ("event_queue_add_pop_minor_words_per_op", Json.Float queue_words_per_op);
            ("flood_scratch_minor_words_per_search", Json.Float flood_scratch_words);
            ("flood_fresh_minor_words_per_search", Json.Float flood_fresh_words);
            ("storage_expire_minor_words_per_op", Json.Float storage_expire_words);
            ("storage_put_get_minor_words_per_op", Json.Float storage_put_get_words);
            ("storage_expire_alloc_free", Json.Bool (storage_expire_words = 0.));
          ] );
      ( "histograms",
        Json.Obj
          (List.map
             (fun (name, s) -> (name, Pdht_obs.Histogram.summary_to_json s))
             report.System.histograms) );
      ( "parallel",
        Json.Obj
          [
            ("cores", Json.Int cores);
            ("batch_specs", Json.Int (List.length batch_specs));
            ("jobs_single", Json.Int 1);
            ("wall_single_s", Json.Float wall_single);
            ("minor_words_single", Json.Float minor_single);
            ("jobs_parallel", Json.Int par_jobs);
            ("jobs_effective", Json.Int (min par_jobs cores));
            ("wall_parallel_s", Json.Float wall_parallel);
            ("minor_words_parallel", Json.Float minor_parallel);
            ("speedup", Json.Float speedup);
            ("identical_reports", Json.Bool true);
          ] );
      ("net", net_json);
      ("fault", fault_json);
      ("policy", policy_json);
      ("tracing", tracing_json);
    ]
  in
  let path = "BENCH_pdht.json" in
  splice_members path members;
  Printf.printf
    "%s: %d engine events in %.2f s wall (%.0f events/s), %.1f minor words/event\n\
     alloc: queue add+pop %.2f w/op, flood %.0f w/search with scratch vs %.0f fresh, \
     storage expire %.2f w/op (alloc-free: %b), put+get %.2f w/op\n\
     runner: %d-spec batch %.2f s on 1 domain vs %.2f s at -j %d (%.2fx on %d core(s), \
     identical output)\n\
     wrote %s\n"
    run_name engine_events wall events_per_second minor_words_per_event queue_words_per_op
    flood_scratch_words flood_fresh_words storage_expire_words
    (storage_expire_words = 0.) storage_put_get_words (List.length batch_specs)
    wall_single wall_parallel par_jobs speedup cores path;
  Printf.printf
    "\nnetwork model (constant 20 ms/hop, 0.5 s timeout, %d retries): \
     zero-cost net == no net: %b\n"
    Pdht_net.Config.default.Pdht_net.Config.rpc_retries zero_cost_equivalent;
  Table.print net_table;
  Printf.printf
    "\nfault injection (crash at t=300, anti-entropy every 30 s): empty plan == no \
     fault: %b; E21-small recovered: %b\n"
    no_fault_equivalent e21_recovered;
  Table.print fault_table;
  Printf.printf
    "\nselection policies (flash crowd, halves swap at t=450): explicit default spec == \
     default: %b; adaptive beats static TTL post-shift: %b (cache budget %d keys)\n"
    policy_default_equivalent policy_adaptive_beats_static race_budget;
  Table.print policy_table;
  Printf.printf
    "\ntracing: disabled %.2f s vs %.2f s re-measured (%.2f%% apart, within 2%%: %b); \
     enabled %.2f s for %d events (1/1), %.2f s for %d events (1/16)\n"
    !best_a !best_b
    (100. *. disabled_overhead_frac)
    tracing_within_2pct wall_traced_full events_traced_full wall_traced_sampled
    events_traced_sampled

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the hot paths *)

let section_micro () =
  heading "Micro-benchmarks (Bechamel, monotonic clock)"
    "(per-operation cost of the simulator's hot paths)";
  let open Bechamel in
  let rng0 = Pdht_util.Rng.create ~seed:1 in
  let zipf = Pdht_dist.Zipf.create ~n:40_000 ~alpha:1.2 in
  let chord = Pdht_dht.Chord.create (Pdht_util.Rng.copy rng0) ~members:4_096 in
  let pgrid =
    Pdht_dht.Pgrid.build (Pdht_util.Rng.copy rng0) ~members:4_096 ~leaf_size:1
      ~refs_per_level:3
  in
  let online _ = true in
  let tests =
    [
      Test.make ~name:"rng/bits64"
        (Staged.stage (fun () -> ignore (Pdht_util.Rng.bits64 rng0)));
      Test.make ~name:"zipf/sample-40k"
        (Staged.stage (fun () -> ignore (Pdht_dist.Zipf.sample zipf rng0)));
      Test.make ~name:"chord/lookup-4096"
        (Staged.stage (fun () ->
             let key = Pdht_util.Bitkey.random rng0 in
             ignore
               (Pdht_dht.Chord.lookup chord ~online
                  ~source:(Pdht_util.Rng.int rng0 4_096) ~key)));
      Test.make ~name:"pgrid/lookup-4096"
        (Staged.stage (fun () ->
             let key = Pdht_util.Bitkey.random rng0 in
             ignore
               (Pdht_dht.Pgrid.lookup pgrid rng0 ~online
                  ~source:(Pdht_util.Rng.int rng0 4_096) ~key)));
      Test.make ~name:"event-queue/add+pop"
        (let q = Pdht_sim.Event_queue.create () in
         Staged.stage (fun () ->
             Pdht_sim.Event_queue.add q ~time:(Pdht_util.Rng.unit_float rng0) 0;
             ignore (Pdht_sim.Event_queue.pop q)));
      Test.make ~name:"model/solve-table1"
        (Staged.stage (fun () -> ignore (Index_policy.solve Params.default)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:1_000 ~quota:(Time.second 0.25) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let analysis = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let table =
    Table.create ~columns:[ ("benchmark", Table.Left); ("time/run", Table.Right) ]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ instance ] elt in
          let ols = Analyze.one analysis instance raw in
          let time_ns =
            match Analyze.OLS.estimates ols with Some (t :: _) -> t | Some [] | None -> nan
          in
          let pretty =
            if Float.is_nan time_ns then "n/a"
            else if time_ns > 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
            else if time_ns > 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
            else Printf.sprintf "%.1f ns" time_ns
          in
          Table.add_row table [ Test.Elt.name elt; pretty ])
        (Test.elements test))
    tests;
  Table.print table

(* ------------------------------------------------------------------ *)
(* Decade scale sweep: 10^3 .. 10^6 peers.  Per decade, one news-scaled
   partial-index simulation (timed, Gc-measured) plus one raw-DHT
   lookup arm at the full population.  Splices a "scale" object into
   BENCH_pdht.json so ci.sh can gate on it after a [perf] run. *)

let scale_max = ref 1_000_000

let peak_rss_mb () =
  (* VmHWM is the process high-water RSS; 0. when /proc is unreadable. *)
  match open_in "/proc/self/status" with
  | exception _ -> 0.
  | ic ->
      let rec find () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else find ()
      in
      let mb = find () in
      close_in ic;
      mb

let splice_scale_json path scale_json = splice_section_json path ~key:"scale" scale_json

let section_scale () =
  heading
    (Printf.sprintf "Scale sweep: 10^3 -> %d peers (decades)" !scale_max)
    "(per decade: a news-scaled partial-index run -- Gc-measured bytes/peer,\n\
     events/s, mean index-lookup hops -- plus a raw P-Grid lookup arm at the\n\
     full population; bytes/peer must stay flat while hops track log N)";
  let module Json = Pdht_obs.Json in
  let decades =
    List.filter (fun n -> n <= !scale_max) [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  if decades = [] then (
    Printf.printf "scale: --scale-max %d leaves no decade to run\n" !scale_max;
    exit 2);
  let log2 n = log (float_of_int n) /. log 2. in
  let rows =
    List.map
      (fun n ->
        (* Replication grows with the population (paper deployments keep
           repl a population fraction) so per-peer load stays constant;
           the duration shrinks with n to hold the event count at
           roughly 60k queries per decade -- the sweep measures memory
           and per-event cost, not ever-longer simulations. *)
        let repl = max 20 (n / 500) in
        let scenario =
          {
            (Scenario.with_scale Scenario.news_default ~peers:n ~keys:2_000) with
            Scenario.name = Printf.sprintf "scale-%d" n;
            duration = 60_000. /. (float_of_int n /. 30.);
            seed = 2004;
          }
        in
        let options = System.Options.make ~repl ~stor:100 () in
        let key_ttl = System.derive_key_ttl scenario options in
        let strategy = Strategy.Partial_index { key_ttl } in
        let active = System.plan_active_members scenario options strategy in
        (* bytes/peer: compacted live-heap growth across building the
           full system state, divided by the population. *)
        Gc.compact ();
        let live0 = (Gc.stat ()).Gc.live_words in
        let state =
          let rng = Pdht_util.Rng.create ~seed:scenario.Scenario.seed in
          let config =
            Pdht_core.Config.make ~num_peers:n ~active_members:active ~keys:2_000
              ~repl ~stor:100 ~strategy ()
          in
          Pdht_core.Pdht.create rng config
        in
        Gc.compact ();
        let live1 = (Gc.stat ()).Gc.live_words in
        let bytes_per_peer =
          8. *. float_of_int (live1 - live0) /. float_of_int n
        in
        ignore (Sys.opaque_identity state);
        (* Throughput: the timed simulation at this decade. *)
        let obs = Pdht_obs.Context.create () in
        let t0 = Unix.gettimeofday () in
        let report = System.run ~obs scenario strategy options in
        let wall = Unix.gettimeofday () -. t0 in
        let engine_events =
          match
            Pdht_obs.Registry.counter_value_by_name
              (Pdht_obs.Context.registry obs)
              "engine.events_processed"
          with
          | Some c -> c
          | None -> 0
        in
        let events_per_second =
          if wall > 0. then float_of_int engine_events /. wall else 0.
        in
        let sim_hops =
          match List.assoc_opt "dht.hops.p-grid" report.System.histograms with
          | Some s -> s.Pdht_obs.Histogram.mean
          | None -> 0.
        in
        (* Raw-DHT arm: the structured backend alone at the FULL
           population (the simulation's index spans active_members
           only), so the hops-vs-log-N claim is tested at n itself. *)
        let dht_rng = Pdht_util.Rng.create ~seed:(scenario.Scenario.seed + n) in
        let dht =
          Pdht_dht.Dht.create dht_rng ~backend:Pdht_dht.Dht.Pgrid_backend
            ~members:n ()
        in
        let online _ = true in
        let trials = 500 in
        let hops_sum = ref 0 and found = ref 0 in
        for _ = 1 to trials do
          let source = Pdht_util.Rng.int dht_rng n in
          let key = Pdht_util.Bitkey.random dht_rng in
          let o = Pdht_dht.Dht.lookup dht dht_rng ~online ~source ~key in
          hops_sum := !hops_sum + o.Pdht_dht.Dht.hops;
          if o.Pdht_dht.Dht.responsible <> None then incr found
        done;
        let dht_hops = float_of_int !hops_sum /. float_of_int trials in
        let dht_success = float_of_int !found /. float_of_int trials in
        Printf.printf
          "  n=%-8d repl=%-4d active=%-6d %8.0f B/peer  %9.0f events/s  \
           sim hops %.2f  dht hops %.2f (log2 n = %.1f, success %.2f)  wall %.1f s\n\
           %!"
          n repl active bytes_per_peer events_per_second sim_hops dht_hops
          (log2 n) dht_success wall;
        (n, repl, active, bytes_per_peer, events_per_second, sim_hops, dht_hops,
         dht_success, wall))
      decades
  in
  let bytes = List.map (fun (_, _, _, b, _, _, _, _, _) -> b) rows in
  let bytes_per_peer_flat =
    (* Flat-representation invariant: bytes/peer must not creep up
       decade over decade (10% slack covers hash-table rounding). *)
    let rec ok = function
      | b1 :: (b2 :: _ as rest) -> b2 <= 1.10 *. b1 && ok rest
      | _ -> true
    in
    ok bytes
  in
  let ratios =
    List.map (fun (n, _, _, _, _, _, h, _, _) -> h /. log2 n) rows
  in
  let hops_track_log_n =
    match ratios with
    | [] -> false
    | r0 :: _ -> List.for_all (fun r -> r >= 0.4 *. r0 && r <= 2.0 *. r0) ratios
  in
  let rss = peak_rss_mb () in
  let row_json (n, repl, active, b, eps, sh, dh, ds, wall) =
    Json.Obj
      [
        ("peers", Json.Int n);
        ("repl", Json.Int repl);
        ("active_members", Json.Int active);
        ("bytes_per_peer", Json.Float b);
        ("events_per_second", Json.Float eps);
        ("sim_mean_hops", Json.Float sh);
        ("dht_mean_hops", Json.Float dh);
        ("dht_lookup_success", Json.Float ds);
        ("wall_s", Json.Float wall);
      ]
  in
  let scale_json =
    Json.Obj
      [
        ("decades", Json.List (List.map row_json rows));
        ("bytes_per_peer_flat", Json.Bool bytes_per_peer_flat);
        ("hops_track_log_n", Json.Bool hops_track_log_n);
        ("peak_rss_mb", Json.Float rss);
      ]
  in
  let path = "BENCH_pdht.json" in
  splice_scale_json path scale_json;
  Printf.printf
    "bytes/peer flat across decades: %b; dht hops track log N: %b; peak RSS %.0f \
     MB\nspliced \"scale\" into %s\n"
    bytes_per_peer_flat hops_track_log_n rss path

(* ------------------------------------------------------------------ *)
(* E26: churn-hardened routing.  Living vs frozen k-buckets under
   heavy-tailed session churn, one decade of mean session length per
   row triple; splices a "churn" object into BENCH_pdht.json so ci.sh
   can gate on it (live must beat frozen on stale-route rate at equal
   maintenance spend, and stay near the no-churn success ceiling). *)

let section_churn_routing () =
  heading "E26 - churn-hardened routing: live vs frozen k-buckets"
    "(per decade of mean session length: a no-churn baseline, living\n\
     k-buckets with replacement caches + liveness probing + bucket\n\
     refresh, and frozen tables on the live arm's measured maintenance\n\
     budget; cRtn is measured, not assumed)";
  let module Json = Pdht_obs.Json in
  let rows =
    Experiment.churn_routing ~jobs:!jobs ~seed:2026 ~members:600 ~duration:600.
      ~mean_sessions:[ 60.; 600.; 6_000. ] ()
  in
  let t =
    Table.create
      ~columns:
        [ ("mean session", Table.Right); ("arm", Table.Left); ("lookups", Table.Right);
          ("success", Table.Right); ("hops", Table.Right); ("stale-route", Table.Right);
          ("maint msgs", Table.Right); ("cRtn msg/peer/s", Table.Right) ]
  in
  List.iter
    (fun (r : Experiment.churn_routing_row) ->
      Table.add_row t
        [ Printf.sprintf "%.0fs" r.Experiment.mean_session;
          r.Experiment.arm;
          string_of_int r.Experiment.attempted;
          Printf.sprintf "%.3f" r.Experiment.success_rate;
          Printf.sprintf "%.2f" r.Experiment.mean_hops;
          Printf.sprintf "%.4f" r.Experiment.stale_route_rate;
          string_of_int r.Experiment.maintenance_messages;
          Printf.sprintf "%.3f" r.Experiment.crtn ])
    rows;
  Table.print t;
  let row_json (r : Experiment.churn_routing_row) =
    Json.Obj
      [
        ("mean_session", Json.Float r.Experiment.mean_session);
        ("arm", Json.String r.Experiment.arm);
        ("attempted", Json.Int r.Experiment.attempted);
        ("success_rate", Json.Float r.Experiment.success_rate);
        ("mean_hops", Json.Float r.Experiment.mean_hops);
        ("stale_route_rate", Json.Float r.Experiment.stale_route_rate);
        ("maintenance_messages", Json.Int r.Experiment.maintenance_messages);
        ("crtn", Json.Float r.Experiment.crtn);
      ]
  in
  (* Per-decade contracts, spliced as booleans for the CI gate: the
     living tables must win the stale-route race at equal maintenance
     spend while staying within 5% of the no-churn success ceiling. *)
  let rec triples = function
    | b :: l :: f :: rest -> (b, l, f) :: triples rest
    | _ -> []
  in
  let ts = triples rows in
  let all f = ts <> [] && List.for_all f ts in
  let stale_ok =
    all (fun ((_, l, f) : Experiment.churn_routing_row * _ * _) ->
        l.Experiment.stale_route_rate < f.Experiment.stale_route_rate)
  in
  let success_ok =
    all (fun (b, l, _) ->
        l.Experiment.success_rate >= 0.95 *. b.Experiment.success_rate)
  in
  let budget_ok =
    all (fun (_, l, f) ->
        l.Experiment.maintenance_messages = f.Experiment.maintenance_messages)
  in
  let path = "BENCH_pdht.json" in
  splice_section_json path ~key:"churn"
    (Json.Obj
       [
         ("rows", Json.List (List.map row_json rows));
         ("live_beats_frozen_stale_route", Json.Bool stale_ok);
         ("live_within_success_floor", Json.Bool success_ok);
         ("equal_maintenance_budget", Json.Bool budget_ok);
       ]);
  Printf.printf "spliced \"churn\" into %s\n" path

let sections =
  [
    ("table1", section_table1);
    ("fig1", section_fig1);
    ("fig2", section_fig2);
    ("fig3", section_fig3);
    ("fig4", section_fig4);
    ("ttl_sensitivity", section_ttl_sensitivity);
    ("sim_vs_model", section_sim_vs_model);
    ("fullscale", section_fullscale);
    ("sim_adaptivity", section_sim_adaptivity);
    ("ablation", section_ablation);
    ("ttl_tuning", section_ttl_tuning);
    ("backends_e2e", section_backends_e2e);
    ("churn", section_churn);
    ("workloads", section_workloads);
    ("seeds", section_seeds);
    ("bootstrap", section_bootstrap);
    ("membership", section_membership);
    ("diurnal", section_diurnal);
    ("eviction", section_eviction);
    ("arity", section_arity);
    ("replication_planning", section_replication_planning);
    ("perf", section_perf);
    ("micro", section_micro);
    ("scale", section_scale);
    ("churn_routing", section_churn_routing);
  ]

let set_jobs value =
  match int_of_string_opt value with
  | Some n when n >= 1 -> jobs := n
  | Some _ | None ->
      Printf.eprintf "-j/--jobs needs a positive integer, got %S\n" value;
      exit 2

let set_scale_max value =
  match int_of_string_opt value with
  | Some n when n >= 1 -> scale_max := n
  | Some _ | None ->
      Printf.eprintf "--scale-max needs a positive integer, got %S\n" value;
      exit 2

(* [-j N] / [--jobs N] / [--jobs=N] and [--scale-max N] / [--scale-max=N]
   may appear anywhere among the section names. *)
let rec strip_jobs acc = function
  | [] -> List.rev acc
  | ("-j" | "--jobs") :: value :: rest ->
      set_jobs value;
      strip_jobs acc rest
  | [ ("-j" | "--jobs") ] ->
      Printf.eprintf "-j/--jobs needs a value\n";
      exit 2
  | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
      set_jobs (String.sub arg 7 (String.length arg - 7));
      strip_jobs acc rest
  | "--scale-max" :: value :: rest ->
      set_scale_max value;
      strip_jobs acc rest
  | [ "--scale-max" ] ->
      Printf.eprintf "--scale-max needs a value\n";
      exit 2
  | arg :: rest
    when String.length arg > 12 && String.sub arg 0 12 = "--scale-max=" ->
      set_scale_max (String.sub arg 12 (String.length arg - 12));
      strip_jobs acc rest
  | arg :: rest -> strip_jobs (arg :: acc) rest

let () =
  let names = strip_jobs [] (List.tl (Array.to_list Sys.argv)) in
  let requested = match names with [] -> List.map fst sections | names -> names in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %S; available: %s\n" name
            (String.concat ", " (List.map fst sections));
          exit 1)
    requested
