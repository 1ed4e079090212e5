(* PDHT benchmark: end-to-end query throughput, setup time and the
   paper's message cost on four workloads, plus a per-layer ledger from
   a traced run.

   Everything is measured from outside the library: the benchmark
   times calls into public functions and reads the registry counters
   the program keeps anyway.

     main.exe --workload W --seed N --seconds S --trace 0|1 [--scale full|tiny]

   prints progress lines and, as its last stdout line, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  [--trace 0] reports
   the end-to-end metrics, [--trace 1] the per-layer ledger.  The
   cluster workload re-executes this binary as its workers
   ([main.exe node --connect PORT --node-id K]), and every workload as
   its host-speed calibration ([main.exe calibrate]). *)

module Rng = Pdht_util.Rng
module Scenario = Pdht_work.Scenario
module System = Pdht_core.System
module Strategy = Pdht_core.Strategy
module Config = Pdht_core.Config
module Pdht = Pdht_core.Pdht
module Cluster = Pdht_proc.Cluster
module Registry = Pdht_obs.Registry
module Histogram = Pdht_obs.Histogram
module Tracer = Pdht_obs.Tracer
module Event = Pdht_obs.Event
module Json = Pdht_obs.Json
module Metrics = Pdht_sim.Metrics
module Wire = Pdht_wire.Wire

(* ------------------------------------------------------------------ *)
(* Clock, statistics, process facts *)

let now_ns () = Monotonic_clock.now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, seconds_since t0)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

let allocated_words () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* Peak resident set of this process (the cluster conductor, not its
   workers), from the kernel's high-water mark. *)
let peak_rss_mb () =
  let top_heap_mb () =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> top_heap_mb ()
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> top_heap_mb ()
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* ------------------------------------------------------------------ *)
(* Workloads *)

type scale = Full | Tiny

type workload = {
  name : string;
  scenario : Scenario.t;
  strategy : Strategy.t;
  options : System.options;
  nodes : int;  (** 0 = in-process [System.run]; else [Cluster.run] workers *)
  sub_seeds : int array;
      (** batch seeds, derived from [--seed]: several independent
          instances per run, so a per-seed quirk of topology, placement
          or churn does not decide a run's figures *)
}

let workload_names = [ "news-1e5"; "flash-churn"; "indexall-updates"; "cluster-2" ]

let partial scenario options =
  Strategy.Partial_index { key_ttl = System.derive_key_ttl scenario options }

let with_seed w seed = { w with scenario = { w.scenario with Scenario.seed } }

let make_workload ~scale ~seed name =
  let full = scale = Full in
  let pick f t = if full then f else t in
  let base = { Scenario.news_default with Scenario.seed } in
  let sub_seeds k = Array.init (pick k 1) (fun stream -> Rng.derive_seed ~seed ~stream) in
  match name with
  | "news-1e5" ->
      (* The 10^5 scale decade: setup on the critical path, broadcasts
         reaching ~780 peers, replica floods over 200 members. *)
      let peers = pick 100_000 2_000 in
      let scenario =
        { (Scenario.with_scale base ~peers ~keys:(pick 2_000 200)) with
          Scenario.name = name;
          duration = pick 72. 30.;
        }
      in
      let options = System.Options.make ~repl:(pick 200 10) ~stor:100 () in
      Some { name; scenario; strategy = partial scenario options; options; nodes = 0;
             sub_seeds = sub_seeds 2 }
  | "flash-churn" ->
      (* Churn-storm sessions plus a mid-run popularity swap: the
         read-plus-write and engine workload. *)
      let duration = pick 1_800. 600. in
      let scenario =
        { (Scenario.with_scale base ~peers:(pick 10_000 300) ~keys:(pick 4_000 200)) with
          Scenario.name = name;
          duration;
          shift = Scenario.Swap_halves_at (duration /. 2.);
          churn =
            Scenario.Exponential_sessions
              { mean_uptime = 600.; mean_downtime = 400.; initially_online_fraction = 0.6 };
        }
      in
      let options = System.Options.make () in
      Some { name; scenario; strategy = partial scenario options; options; nodes = 0;
             sub_seeds = sub_seeds 4 }
  | "indexall-updates" ->
      (* The index-everything baseline (Eq. 11) under a 60 s mean
         article lifetime: proactive update gossip, no broadcasts. *)
      let scenario =
        { (Scenario.with_scale base ~peers:(pick 5_000 300) ~keys:(pick 2_000 200)) with
          Scenario.name = name;
          duration = pick 2_400. 300.;
          update_mean_lifetime = Some 60.;
        }
      in
      let options = System.Options.make () in
      Some { name; scenario; strategy = Strategy.Index_all; options; nodes = 0;
             sub_seeds = sub_seeds 4 }
  | "cluster-2" ->
      (* A news-shaped partial run whose index stores live in two worker
         processes over loopback TCP; default sampling keeps the
         indexed-key probes at sample ticks in the measured traffic. *)
      let scenario =
        { (Scenario.with_scale base ~peers:(pick 300 120) ~keys:(pick 600 150)) with
          Scenario.name = name;
          duration = pick 900. 240.;
        }
      in
      let options = System.Options.make () in
      Some { name; scenario; strategy = partial scenario options; options; nodes = 2;
             sub_seeds = sub_seeds 2 }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Running one batch *)

let cluster_config ?obs_dir w =
  { (Cluster.default_config ~nodes:w.nodes ~exe:Sys.executable_name) with
    Cluster.obs_dir }

let run_batch ?obs ?obs_dir w =
  if w.nodes = 0 then System.run ?obs w.scenario w.strategy w.options
  else Cluster.run ?obs (cluster_config ?obs_dir w) w.scenario w.strategy w.options

(* [setup_s]: what [System.run] does before its first event that depends
   on the workload size -- the first split of the seed,
   [plan_active_members], [Config.make] and [Pdht.create].  On the
   cluster it is a whole [Cluster.run] over an empty horizon: worker
   spawn, handshake, the same [Pdht.create], and shutdown. *)
let build_config w =
  let active_members = System.plan_active_members w.scenario w.options w.strategy in
  Config.make ~backend:w.options.System.backend ~eviction:w.options.System.eviction
    ~num_peers:w.scenario.Scenario.num_peers ~active_members
    ~keys:w.scenario.Scenario.keys ~repl:w.options.System.repl
    ~stor:w.options.System.stor ~strategy:w.strategy ()

let setup_once w =
  Gc.compact ();
  if w.nodes = 0 then
    snd
      (timed (fun () ->
           let build_rng = Rng.split (Rng.create ~seed:w.scenario.Scenario.seed) in
           Sys.opaque_identity (Pdht.create build_rng (build_config w))))
  else
    let empty = { w with scenario = { w.scenario with Scenario.duration = 1e-3 } } in
    snd (timed (fun () -> Sys.opaque_identity (run_batch empty)))

(* ------------------------------------------------------------------ *)
(* Output checks *)

let counter reg name =
  match Registry.counter_value_by_name reg name with Some v -> v | None -> 0

let check_report ~registry (r : System.report) =
  let errs = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  if r.System.answered + r.System.failed <> r.System.queries then
    fail "answered %d + failed %d <> queries %d" r.System.answered r.System.failed
      r.System.queries;
  if r.System.from_index + r.System.from_broadcast <> r.System.answered then
    fail "from_index %d + from_broadcast %d <> answered %d" r.System.from_index
      r.System.from_broadcast r.System.answered;
  let by_cat = List.fold_left (fun acc (_, n) -> acc + n) 0 r.System.messages_by_category in
  if by_cat <> r.System.total_messages then
    fail "messages_by_category sums to %d, total_messages is %d" by_cat
      r.System.total_messages;
  let teed =
    List.fold_left
      (fun acc cat -> acc + counter registry (Metrics.counter_name cat))
      0 Metrics.all_categories
  in
  if teed <> r.System.total_messages then
    fail "registry messages.* sum to %d, total_messages is %d" teed r.System.total_messages;
  if r.System.queries < 1 then fail "no queries ran";
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Result printing *)

type metric = { mname : string; unit_ : string; value : float }

(* Non-finite values only arise when no batch completed, and the run
   then reports [correct = false]; print them as 0 to keep the line
   valid JSON. *)
let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "  %-32s %18s %s\n" m.mname (json_number m.value) m.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.mname
             (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* ------------------------------------------------------------------ *)
(* --trace 0: end-to-end metrics *)

let sub_seed w k = with_seed w w.sub_seeds.(k mod Array.length w.sub_seeds)

(* Host speed.  The benchmark box is a shared VM whose speed drifts as
   other tenants come and go: identical batches take up to ~1.7x as long
   in a slow phase, and phases last from seconds to hours, so a whole
   run, or a whole set of runs, can sit in one.  The end-to-end timings
   are therefore scaled to a nominal host speed, measured by a fixed
   calibration kernel (hash-table inserts: allocation, hashing and a
   few MB of scattered writes, like the simulator) that is part of this
   benchmark and not of the program, so no change to the program moves
   it.  It runs in a fresh process ([main.exe calibrate]), so the
   benchmark's own heap does not change its garbage collector's work.
   A kernel run of [calibration_nominal_s] means nominal speed. *)
let calibration_nominal_s = 0.07

let calibration_kernel () =
  let h = Hashtbl.create 16 in
  for i = 1 to 150_000 do
    Hashtbl.replace h ((i * 7919) land 0x3ffff) [ i; i + 1 ]
  done;
  Hashtbl.length h

(* [main.exe calibrate]: the median of three kernel runs, after one that
   grows the heap. *)
let calibrate_main () =
  ignore (Sys.opaque_identity (calibration_kernel ()));
  let run () =
    Gc.compact ();
    snd (timed (fun () -> Sys.opaque_identity (calibration_kernel ())))
  in
  Printf.printf "%.9f\n" (median (List.init 3 (fun _ -> run ())))

let calibration_s () =
  let ic = Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "calibrate" |] in
  let line = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> float_of_string (String.trim line)
  | _ -> failwith "calibration kernel failed"

(* Batches cycle through the sub-seeds until every sub-seed ran, at
   least [min_batches] ran, and [seconds] have been measured.  After
   each batch, set-ups of the same sub-seed run for at least a tenth of
   the batch's wall time (once at least), so set-up is sampled in every
   phase of the run.  The calibration kernel runs after each batch's
   set-ups; a batch and its set-ups are scaled by
   [calibration_nominal_s] / the mean of the kernel runs before and
   after them (the first batch: after it only).  A repeated sub-seed
   must return the same report as its first batch, and on the cluster
   every batch must return the report of the same-seed in-process run,
   so determinism is one of the output checks.

   [setup_s] is the median scaled set-up; [queries_per_s] the median
   over batches of queries / (scaled wall - [setup_s]).  [peak_rss_mb]
   is read after the first batch, before any other work -- the
   cluster's in-process oracle runs included -- has shaped the heap.
   The protocol metrics aggregate the sub-seeds' reports. *)
let min_batches = 5

let end_to_end w ~seconds =
  let peak_rss = ref nan in
  let k = Array.length w.sub_seeds in
  (* Each sub-seed's first report, with the registry it filled; on the
     cluster, the same-seed in-process report, run after the batch. *)
  let reference = Array.make k None in
  let attempted = ref 0 and failed = ref 0 in
  (* (wall, queries, set-ups, kernel after) per completed batch *)
  let cycles = ref [] in
  let errors = ref [] in
  let start = now_ns () in
  while !attempted < max k min_batches || seconds_since start < seconds do
    let i = !attempted mod k in
    let v = sub_seed w i in
    Gc.compact ();
    let obs = Pdht_obs.Context.create () in
    incr attempted;
    (match timed (fun () -> run_batch ~obs v) with
    | exception e ->
        incr failed;
        errors := Printexc.to_string e :: !errors
    | report, wall ->
        if !attempted = 1 then peak_rss := peak_rss_mb ();
        let errs = check_report ~registry:obs.Pdht_obs.Context.registry report in
        if reference.(i) = None then
          reference.(i) <-
            Some
              (if w.nodes = 0 then (report, obs.Pdht_obs.Context.registry)
               else
                 let oobs = Pdht_obs.Context.create () in
                 (System.run ~obs:oobs v.scenario v.strategy v.options,
                  oobs.Pdht_obs.Context.registry));
        let errs =
          match reference.(i) with
          | Some (r, _) when compare r report = 0 -> errs
          | _ ->
              (if w.nodes = 0 then "report differs from the first same-seed batch"
               else "cluster report differs from the same-seed System.run report")
              :: errs
        in
        if errs <> [] then begin
          incr failed;
          errors := errs @ !errors
        end;
        let t0 = now_ns () in
        let setups = ref [ setup_once v ] in
        while seconds_since t0 < 0.1 *. wall do
          setups := setup_once v :: !setups
        done;
        let kernel_s = calibration_s () in
        Printf.printf "batch %d (seed %d): %.3f s, %d queries, calibration kernel %.4f s\n%!"
          !attempted v.scenario.Scenario.seed wall report.System.queries kernel_s;
        cycles := (wall, report.System.queries, !setups, kernel_s) :: !cycles)
  done;
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) (List.rev !errors);
  let cycles = List.rev !cycles in
  let _, scaled =
    List.fold_left
      (fun (before, acc) (wall, q, setups, after) ->
        let k0 = Option.value before ~default:after in
        let f = calibration_nominal_s /. (0.5 *. (k0 +. after)) in
        (Some after, (wall *. f, q, List.map (fun s -> s *. f) setups) :: acc))
      (None, []) cycles
  in
  let setup_s = median (List.concat_map (fun (_, _, s) -> s) scaled) in
  let queries_per_s =
    median (List.map (fun (wall, q, _) -> float_of_int q /. (wall -. setup_s)) scaled)
  in
  Printf.printf "set-up: %d runs, median %.4f s scaled, %.4f s unscaled\n"
    (List.length (List.concat_map (fun (_, _, s, _) -> s) cycles)) setup_s
    (median (List.concat_map (fun (_, _, s, _) -> s) cycles));
  let reports = List.filter_map (Option.map fst) (Array.to_list reference) in
  (* p99 over the sub-seeds' merged per-query cost histograms. *)
  let cost = Histogram.create () in
  Array.iter
    (function
      | Some (_, reg) ->
          Option.iter (fun h -> Histogram.merge ~into:cost h)
            (Registry.find_histogram reg "query.cost")
      | None -> ())
    reference;
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let queries = sum (fun r -> r.System.queries) in
  let metrics =
    [
      { mname = "queries_per_s"; unit_ = "1/s"; value = queries_per_s };
      { mname = "setup_s"; unit_ = "s"; value = setup_s };
      { mname = "peak_rss_mb"; unit_ = "MB"; value = !peak_rss };
      {
        mname = "msgs_per_query";
        unit_ = "msgs";
        value = ratio_i (sum (fun r -> r.System.total_messages)) queries;
      };
      {
        mname = "query_msgs_p99";
        unit_ = "msgs";
        value = (if Histogram.count cost = 0 then 0. else Histogram.quantile cost 0.99);
      };
      {
        mname = "hit_rate";
        unit_ = "ratio";
        value = ratio_i (sum (fun r -> r.System.from_index)) queries;
      };
      {
        mname = "answered_share";
        unit_ = "ratio";
        value = ratio_i (sum (fun r -> r.System.answered)) queries;
      };
    ]
  in
  (!errors = [] && reports <> [], !attempted, !failed, metrics)

(* ------------------------------------------------------------------ *)
(* --trace 1: the per-layer ledger *)

(* Setup layers: replay [Pdht.create]'s construction order on the same
   generator state, timing and counting allocation per public call.
   [other_s] times the rest of the replay directly: key hashing, the
   per-member stores, the unstructured-search handle and, for
   [Index_all], the preload that builds every replica subnetwork and
   puts the key on each of its members. *)
type setup_layers = {
  topology_s : float;
  topology_words : float;
  place_s : float;
  place_words : float;
  dht_s : float;
  create_s : float;
  other_s : float;
}

let measured f =
  let w0 = allocated_words () in
  let v, s = timed f in
  (v, s, allocated_words () -. w0)

let setup_layers_once w =
  let cfg = build_config w in
  Gc.compact ();
  let _, create_s =
    timed (fun () ->
        Sys.opaque_identity
          (Pdht.create (Rng.split (Rng.create ~seed:w.scenario.Scenario.seed)) cfg))
  in
  Gc.compact ();
  let rng = Rng.split (Rng.create ~seed:w.scenario.Scenario.seed) in
  let keys = cfg.Config.keys in
  let bitkeys, keys_s =
    timed (fun () ->
        Array.init keys (fun i ->
            Pdht_util.Hashing.hash_to_key (Pdht_util.Hashing.combine [ "key"; string_of_int i ])))
  in
  let dht, dht_s, _ =
    measured (fun () ->
        Pdht_dht.Dht.create rng ~backend:cfg.Config.backend
          ~members:cfg.Config.active_members ~leaf_size:cfg.Config.repl ())
  in
  let topology, topology_s, topology_words =
    measured (fun () ->
        Pdht_overlay.Topology.random_regularish rng ~peers:cfg.Config.num_peers
          ~degree:cfg.Config.topology_degree)
  in
  let content, place_s, place_words =
    measured (fun () ->
        let content = Pdht_overlay.Replication.create ~peers:cfg.Config.num_peers in
        for item = 0 to keys - 1 do
          Pdht_overlay.Replication.place content rng ~item ~repl:cfg.Config.repl
        done;
        content)
  in
  let _, rest_s =
    timed (fun () ->
        let search =
          Pdht_overlay.Unstructured_search.create ~topology ~replication:content
            ~strategy:cfg.Config.search
        in
        let stores =
          Array.init cfg.Config.active_members (fun _ ->
              Pdht_dht.Storage.create ~eviction:cfg.Config.eviction ~capacity:cfg.Config.stor ())
        in
        (match cfg.Config.strategy with
        | Strategy.Index_all ->
            for item = 0 to keys - 1 do
              let group = Pdht_dht.Dht.replica_group dht ~repl:cfg.Config.repl bitkeys.(item) in
              ignore
                (Sys.opaque_identity
                   (Pdht_gossip.Replica_net.build rng ~replicas:group
                      ~chords:cfg.Config.replica_chords));
              let provider =
                match Pdht_overlay.Replication.replicas content ~item with
                | [||] -> 0
                | reps -> reps.(0)
              in
              Array.iter
                (fun member ->
                  Pdht_dht.Storage.put stores.(member) ~key:bitkeys.(item) ~value:provider
                    ~now:0. ~ttl:1e15)
                group
            done
        | Strategy.No_index | Strategy.Partial_index _ -> ());
        Sys.opaque_identity (search, stores))
  in
  { topology_s; topology_words; place_s; place_words; dht_s; create_s;
    other_s = keys_s +. rest_s }

let setup_layers w =
  let reps = List.init 3 (fun _ -> setup_layers_once w) in
  let med f = median (List.map f reps) in
  {
    topology_s = med (fun l -> l.topology_s);
    topology_words = med (fun l -> l.topology_words);
    place_s = med (fun l -> l.place_s);
    place_words = med (fun l -> l.place_words);
    dht_s = med (fun l -> l.dht_s);
    create_s = med (fun l -> l.create_s);
    other_s = med (fun l -> l.other_s);
  }

(* Traced self time.  The sink stamps every event with the monotonic
   clock; an event's self time is the gap since the previous stamp,
   charged to its layer.  The first stamp is the setup boundary (run
   start + median setup), so setup is not charged to the first event.
   The gap before an operation's first event also holds the engine
   dispatch that started it.  The first event's gap, engine snapshots,
   network and fault events, and the tail after the last event are
   charged to no layer: they make up [trace.unattributed_s]. *)
let n_slots = 11

let slot_of (ev : Event.t) =
  match ev.Event.category with
  | Event.Query -> 0
  | Event.Dht_lookup -> if ev.Event.detail = "contact" then 1 else 2
  | Event.Replica_flood -> 3
  | Event.Broadcast -> 4
  | Event.Index_insert -> 5
  | Event.Ttl_reset -> 6
  | Event.Gossip -> 7
  | Event.Maintenance -> 8
  | Event.Churn -> 9
  | Event.Engine | Event.Net | Event.Fault -> 10

type ledger = {
  self_s : float array;
  calls : int array;
  msgs : int array;
  spread_msgs : int;  (** rumor traffic of the [Gossip] "spread" leaves *)
  traced_wall : float;
  traced_report : System.report;
}

let traced_batch w ~setup_s =
  let self_s = Array.make n_slots 0. in
  let calls = Array.make n_slots 0 in
  let msgs = Array.make n_slots 0 in
  let spread_msgs = ref 0 in
  let last = ref 0L and first = ref true in
  let sink (ev : Event.t) =
    let t = now_ns () in
    let gap = Int64.to_float (Int64.sub t !last) *. 1e-9 in
    last := t;
    let s = slot_of ev in
    (* The first gap holds the rest of [System.run]'s setup and its
       deviation from the median: it is nobody's self time. *)
    let charged = if !first then n_slots - 1 else s in
    first := false;
    self_s.(charged) <- self_s.(charged) +. gap;
    calls.(s) <- calls.(s) + 1;
    msgs.(s) <- msgs.(s) + ev.Event.messages;
    if ev.Event.category = Event.Gossip && ev.Event.detail = "spread" then
      spread_msgs := !spread_msgs + ev.Event.messages
  in
  let tracer = Tracer.create ~enabled:true () in
  Tracer.add_sink tracer (Pdht_obs.Sink.callback sink);
  let obs = Pdht_obs.Context.create ~tracer () in
  Gc.compact ();
  let t0 = now_ns () in
  last := Int64.add t0 (Int64.of_float (setup_s *. 1e9));
  let report = run_batch ~obs w in
  let traced_wall = seconds_since t0 in
  ( obs,
    { self_s; calls; msgs; spread_msgs = !spread_msgs; traced_wall; traced_report = report }
  )

(* Worker counters the conductor merged into [merged.jsonl]. *)
let merged_counters path =
  let ic = open_in path in
  let rec loop acc =
    match input_line ic with
    | exception End_of_file -> acc
    | line -> (
        match Json.of_string line with
        | Ok j -> (
            match
              ( Option.bind (Json.member "type" j) Json.to_string_opt,
                Option.bind (Json.member "name" j) Json.to_string_opt,
                Option.bind (Json.member "value" j) Json.to_int_opt )
            with
            | Some "counter", Some name, Some v -> loop ((name, v) :: acc)
            | _ -> loop acc)
        | Error _ -> loop acc)
  in
  let counters = loop [] in
  close_in ic;
  fun name -> match List.assoc_opt name counters with Some v -> v | None -> 0

(* Wire codec cost over the measured frame mix: requests in the
   cluster's proportions plus one [Ack] per round trip, encoded and
   decoded standalone.  Every frame must decode back to itself. *)
let wire_costs ~gets ~puts ~hops ~casts ~probes =
  let total = gets + puts + hops + casts + probes in
  if total = 0 then (0., 0., 0., true)
  else begin
    let frames = ref [] in
    let add n mk =
      let k = max 1 (n * 2_000 / total) in
      if n > 0 then
        for i = 1 to k do
          frames := mk i :: !frames
        done
    in
    add gets (fun i ->
        Wire.Get { rid = i; peer = i mod 97; key = i mod 601; refresh = true;
                   now = 12.5 *. float_of_int i; ttl = 300. });
    add puts (fun i ->
        Wire.Insert { rid = i; peer = i mod 97; key = i mod 601; value = i mod 300;
                      now = 12.5 *. float_of_int i; ttl = 300. });
    add hops (fun i ->
        Wire.Lookup { rid = i; span = -1; src = i mod 97; dst = (i * 7) mod 97;
                      key = i mod 601 });
    add casts (fun i ->
        Wire.Gossip { span = -1; src = i mod 300; dst = (i * 13) mod 300; key = -1 });
    add probes (fun i ->
        Wire.Probe { rid = i; op = Wire.Mem; peer = i mod 97; key = i mod 601;
                     now = 60. *. float_of_int i });
    add (gets + puts + hops + probes) (fun i -> Wire.Ack { rid = i; ok = true; value = i });
    let frames = Array.of_list !frames in
    let encoded = Array.map Wire.encode_bytes frames in
    let roundtrip_ok =
      Array.for_all2
        (fun m b ->
          match Wire.decode b ~pos:0 ~len:(Bytes.length b) with
          | Ok (m', used) -> used = Bytes.length b && Wire.equal m m'
          | Error _ -> false)
        frames encoded
    in
    let per_frame f =
      let rounds = ref 0 in
      let t0 = now_ns () in
      while !rounds < 3 || seconds_since t0 < 0.25 do
        f ();
        incr rounds
      done;
      seconds_since t0 *. 1e9 /. float_of_int (!rounds * Array.length frames)
    in
    let buf = Buffer.create 256 in
    let encode_ns =
      per_frame (fun () ->
          Array.iter
            (fun m ->
              Buffer.clear buf;
              Wire.encode buf m)
            frames)
    in
    let decode_ns =
      per_frame (fun () ->
          Array.iter
            (fun b -> ignore (Sys.opaque_identity (Wire.decode b ~pos:0 ~len:(Bytes.length b))))
            encoded)
    in
    let bytes = Array.fold_left (fun acc b -> acc + Bytes.length b) 0 encoded in
    (encode_ns, decode_ns, ratio_i bytes (Array.length encoded), roundtrip_ok)
  end

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let per_layer w ~seconds ~work_dir =
  let errors = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let note_batch errs =
    incr attempted;
    if errs <> [] then begin
      incr failed;
      errors := !errors @ errs
    end
  in
  let layers = setup_layers w in
  let setup_s =
    if w.nodes = 0 then layers.create_s
    else median (List.init 3 (fun i -> setup_once (sub_seed w i)))
  in
  (* The first untraced batch also yields the registry counts, the GC
     figures and, on the cluster, the workers' merged counters. *)
  let obs_dir = Filename.concat work_dir "obs" in
  if w.nodes > 0 then Unix.mkdir obs_dir 0o755;
  Gc.compact ();
  let obs = Pdht_obs.Context.create () in
  let gc0 = Gc.quick_stat () in
  let report, first_wall =
    timed (fun () ->
        run_batch ~obs ?obs_dir:(if w.nodes > 0 then Some obs_dir else None) w)
  in
  let gc1 = Gc.quick_stat () in
  let reg = obs.Pdht_obs.Context.registry in
  note_batch (check_report ~registry:reg report);
  let queries = report.System.queries in
  (* Then untraced and traced batches alternate until [seconds] are
     spent (two of each at least): the tracing overhead compares their
     medians, and the ledger comes from the traced batch with the median
     wall time.  Traced reports must equal the untraced one. *)
  let start = now_ns () in
  let walls = ref [ first_wall ] and traced = ref [] in
  while List.length !traced < 2 || seconds_since start < seconds do
    let tobs, l = traced_batch w ~setup_s in
    let errs = check_report ~registry:tobs.Pdht_obs.Context.registry l.traced_report in
    note_batch
      (if compare l.traced_report report = 0 then errs
       else "traced report differs from the untraced report" :: errs);
    traced := l :: !traced;
    Gc.compact ();
    let uobs = Pdht_obs.Context.create () in
    let r, wall = timed (fun () -> run_batch ~obs:uobs w) in
    let errs = check_report ~registry:uobs.Pdht_obs.Context.registry r in
    note_batch
      (if compare r report = 0 then errs
       else "report differs from the first same-seed batch" :: errs);
    walls := wall :: !walls
  done;
  let wall = median !walls in
  let steady_s = wall -. setup_s in
  let ledger =
    let sorted = List.sort (fun a b -> compare a.traced_wall b.traced_wall) !traced in
    List.nth sorted (List.length sorted / 2)
  in
  (* In-process oracle for the cluster: equality, and the wall time the
     transport adds per round trip. *)
  let sim_steady_s =
    if w.nodes = 0 then steady_s
    else begin
      Gc.compact ();
      let oracle, owall = timed (fun () -> System.run w.scenario w.strategy w.options) in
      note_batch
        (if compare oracle report = 0 then []
         else [ "cluster report differs from the same-seed System.run report" ]);
      owall -. layers.create_s
    end
  in
  let proc =
    if w.nodes = 0 then fun _ -> 0 else merged_counters (Filename.concat obs_dir "merged.jsonl")
  in
  let gets = proc "proc.gets" and puts = proc "proc.puts" + proc "proc.repair_puts" in
  let hops = proc "proc.hops" and casts = proc "proc.casts" and probes = proc "proc.probes" in
  let round_trips = gets + puts + hops + probes in
  let encode_ns, decode_ns, bytes_per_frame, roundtrip_ok =
    wire_costs ~gets ~puts ~hops ~casts ~probes
  in
  if not roundtrip_ok then begin
    incr failed;
    errors := !errors @ [ "wire frames do not decode back to themselves" ]
  end;
  let c = counter reg in
  let hist name = Registry.find_histogram reg name in
  let hist_count name = match hist name with Some h -> Histogram.count h | None -> 0 in
  let hist_mean name =
    match hist name with Some h when Histogram.count h > 0 -> Histogram.mean h | _ -> 0.
  in
  let backend = Pdht_dht.Dht.backend_label w.options.System.backend in
  let self i = ledger.self_s.(i) in
  let attributed = ref 0. in
  for i = 0 to n_slots - 2 do
    attributed := !attributed +. self i
  done;
  let searches = c "broadcast.searches" in
  let flood_calls = ledger.calls.(3) in
  let spreads = c "gossip.spreads" in
  let engine_events = c "engine.events_processed" in
  let setup_total = layers.create_s in
  let m mname unit_ value = { mname; unit_; value } in
  let i = float_of_int in
  let metrics =
    [
      m "topology.build_s" "s" layers.topology_s;
      m "topology.build_mwords" "Mwords" (layers.topology_words /. 1e6);
      m "replication.place_s" "s" layers.place_s;
      m "replication.place_mwords" "Mwords" (layers.place_words /. 1e6);
      m "dht.create_s" "s" layers.dht_s;
      m "pdht.create_other_s" "s" layers.other_s;
      m "setup.share" "ratio" (ratio setup_total (setup_total +. sim_steady_s));
      m "broadcast.searches" "count" (i searches);
      m "broadcast.self_s" "s" (self 4);
      m "broadcast.us_per_search" "us" (1e6 *. ratio (self 4) (i searches));
      m "broadcast.mean_reach" "msgs" (hist_mean "broadcast.reach");
      m "broadcast.found_ratio" "ratio" (ratio_i (c "broadcast.found") searches);
      m "replica_flood.calls" "count" (i flood_calls);
      m "replica_flood.self_s" "s" (self 3);
      m "replica_flood.msgs_per_call" "msgs" (ratio_i ledger.msgs.(3) flood_calls);
      m "dht.contact.calls" "count" (i ledger.calls.(1));
      m "dht.contact.self_s" "s" (self 1);
      m "dht.lookup.calls" "count" (i (hist_count ("dht.hops." ^ backend)));
      m "dht.lookup.self_s" "s" (self 2);
      m "dht.lookup.mean_hops" "hops" (hist_mean ("dht.hops." ^ backend));
      m "index.insert.calls" "count" (i (c "index.insert"));
      m "index.insert.self_s" "s" (self 5);
      m "index.ttl_reset.calls" "count" (i (c "index.ttl_reset"));
      m "index.ttl_reset.self_s" "s" (self 6);
      m "index.hit_ratio" "ratio" (ratio_i (c "index.hit") (c "index.hit" + c "index.miss"));
      m "gossip.spreads" "count" (i spreads);
      m "gossip.self_s" "s" (self 7);
      m "gossip.msgs_per_spread" "msgs" (ratio_i ledger.spread_msgs spreads);
      m "maintenance.ticks" "count" (i (hist_count "maintenance.messages_per_tick"));
      m "maintenance.self_s" "s" (self 8);
      m "maintenance.msgs" "msgs" (i (c (Metrics.counter_name Metrics.Maintenance)));
      m "churn.transitions" "count" (i (c "churn.transitions"));
      m "churn.self_s" "s" (self 9);
      m "engine.events" "count" (i engine_events);
      m "engine.events_per_s" "1/s" (ratio (i engine_events) steady_s);
      m "proc.round_trips" "count" (i round_trips);
      m "proc.round_trips_per_query" "count" (ratio_i round_trips queries);
      m "proc.probe_share" "ratio" (ratio_i probes round_trips);
      m "proc.gets" "count" (i gets);
      m "proc.puts" "count" (i puts);
      m "proc.hops" "count" (i hops);
      m "proc.casts" "count" (i casts);
      m "proc.rtt_us" "us" (1e6 *. ratio (steady_s -. sim_steady_s) (i round_trips));
      m "wire.encode_ns" "ns" encode_ns;
      m "wire.decode_ns" "ns" decode_ns;
      m "wire.bytes_per_frame" "bytes" bytes_per_frame;
      m "gc.minor_words_per_query" "words"
        (ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) (i queries));
      m "gc.major_collections" "count" (i (gc1.Gc.major_collections - gc0.Gc.major_collections));
      m "query.self_s" "s" (self 0);
      m "trace.unattributed_s" "s" (ledger.traced_wall -. setup_s -. !attributed);
      m "trace.overhead_share" "ratio" (ratio (ledger.traced_wall -. wall) ledger.traced_wall);
    ]
  in
  List.iter (fun e -> Printf.printf "CHECK FAILED: %s\n" e) !errors;
  (!errors = [], !attempted, !failed, metrics)

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1 [--scale full|tiny]\n\
    \       main.exe node --connect PORT --node-id K [--obs-out FILE]\n\
    \       main.exe calibrate";
  exit 2

let flags args =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  go [] args

let () =
  match Array.to_list Sys.argv with
  | [ _; "calibrate" ] -> calibrate_main ()
  | _ :: "node" :: rest -> (
      (* Cluster worker: the storage half of [Cluster.run]. *)
      let f = flags rest in
      match (List.assoc_opt "connect" f, List.assoc_opt "node-id" f) with
      | Some port, Some id ->
          Pdht_proc.Node.run ?obs_out:(List.assoc_opt "obs-out" f)
            ~port:(int_of_string port) ~node_id:(int_of_string id) ()
      | _ -> usage ())
  | _ :: rest ->
      let f = flags rest in
      let get k = match List.assoc_opt k f with Some v -> v | None -> usage () in
      let name = get "workload" in
      let seed = int_of_string (get "seed") in
      let seconds = float_of_string (get "seconds") in
      let trace = get "trace" = "1" in
      let scale =
        match List.assoc_opt "scale" f with
        | None | Some "full" -> Full
        | Some "tiny" -> Tiny
        | Some _ -> usage ()
      in
      let w =
        match make_workload ~scale ~seed name with
        | Some w -> w
        | None ->
            prerr_endline
              ("unknown workload " ^ name ^ "; one of: " ^ String.concat ", " workload_names);
            exit 2
      in
      Printf.printf "workload %s seed %d: %d peers, %d keys, %s, %.0f s simulated%s\n%!"
        w.name seed w.scenario.Scenario.num_peers w.scenario.Scenario.keys
        (Strategy.label w.strategy) w.scenario.Scenario.duration
        (if w.nodes > 0 then Printf.sprintf ", %d worker processes" w.nodes else "");
      let correct, attempted, failed, metrics =
        if trace then begin
          (* The ledger describes one instance: the first sub-seed. *)
          let w = { (with_seed w w.sub_seeds.(0)) with sub_seeds = [| w.sub_seeds.(0) |] } in
          let work_dir = Filename.concat (Sys.getcwd ()) (Printf.sprintf ".perfbench-work-%d" (Unix.getpid ())) in
          remove_tree work_dir;
          Unix.mkdir work_dir 0o755;
          Fun.protect
            ~finally:(fun () -> remove_tree work_dir)
            (fun () -> per_layer w ~seconds ~work_dir)
        end
        else end_to_end w ~seconds
      in
      print_result ~correct ~attempted ~failed metrics;
      exit (if correct then 0 else 1)
  | [] -> usage ()
