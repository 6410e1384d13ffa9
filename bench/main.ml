(* Benchmark harness: one Bechamel test per table and figure of the paper's
   evaluation, followed by the regeneration of every table at bench scale.

     dune exec bench/main.exe            # bechamel timings + all tables
     dune exec bench/main.exe -- tables  # tables only (faster)

   The bechamel micro-benchmarks time the full pipeline (compile + optimize
   + simulate) at tiny scale, so the numbers track the cost of regenerating
   each artifact; the tables themselves are produced at bench scale, which
   is where the paper's performance shapes hold. *)

open Bechamel
open Toolkit

let machine = Gpusim.Machine.bench_machine
let tiny = Proxyapps.App.Tiny

let run_config app config () =
  ignore (Harness.Runner.run ~machine ~scale:tiny (Proxyapps.Apps.find_exn app) config)

(* one test per figure/table of the evaluation section *)
let tests =
  [
    Test.make ~name:"fig9/opportunities"
      (Staged.stage (fun () -> ignore (Harness.Tables.fig9 ~machine ~scale:tiny ())));
    Test.make ~name:"fig10/xsbench" (Staged.stage (run_config "xsbench" Harness.Config.dev0));
    Test.make ~name:"fig10/rsbench" (Staged.stage (run_config "rsbench" Harness.Config.dev0));
    Test.make ~name:"fig10/su3bench" (Staged.stage (run_config "su3bench" Harness.Config.dev0));
    Test.make ~name:"fig10/miniqmc" (Staged.stage (run_config "miniqmc" Harness.Config.dev0));
    Test.make ~name:"fig11/xsbench"
      (Staged.stage (fun () ->
           ignore
             (Harness.Tables.fig11 ~machine ~scale:tiny (Proxyapps.Apps.find_exn "xsbench"))));
    Test.make ~name:"fig11/rsbench"
      (Staged.stage (fun () ->
           ignore
             (Harness.Tables.fig11 ~machine ~scale:tiny (Proxyapps.Apps.find_exn "rsbench"))));
    Test.make ~name:"fig11/su3bench"
      (Staged.stage (fun () ->
           ignore
             (Harness.Tables.fig11 ~machine ~scale:tiny (Proxyapps.Apps.find_exn "su3bench"))));
    Test.make ~name:"fig11/miniqmc"
      (Staged.stage (fun () ->
           ignore
             (Harness.Tables.fig11 ~machine ~scale:tiny (Proxyapps.Apps.find_exn "miniqmc"))));
    (* ablations called out in DESIGN.md *)
    Test.make ~name:"ablation/guard-grouping"
      (Staged.stage
         (run_config "su3bench"
            {
              Harness.Config.label = "no-grouping";
              build =
                Harness.Config.dev
                  {
                    Openmpopt.Pass_manager.default_options with
                    disable_guard_grouping = true;
                  };
              inject = [];
            }));
    Test.make ~name:"ablation/internalization"
      (Staged.stage
         (run_config "xsbench"
            {
              Harness.Config.label = "no-internalization";
              build =
                Harness.Config.dev
                  {
                    Openmpopt.Pass_manager.default_options with
                    disable_internalization = true;
                  };
              inject = [];
            }));
  ]

let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) () in
  Fmt.pr "== Bechamel: time to regenerate each artifact (tiny scale) ==@.";
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let result = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Fmt.pr "  %-28s %12.3f ms/run@." name (est /. 1e6)
          | _ -> Fmt.pr "  %-28s (no estimate)@." name)
        result)
    tests;
  Fmt.pr "@."

let tables () =
  let scale = Proxyapps.App.Bench in
  print_string (Harness.Tables.fig9 ~machine ~scale ());
  print_newline ();
  print_string (Harness.Tables.fig10 ~machine ~scale ());
  print_newline ();
  print_string (Harness.Tables.fig11_all ~machine ~scale ());
  print_newline ();
  print_string (Harness.Tables.pass_breakdown_all ~machine ~scale ());
  print_newline ();
  print_string (Harness.Tables.ablations ~machine ~scale ())

(* ------------------------------------------------------------------ *)
(* Scheduler benchmark: sequential vs parallel batch + cache hit rates  *)
(* ------------------------------------------------------------------ *)

(* The batch is every Figure-10 cell at tiny scale — the same workload
   run_experiments parallelizes.  Times come from Observe.Perf's wall-clock
   sampler: Sys.time is process CPU time, which *sums* across domains and
   would report a slowdown for any parallel run.  Speedup is whatever this host
   measures (a single-core machine legitimately reports ~1x); the cache
   hit rates are machine-independent. *)
let sched_domains = 4

let sched_bench () =
  let jobs =
    List.concat_map
      (fun (app : Proxyapps.App.t) ->
        List.map
          (fun config -> (app, config))
          (Harness.Config.fig10_configs app.Proxyapps.App.name))
      Proxyapps.Apps.all
  in
  (* Symmetric best-of-2: each side keeps its best of two runs, so one
     scheduler hiccup (a GC pause, a noisy-neighbour slice) on either side
     does not decide the ratio the CI perf gate enforces. *)
  let seq, seq_s =
    Observe.Perf.best_of_2 (fun () -> Harness.Runner.run_batch ~machine ~scale:tiny jobs)
  in
  let (par, pool_stats, active, cache), par_s =
    Observe.Perf.best_of_2 (fun () ->
        let cache : Harness.Runner.outcome Sched.Cache.t = Sched.Cache.create () in
        Sched.Pool.with_pool ~domains:sched_domains (fun pool ->
            let r = Harness.Runner.run_batch ~machine ~scale:tiny ~pool ~cache jobs in
            (r, Sched.Pool.stats pool, Sched.Pool.active_limit pool, cache)))
  in
  let cold_hits = Sched.Cache.hits cache in
  let cold_misses = Sched.Cache.misses cache in
  Sched.Cache.reset_counters cache;
  let warm, warm_s, _ =
    Observe.Perf.sample (fun () ->
        Sched.Pool.with_pool ~domains:sched_domains (fun pool ->
            Harness.Runner.run_batch ~machine ~scale:tiny ~pool ~cache jobs))
  in
  let labels ms =
    List.map
      (fun (m : Harness.Runner.measurement) ->
        (m.Harness.Runner.app, m.Harness.Runner.config.Harness.Config.label))
      ms
  in
  assert (labels seq = labels par && labels seq = labels warm);
  let speedup = if par_s > 0.0 then seq_s /. par_s else 1.0 in
  Fmt.pr "== Sched: batch of %d jobs, %d domains ==@." (List.length jobs)
    sched_domains;
  Fmt.pr "  sequential         %8.3f s  (best of 2)@." seq_s;
  Fmt.pr "  parallel (cold)    %8.3f s  (best of 2)  speedup %.2fx  cache %d hit / %d miss@."
    par_s speedup cold_hits cold_misses;
  Fmt.pr "  parallel (warm)    %8.3f s  cache hit rate %.2f@." warm_s
    (Sched.Cache.hit_rate cache);
  Fmt.pr
    "  pool: active=%d submitted=%d executed=%d stolen=%d max_pending=%d \
     waits=%d boosts=%d@.@."
    active pool_stats.Sched.Pool.submitted pool_stats.Sched.Pool.executed
    pool_stats.Sched.Pool.stolen pool_stats.Sched.Pool.max_pending
    pool_stats.Sched.Pool.waits pool_stats.Sched.Pool.boosts;
  (* Schema-stamped: tools/bench_gate.ml refuses a sched section it cannot
     version, and rejects submitted <> executed (a lost or phantom job). *)
  Observe.Json.with_schema
    (Observe.Json.Obj
       [
         ("jobs", Observe.Json.Int (List.length jobs));
         ("domains", Observe.Json.Int sched_domains);
         ("sequential_s", Observe.Json.Float seq_s);
         ("parallel_s", Observe.Json.Float par_s);
         ("speedup", Observe.Json.Float speedup);
         ("cold_cache_hits", Observe.Json.Int cold_hits);
         ("cold_cache_misses", Observe.Json.Int cold_misses);
         ("warm_cache_hit_rate", Observe.Json.Float (Sched.Cache.hit_rate cache));
         ( "pool",
           Observe.Json.Obj
             [
               ("active", Observe.Json.Int active);
               ("submitted", Observe.Json.Int pool_stats.Sched.Pool.submitted);
               ("executed", Observe.Json.Int pool_stats.Sched.Pool.executed);
               ("stolen", Observe.Json.Int pool_stats.Sched.Pool.stolen);
               ("max_pending", Observe.Json.Int pool_stats.Sched.Pool.max_pending);
               ("waits", Observe.Json.Int pool_stats.Sched.Pool.waits);
               ("boosts", Observe.Json.Int pool_stats.Sched.Pool.boosts);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* Service benchmark: request latency against a live daemon            *)
(* ------------------------------------------------------------------ *)

(* The acceptance shape of the compile service: a warm request — answered
   from the daemon's in-memory cache — must be cheaper than a cold
   one-shot compile of the same source.  Latencies measure this host; the
   byte-identity and cache-hit facts are machine-independent. *)
let service_bench () =
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mompd-bench-%d.sock" (Unix.getpid ()))
  in
  let server =
    Service.Server.create { Service.Server.default_config with socket_path }
  in
  let server_thread = Thread.create Service.Server.serve_forever server in
  let config = Ompgpu_api.Config.(default |> with_pipeline Ompgpu_api.Pipeline.full |> with_sim) in
  let file = "xsbench.momp" in
  let source =
    (Proxyapps.Apps.find_exn "xsbench").Proxyapps.App.omp_source tiny
  in
  let request c () =
    match Service.Client.compile c ~file ~config source with
    | Ok r -> r
    | Error e -> Fmt.failwith "service bench: %s" (Fault.Ompgpu_error.to_string e)
  in
  let oneshot, oneshot_s, _ =
    Observe.Perf.sample (fun () -> Ompgpu_api.compile_buffered ~config ~file source)
  in
  let (cold, cold_s), (warm, warm_avg_s) =
    Service.Client.with_connection ~socket_path (fun c ->
        let cold, cold_s, _ = Observe.Perf.sample (request c) in
        let reps = 20 in
        let warms, warm_total, _ =
          Observe.Perf.sample (fun () -> List.init reps (fun _ -> request c ()))
        in
        let () =
          match Service.Client.shutdown c () with
          | Ok () -> ()
          | Error e ->
            Fmt.failwith "service bench: shutdown: %s"
              (Fault.Ompgpu_error.to_string e)
        in
        ((cold, cold_s), (List.hd warms, warm_total /. float_of_int reps)))
  in
  Thread.join server_thread;
  let identical r =
    r.Ompgpu_api.exit_code = oneshot.Ompgpu_api.exit_code
    && String.equal r.Ompgpu_api.output oneshot.Ompgpu_api.output
    && String.equal r.Ompgpu_api.diagnostics oneshot.Ompgpu_api.diagnostics
  in
  let byte_identical = identical cold && identical warm in
  Fmt.pr "== Service: mompd request latency (xsbench, tiny, -O --run) ==@.";
  Fmt.pr "  one-shot (no daemon) %8.4f s@." oneshot_s;
  Fmt.pr "  request (cold cache) %8.4f s@." cold_s;
  Fmt.pr "  request (warm cache) %8.4f s  (avg of 20)@." warm_avg_s;
  Fmt.pr "  warm < cold one-shot: %b   byte-identical to one-shot: %b@.@."
    (warm_avg_s < oneshot_s) byte_identical;
  Observe.Json.Obj
    [
      ("oneshot_s", Observe.Json.Float oneshot_s);
      ("cold_request_s", Observe.Json.Float cold_s);
      ("warm_request_s", Observe.Json.Float warm_avg_s);
      ("warm_beats_cold_oneshot", Observe.Json.Bool (warm_avg_s < oneshot_s));
      ("byte_identical", Observe.Json.Bool byte_identical);
    ]

(* ------------------------------------------------------------------ *)
(* Corpus benchmark: conformance corpus as daemon traffic              *)
(* ------------------------------------------------------------------ *)

(* The conformance corpus (lib/corpus, docs/CONFORMANCE.md) replayed
   through a live mompd over resilient client sessions: compiles/sec is
   the serving throughput of the daemon on generated kernels, cold
   against empty caches and warm against the in-memory result cache.
   Throughput measures this host; byte-identity with in-process
   compilation and the zero-transport-error bar are machine-independent.
   `make conformance` runs the same traffic at full corpus size. *)
let corpus_bench () =
  let s = Corpus.Traffic.run ~connections:4 ~domains:2 ~root:42L ~n:24 () in
  Fmt.pr "== Corpus: conformance corpus as daemon traffic ==@.";
  Fmt.pr "  %d programs x %d cells = %d jobs over %d connections (%d domains)@."
    s.Corpus.Traffic.programs
    (List.length Corpus.Matrix.cells)
    s.Corpus.Traffic.jobs s.Corpus.Traffic.connections s.Corpus.Traffic.domains;
  Fmt.pr "  cold  %8.1f compiles/s  (%.2fs)@." s.Corpus.Traffic.cold_cps
    s.Corpus.Traffic.cold_s;
  Fmt.pr "  warm  %8.1f compiles/s  (%.2fs)@." s.Corpus.Traffic.warm_cps
    s.Corpus.Traffic.warm_s;
  Fmt.pr "  byte-identical to in-process: %b   transport errors: %d@.@."
    s.Corpus.Traffic.byte_identical s.Corpus.Traffic.transport_errors;
  Corpus.Traffic.to_json s

(* ------------------------------------------------------------------ *)
(* Fleet benchmark: the corpus through the sharded router              *)
(* ------------------------------------------------------------------ *)

(* How serving scales with shard count, and what a shard dying costs.
   The same corpus traffic as corpus_bench, but through a Router fronting
   N supervised in-process shards: requests/sec cold and warm at N=1,2,4
   (the warm-hit ratio says whether the consistent-hash ring kept each
   key on its warm shard), then the failover run — one shard stopped
   mid-pass — whose p99 prices the router's absorption of the kill.
   Throughput and latency measure this host; byte-identity of every
   fleet answer with in-process compilation is machine-independent and
   is the member tools/bench_gate.ml refuses to pass without. *)
let fleet_bench () =
  Fmt.pr "== Fleet: corpus through the sharded router ==@.";
  let scaling =
    List.map
      (fun shards ->
        let f =
          Corpus.Traffic.run_fleet ~connections:4 ~shards ~domains:2 ~root:42L
            ~n:12 ()
        in
        let s = f.Corpus.Traffic.base in
        Fmt.pr
          "  shards=%d  cold %8.1f compiles/s  warm %8.1f compiles/s  \
           warm-hit %.2f  failovers %d  fallbacks %d  byte-identical %b@."
          shards s.Corpus.Traffic.cold_cps s.Corpus.Traffic.warm_cps
          f.Corpus.Traffic.warm_hit_ratio f.Corpus.Traffic.failovers
          f.Corpus.Traffic.fallbacks s.Corpus.Traffic.byte_identical;
        f)
      [ 1; 2; 4 ]
  in
  let fo = Corpus.Traffic.run_failover ~connections:4 ~shards:3 ~domains:2
      ~root:42L ~n:8 ()
  in
  Fmt.pr
    "  failover: killed %s mid-pass (3 shards, %d jobs): p50 %.1fms  p99 \
     %.1fms  max %.1fms  %d failover(s), %d fallback(s), %d respawn(s), \
     byte-identical %b@.@."
    fo.Corpus.Traffic.killed fo.Corpus.Traffic.fo_jobs
    fo.Corpus.Traffic.p50_ms fo.Corpus.Traffic.p99_ms fo.Corpus.Traffic.max_ms
    fo.Corpus.Traffic.fo_failovers fo.Corpus.Traffic.fo_fallbacks
    fo.Corpus.Traffic.respawns fo.Corpus.Traffic.fo_byte_identical;
  let byte_identical =
    fo.Corpus.Traffic.fo_byte_identical
    && List.for_all
         (fun (f : Corpus.Traffic.fleet_stats) ->
           f.Corpus.Traffic.base.Corpus.Traffic.byte_identical)
         scaling
  in
  Observe.Json.with_schema
    (Observe.Json.Obj
       [
         ( "scaling",
           Observe.Json.List (List.map Corpus.Traffic.fleet_to_json scaling) );
         ("failover", Corpus.Traffic.failover_to_json fo);
         ("byte_identical", Observe.Json.Bool byte_identical);
       ])

(* ------------------------------------------------------------------ *)
(* Tiers benchmark: cold latency per tier, upgrade throughput          *)
(* ------------------------------------------------------------------ *)

(* The tiered-compilation acceptance shape (docs/SCHEDULER.md): a cold
   request against a tiered daemon — answered from the fast tier — must
   be cheaper than the same cold request against an untiered (full-only)
   daemon, the warm path must not regress, and once the background
   upgrade queue drains every answer must be byte-identical to a
   one-shot full-pipeline compile.  Latencies and upgrade throughput
   measure this host; byte-identity is machine-independent and is the
   member tools/bench_gate.ml refuses to pass without. *)
let tiers_bench () =
  let t = Corpus.Traffic.run_tiered ~connections:4 ~domains:2 ~root:42L ~n:12 () in
  Fmt.pr "== Tiers: cold latency per tier, background upgrade throughput ==@.";
  Fmt.pr "  %d tier-eligible jobs over %d connections (%d domains)@."
    t.Corpus.Traffic.tr_jobs t.Corpus.Traffic.tr_connections
    t.Corpus.Traffic.tr_domains;
  Fmt.pr "  cold p50   full %8.1f ms   tiered %8.1f ms@."
    t.Corpus.Traffic.full_cold_p50_ms t.Corpus.Traffic.tiered_cold_p50_ms;
  Fmt.pr "  warm       full %8.1f c/s  tiered %8.1f c/s@."
    t.Corpus.Traffic.full_warm_cps t.Corpus.Traffic.tiered_warm_cps;
  Fmt.pr "  upgrades   %d drained in %.2fs (%.1f/s)@."
    t.Corpus.Traffic.upgrades_done t.Corpus.Traffic.upgrade_drain_s
    t.Corpus.Traffic.upgrades_per_s;
  Fmt.pr "  post-upgrade byte-identical to one-shot full: %b   transport \
          errors: %d@.@."
    t.Corpus.Traffic.post_upgrade_identical t.Corpus.Traffic.tr_transport_errors;
  Corpus.Traffic.tiers_to_json t

(* ------------------------------------------------------------------ *)
(* Storage benchmark: governed caches under pressure                   *)
(* ------------------------------------------------------------------ *)

(* The storage-governance acceptance shape (docs/ROBUSTNESS.md): a
   byte-capped warm cache under eviction pressure and a disk cache with
   every store failing as disk-full must both keep serving byte-identical
   results — governance costs warm hits, never correctness — while the
   caps hold and the counters (evictions, store failures, breaker trips)
   surface the pressure.  At an ample cap the warm pass still hits
   everything.  [byte_identical] is the member tools/bench_gate.ml
   refuses to pass without. *)
let storage_bench () =
  Fmt.pr "== Storage: bounded caches and ENOSPC-graceful writes ==@.";
  let apps = List.map (fun (a : Proxyapps.App.t) -> a.Proxyapps.App.name) Proxyapps.Apps.all in
  let config = Ompgpu_api.Config.default in
  let reference =
    List.map
      (fun app ->
        let source = (Proxyapps.Apps.find_exn app).Proxyapps.App.omp_source tiny in
        (app, source, Ompgpu_api.compile_buffered ~config ~file:(app ^ ".momp") source))
      apps
  in
  (* eviction pressure: a cap far under the working set, two rounds *)
  let small_cap = 1024 in
  let small = Sched.Cache.create ~max_bytes:small_cap ~size_of:String.length () in
  let identical = ref true in
  let (), pressured_s, _ =
    Observe.Perf.sample (fun () ->
        for _ = 1 to 2 do
          List.iter
            (fun (app, source, (reference : Ompgpu_api.compiled)) ->
              let key = Ompgpu_api.cache_key ~file:(app ^ ".momp") ~config ~source in
              let out =
                Sched.Cache.find_or_compute small ~key (fun () ->
                    (Ompgpu_api.compile_buffered ~config ~file:(app ^ ".momp") source)
                      .Ompgpu_api.output)
              in
              if not (String.equal out reference.Ompgpu_api.output) then identical := false)
            reference
        done)
  in
  (* ample cap: the same two rounds must hit everything the second time *)
  let ample = Sched.Cache.create ~max_bytes:(16 * 1024 * 1024) ~size_of:String.length () in
  let warm_pass () =
    List.iter
      (fun (app, source, _) ->
        let key = Ompgpu_api.cache_key ~file:(app ^ ".momp") ~config ~source in
        ignore
          (Sched.Cache.find_or_compute ample ~key (fun () ->
               (Ompgpu_api.compile_buffered ~config ~file:(app ^ ".momp") source)
                 .Ompgpu_api.output)))
      reference
  in
  warm_pass ();
  Sched.Cache.reset_counters ample;
  warm_pass ();
  let warm_hit_rate = Sched.Cache.hit_rate ample in
  (* every store fails as disk-full: no store may raise, the breaker must
     trip, and lookups stay plain misses *)
  let dfull_dir = Filename.temp_file "bench-dfull" "" in
  Sys.remove dfull_dir;
  let injector =
    Fault.Injector.create
      [ { Fault.Injector.site = Fault.Injector.Disk_full; rate = 1.0; seed = 0 } ]
  in
  let dfull = Sched.Disk_cache.create ~injector ~dir:dfull_dir () in
  List.iter
    (fun (app, _, (r : Ompgpu_api.compiled)) ->
      Sched.Disk_cache.store dfull ~key:app ~data:r.Ompgpu_api.output)
    reference;
  (* a quota'd disk cache under the same working set: two entries' worth
     of quota (outputs vary per app, so size it off the largest), so the
     footprint is bounded and eviction is LRU-by-mtime *)
  let quota =
    2
    * List.fold_left
        (fun m (_, _, (r : Ompgpu_api.compiled)) ->
          max m (String.length r.Ompgpu_api.output + 64))
        0 reference
  in
  let quota_dir = Filename.temp_file "bench-quota" "" in
  Sys.remove quota_dir;
  let quotad = Sched.Disk_cache.create ~max_bytes:quota ~dir:quota_dir () in
  List.iter
    (fun (app, _, (r : Ompgpu_api.compiled)) ->
      Sched.Disk_cache.store quotad ~key:app ~data:r.Ompgpu_api.output)
    reference;
  let byte_identical =
    !identical
    && Sched.Disk_cache.bytes quotad <= quota
    && Sched.Disk_cache.writes_disabled dfull
  in
  Fmt.pr "  %d apps x2 through a %dB warm cache: %.1f ms, %d eviction(s), \
          byte-identical %b@."
    (List.length apps) small_cap (pressured_s *. 1e3)
    (Sched.Cache.evictions small) !identical;
  Fmt.pr "  ample cap warm hit rate: %.2f@." warm_hit_rate;
  Fmt.pr "  injected disk-full: %d store failure(s), %d breaker trip(s), \
          writes disabled %b, zero raised@."
    (Sched.Disk_cache.store_failures dfull)
    (Sched.Disk_cache.breaker_trips dfull)
    (Sched.Disk_cache.writes_disabled dfull);
  Fmt.pr "  %dB disk quota: %d entrie(s) kept, %d evicted, %dB on disk@.@."
    quota
    (Sched.Disk_cache.entries quotad)
    (Sched.Disk_cache.evictions quotad)
    (Sched.Disk_cache.bytes quotad);
  Observe.Json.with_schema
    (Observe.Json.Obj
       [
         ( "cache",
           Observe.Json.Obj
             [
               ("cap_bytes", Observe.Json.Int small_cap);
               ("evictions", Observe.Json.Int (Sched.Cache.evictions small));
               ("pressured_ms", Observe.Json.Float (pressured_s *. 1e3));
               ("warm_hit_rate", Observe.Json.Float warm_hit_rate);
             ] );
         ( "disk",
           Observe.Json.Obj
             [
               ("quota_bytes", Observe.Json.Int quota);
               ("entries", Observe.Json.Int (Sched.Disk_cache.entries quotad));
               ("evictions", Observe.Json.Int (Sched.Disk_cache.evictions quotad));
               ("bytes", Observe.Json.Int (Sched.Disk_cache.bytes quotad));
               ( "store_failures",
                 Observe.Json.Int (Sched.Disk_cache.store_failures dfull) );
               ( "breaker_trips",
                 Observe.Json.Int (Sched.Disk_cache.breaker_trips dfull) );
             ] );
         ("byte_identical", Observe.Json.Bool byte_identical);
       ])

(* Machine-readable perf trajectory: every app at bench scale under the
   default developer build, with the pipeline trace attached, so future
   changes can be diffed against this file. *)
let observe_json ~sched ~service ~corpus ~fleet ~tiers ~storage path =
  let scale = Proxyapps.App.Bench in
  let records =
    List.map
      (fun app ->
        Harness.Runner.json_of_measurement
          (Harness.Runner.run ~machine ~scale ~with_trace:true app
             Harness.Config.dev0))
      Proxyapps.Apps.all
  in
  let json =
    Observe.Json.with_schema
      (Observe.Json.Obj
      [
        ("scale", Observe.Json.String "bench");
        ("config", Observe.Json.String Harness.Config.dev0.Harness.Config.label);
        ("measurements", Observe.Json.List records);
        ("sched", sched);
        ("service", service);
        ("corpus", corpus);
        ("fleet", fleet);
        ("tiers", tiers);
        ("storage", storage);
      ])
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Observe.Json.to_string json);
      Out_channel.output_char oc '\n');
  Fmt.pr "wrote %s@." path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if not (List.mem "tables" args) then benchmark ();
  let sched = sched_bench () in
  let service = service_bench () in
  let corpus = corpus_bench () in
  let fleet = fleet_bench () in
  let tiers = tiers_bench () in
  let storage = storage_bench () in
  tables ();
  observe_json ~sched ~service ~corpus ~fleet ~tiers ~storage "BENCH_observe.json"
