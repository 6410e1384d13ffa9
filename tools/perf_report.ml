(* perf_report: the `make perf` driver (docs/PERF.md).

     perf_report [OUTDIR]            # default _perf
     PERF_JOBS=4 PERF_BATCH=tiny perf_report

   Runs the standard Figure-10 batch (every fig10 config x every proxy
   app) twice sequentially and twice in parallel on PERF_JOBS domains —
   each side keeping its best run, the same protocol bench/main.exe uses —
   then once more in parallel with the phase profiler attached, and writes:

     OUTDIR/perf.json      schema-stamped: the host's core count
                           (nproc), sched section (speedup, pool
                           counters), per-layer seconds and minor words
                           (layers), per-phase totals, arena-recycling
                           stats — what the CI perf job gates with
                           `bench_gate --perf`
     OUTDIR/flame.folded   folded stacks, counts = microseconds; feed to
                           flamegraph.pl or paste into speedscope.app
     OUTDIR/alloc.folded   folded stacks, counts = minor-heap words

   Wall-clock numbers measure this host; the batch's byte-identity with
   the sequential reference is asserted on every run. *)

let machine = Gpusim.Machine.bench_machine

let scale =
  match Sys.getenv_opt "PERF_BATCH" with
  | None | Some "tiny" -> Proxyapps.App.Tiny
  | Some "bench" -> Proxyapps.App.Bench
  | Some other ->
    prerr_endline ("perf_report: PERF_BATCH must be tiny or bench, got " ^ other);
    exit 2

let domains =
  match Sys.getenv_opt "PERF_JOBS" with
  | None -> 4
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n >= 1 -> n
    | _ ->
      prerr_endline ("perf_report: PERF_JOBS must be a positive int, got " ^ v);
      exit 2)

let jobs =
  List.concat_map
    (fun (app : Proxyapps.App.t) ->
      List.map
        (fun config -> (app, config))
        (Harness.Config.fig10_configs app.Proxyapps.App.name))
    Proxyapps.Apps.all

let labels ms =
  List.map
    (fun (m : Harness.Runner.measurement) ->
      (m.Harness.Runner.app, m.Harness.Runner.config.Harness.Config.label))
    ms

(* The four layers of a job, each with its wall seconds and minor-heap
   words summed over the instrumented batch (zero when a layer never ran). *)
let layers_json perf =
  let totals = Observe.Perf.totals perf in
  Observe.Json.Obj
    (List.map
       (fun phase ->
         let seconds, words =
           match List.assoc_opt phase totals with
           | Some (s, w, _) -> (s, w)
           | None -> (0.0, 0.0)
         in
         ( phase,
           Observe.Json.Obj
             [
               ("seconds", Observe.Json.Float seconds);
               ("minor_words", Observe.Json.Float words);
             ] ))
       [ "frontend"; "optimize"; "verify"; "simulate" ])

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents)

let () =
  let outdir =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> "_perf"
    | [ d ] -> d
    | _ ->
      prerr_endline "usage: perf_report [OUTDIR]";
      exit 2
  in
  if not (Sys.file_exists outdir) then Sys.mkdir outdir 0o755;
  Printf.printf "perf_report: %d jobs, %d domains, %s scale -> %s/\n%!"
    (List.length jobs) domains
    (match scale with Proxyapps.App.Tiny -> "tiny" | Proxyapps.App.Bench -> "bench")
    outdir;
  (* timed comparison, uninstrumented: the numbers the gate reads *)
  let seq, seq_s =
    Observe.Perf.best_of_2 (fun () -> Harness.Runner.run_batch ~machine ~scale jobs)
  in
  let (par, pool_stats, active), par_s =
    Observe.Perf.best_of_2 (fun () ->
        Sched.Pool.with_pool ~domains (fun pool ->
            let cache : Harness.Runner.outcome Sched.Cache.t = Sched.Cache.create () in
            let r = Harness.Runner.run_batch ~machine ~scale ~pool ~cache jobs in
            (r, Sched.Pool.stats pool, Sched.Pool.active_limit pool)))
  in
  assert (labels seq = labels par);
  let speedup = if par_s > 0.0 then seq_s /. par_s else 1.0 in
  (* instrumented run: phase attribution for the flamegraph and the
     allocation profile (its wall time is not the gated number) *)
  let perf = Observe.Perf.create () in
  let prof =
    Sched.Pool.with_pool ~domains (fun pool ->
        let cache : Harness.Runner.outcome Sched.Cache.t = Sched.Cache.create () in
        Harness.Runner.run_batch ~machine ~scale ~pool ~cache ~perf jobs)
  in
  assert (labels seq = labels prof);
  let reused, fresh, zeroed = Gpusim.Scratch.aggregate () in
  let sched =
    Observe.Json.with_schema
      (Observe.Json.Obj
         [
           ("jobs", Observe.Json.Int (List.length jobs));
           ("domains", Observe.Json.Int domains);
           ("sequential_s", Observe.Json.Float seq_s);
           ("parallel_s", Observe.Json.Float par_s);
           ("speedup", Observe.Json.Float speedup);
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
  in
  let json =
    Observe.Json.with_schema
      (Observe.Json.Obj
         [
           ( "batch",
             Observe.Json.String
               (match scale with
               | Proxyapps.App.Tiny -> "fig10/tiny"
               | Proxyapps.App.Bench -> "fig10/bench") );
           ("nproc", Observe.Json.Int (Domain.recommended_domain_count ()));
           ("sched", sched);
           ("layers", layers_json perf);
           ("profile", Observe.Perf.to_json perf);
           ( "scratch",
             Observe.Json.Obj
               [
                 ("reused_bytes", Observe.Json.Int reused);
                 ("fresh_bytes", Observe.Json.Int fresh);
                 ("zeroed_bytes", Observe.Json.Int zeroed);
               ] );
         ])
  in
  write_file
    (Filename.concat outdir "perf.json")
    (Observe.Json.to_string json ^ "\n");
  write_file
    (Filename.concat outdir "flame.folded")
    (Observe.Perf.folded ~value:`Time_us perf);
  write_file
    (Filename.concat outdir "alloc.folded")
    (Observe.Perf.folded ~value:`Alloc_words perf);
  Printf.printf "  sequential %.3fs  parallel %.3fs  speedup %.2fx (best of 2)\n"
    seq_s par_s speedup;
  Printf.printf
    "  pool: active=%d submitted=%d executed=%d stolen=%d waits=%d boosts=%d\n"
    active pool_stats.Sched.Pool.submitted pool_stats.Sched.Pool.executed
    pool_stats.Sched.Pool.stolen pool_stats.Sched.Pool.waits
    pool_stats.Sched.Pool.boosts;
  List.iter
    (fun (phase, (seconds, words, _)) ->
      Printf.printf "  %-9s %.3fs %.1fM minor words\n" phase seconds (words /. 1e6))
    (Observe.Perf.totals perf);
  Printf.printf "  scratch: reused %dMB fresh %dMB zeroed %dKB\n"
    (reused / 1_000_000) (fresh / 1_000_000) (zeroed / 1_000);
  Printf.printf "  wrote %s/perf.json, flame.folded, alloc.folded\n%!" outdir
