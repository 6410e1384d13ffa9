(* fig10-bench: the 11-job Figure-10 batch (4 proxy apps x CUDA / LLVM 12 /
   Dev0 builds) at Bench scale, run sequentially in process on one domain.
   Gpusim.Interp.run_host takes nearly all of the job time here, so this is
   the workload where simulator inner-loop work shows.  The seed only
   shuffles the job order of each batch: the apps' inputs are fixed. *)

module App = Proxyapps.App
module Cfg = Harness.Config

type kind = { app : App.t; config : Cfg.t; job : Layers.job }

let kinds () =
  List.concat_map
    (fun (app : App.t) ->
      List.map
        (fun (config : Cfg.t) ->
          let omp = app.omp_source App.Bench in
          let scheme, src, pipeline =
            match config.build with
            | Cfg.Llvm12 -> (Frontend.Codegen.Legacy, omp, None)
            | Cfg.Dev_noopt -> (Frontend.Codegen.Simplified, omp, None)
            | Cfg.Dev options ->
              ( Frontend.Codegen.Simplified,
                omp,
                Some (Openmpopt.Pass_manager.Pipeline.of_options options) )
            | Cfg.Cuda -> (Frontend.Codegen.Cuda, app.cuda_source App.Bench, None)
          in
          { app; config; job = { Layers.file = app.name ^ ".c"; scheme; src; pipeline } })
        (Cfg.fig10_configs app.name))
    Proxyapps.Apps.all

(* Whole batches until --seconds have passed, and at least four, so that
   each job kind's fastest time has four chances to fall in a fast host
   phase.  A batch takes 8 to 17 s on a 2-core host, as the host's load
   varies; with a time limit alone, a slow host ran only three batches and
   read slower still.  A 40 s run takes 40 to 60 s. *)
let min_batches = 4

let shuffled ~seed ~batch n =
  let a = Array.init n Fun.id in
  Measure.shuffle
    (Corpus.Splitmix.split (Corpus.Splitmix.of_int seed) (Printf.sprintf "batch#%d" batch))
    a;
  Array.to_list a

let checksum (o : Layers.outcome) =
  match o.trace_values with
  | [ Gpusim.Rvalue.F v ] -> Some v
  | [ Gpusim.Rvalue.I v ] -> Some (Int64.to_float v)
  | _ -> None

(* The reference checks: the job ran; a Dev0 job's report equals the app's
   hand-written Figure-9 counts; every build of an app traces the same
   checksum; and a job repeats the first batch's result exactly. *)
let check (kinds : kind array) (first : Layers.outcome array) i (o : Layers.outcome) =
  let k = kinds.(i) in
  let report_ok =
    match o.report with
    | None -> true
    | Some r ->
      r.heap_to_stack = k.app.expected_h2s
      && r.heap_to_shared = k.app.expected_h2shared
      && r.spmdized > 0 = k.app.expected_spmdized
  in
  let checksum_ok =
    Array.for_all Fun.id
      (Array.mapi
         (fun j (other : kind) ->
           (not (String.equal other.app.name k.app.name))
           ||
           match (checksum o, checksum first.(j)) with
           | Some a, Some b -> Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs b)
           | _ -> false)
         kinds)
  in
  o.error = None && report_ok && checksum_ok
  && o.cycles = first.(i).cycles
  && o.sim_instrs = first.(i).sim_instrs

let setup () = Array.of_list (kinds ())

let gen_speedup (kinds : kind array) (first : Layers.outcome array) =
  let cycles app label =
    let r = ref None in
    Array.iteri
      (fun i (k : kind) ->
        if String.equal k.app.name app && String.equal k.config.label label then
          r := Some (float_of_int first.(i).cycles))
      kinds;
    !r
  in
  Measure.geomean
    (List.filter_map
       (fun (app : App.t) ->
         match (cycles app.name Cfg.llvm12.label, cycles app.name Cfg.dev0.label) with
         | Some l, Some d when d > 0.0 -> Some (l /. d)
         | _ -> None)
       Proxyapps.Apps.all)

let run ~seed ~seconds ~traced =
  let setup_s, kinds = Measure.setup_sample setup in
  let setup_samples = ref [ setup_s ] in
  let n = Array.length kinds in
  let first = Array.make n Layers.empty in
  let attempted = ref 0 and failed = ref 0 in
  let checked i o =
    incr attempted;
    if not (check kinds first i o) then incr failed
  in
  (* one untraced pass fills [first], the reference later batches repeat *)
  let samples = Array.make n [] and words = ref [] in
  let run_untraced i =
    (* every job starts from a collected heap, so its time does not depend
       on the garbage the jobs before it in the (seeded) order left *)
    Gc.full_major ();
    let w0 = Measure.minor_words () and t0 = Measure.now () in
    let o = Layers.run ~req:i kinds.(i).job in
    let dt = Measure.now () -. t0 in
    samples.(i) <- dt :: samples.(i);
    words := (Measure.minor_words () -. w0) :: !words;
    (* a set-up sample after every untraced job spreads them over the run;
       setup_s is their fastest *)
    if not traced then setup_samples := fst (Measure.setup_sample setup) :: !setup_samples;
    (o, dt)
  in
  let batch b f = List.iter f (shuffled ~seed ~batch:b n) in
  let t_start = Measure.now () in
  batch 0 (fun i -> first.(i) <- fst (run_untraced i));
  Array.iteri checked first;
  let first_words = !words in
  if not traced then begin
    let batches = ref 1 in
    while !batches < min_batches || Measure.now () -. t_start < float_of_int seconds do
      batch !batches (fun i -> checked i (fst (run_untraced i)));
      incr batches
    done;
    (* Each job kind's fastest time over the batches (Measure.fastest
       says why not its median); the latency figures are statistics of
       those 11 times.  A percentile over all samples would land in the
       gaps between kinds (their times range from about 0.2 s to 5 s) and
       jump between them. *)
    let kind_ms =
      Measure.sorted (Array.to_list (Array.map (fun l -> 1000.0 *. Measure.fastest l) samples))
    in
    let per_kind f = Measure.mean (Array.to_list (Array.map f first)) in
    {
      Run_result.attempted = !attempted;
      failed = !failed;
      spans = [];
      notes =
        [
          Printf.sprintf "fig10-bench: %d batches x %d jobs, %d set-up samples; per-kind fastest ms: %s"
            !batches n (List.length !setup_samples)
            (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") kind_ms)));
        ];
      values =
        [
          ("setup_s", Measure.fastest !setup_samples);
          ("jobs_per_s", 1000.0 /. Measure.mean (Array.to_list kind_ms));
          ("lat_p50_ms", Measure.quantile_sorted kind_ms 0.5);
          (* the slowest job of the batch *)
          ("lat_tail_ms", kind_ms.(n - 1));
          ("gen_speedup", gen_speedup kinds first);
          ("ir_instrs_out", per_kind (fun o -> float_of_int o.Layers.ir_instrs_out));
          ("sim_kcycles_per_job", per_kind (fun o -> float_of_int o.Layers.cycles /. 1000.0));
          ("sim_kinstrs_per_job", per_kind (fun o -> float_of_int o.Layers.sim_instrs /. 1000.0));
          ("alloc_mwords_per_job", Measure.mean first_words /. 1e6);
        ];
    }
  end
  else begin
    (* each round runs every job untraced, then traced *)
    let spans = Spans.create () in
    let rss = Measure.rss_sampler () in
    let t_start = Measure.now () in
    let rounds = ref 0 and untraced_s = ref 0.0 and round = Array.make n Layers.empty in
    while !rounds = 0 || Measure.now () -. t_start < float_of_int seconds do
      batch (!rounds + 1) (fun i ->
          let o, dt = run_untraced i in
          checked i o;
          untraced_s := !untraced_s +. dt;
          let o = Layers.run ~spans ~req:((!rounds * n) + i) kinds.(i).job in
          checked i o;
          if !rounds = 0 then round.(i) <- o);
      incr rounds
    done;
    let all = Spans.spans spans in
    let coverage_ok, values =
      Inproc_layers.metrics ~rounds:!rounds ~spans:all ~round:(Array.to_list round)
        ~untraced_s:!untraced_s
    in
    {
      Run_result.attempted = !attempted + 1;
      failed = (!failed + if coverage_ok then 0 else 1);
      spans = all;
      notes = [ Printf.sprintf "fig10-bench traced: %d rounds x %d jobs" !rounds n ];
      values = ("process.rss_mb", rss ()) :: values;
    }
  end
