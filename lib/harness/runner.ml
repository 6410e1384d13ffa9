(* Compile + optimize + simulate one proxy application under one build
   configuration, collecting the metrics the paper reports. *)

type metrics = {
  cycles : int;
  smem_bytes : int;
  registers : int;
  heap_high_water : int;
  instructions : int;
  barriers : int;
  atomics : int;
  divergent_branches : int;
  indirect_calls : int;
  runtime_calls : int;
  checksum : float option;  (* the app's traced result, for cross-checking *)
  report : Openmpopt.Pass_manager.report option;
  kernel_stats : Gpusim.Interp.launch_stats list;  (* oldest first *)
  trace : Observe.Trace.t option;  (* present when run with [with_trace] *)
}

(* Every failure is one structured error: kind, phase, optional location,
   message and (when recording is on) the raise-point backtrace.  Match on
   [e.kind] where the old [Oom]/[Error] distinction mattered. *)
type outcome = Ok of metrics | Err of Fault.Ompgpu_error.t

type measurement = { app : string; config : Config.t; outcome : outcome }

(* What a build lowers and how: the scheme, the source and the pipeline. *)
let lowering (app : Proxyapps.App.t) scale (config : Config.t) =
  let omp () = app.Proxyapps.App.omp_source scale in
  match config.Config.build with
  | Config.Llvm12 -> (Frontend.Codegen.Legacy, omp (), None)
  | Config.Dev_noopt -> (Frontend.Codegen.Simplified, omp (), None)
  | Config.Dev options ->
    ( Frontend.Codegen.Simplified,
      omp (),
      Some (Openmpopt.Pass_manager.Pipeline.of_options options) )
  | Config.Cuda -> (Frontend.Codegen.Cuda, app.Proxyapps.App.cuda_source scale, None)

let file_of (app : Proxyapps.App.t) = app.Proxyapps.App.name ^ ".c"

let checksum_of_trace sim =
  match Gpusim.Interp.trace_values sim with
  | [ Gpusim.Rvalue.F v ] -> Some v
  | [ Gpusim.Rvalue.I v ] -> Some (Int64.to_float v)
  | _ -> None

let metrics_of ~trace report sim =
  let stats = sim.Gpusim.Interp.kernel_stats in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 stats in
  {
    cycles = Gpusim.Interp.total_kernel_cycles sim;
    smem_bytes = Gpusim.Interp.max_shared_bytes sim;
    registers = Gpusim.Interp.max_registers sim;
    heap_high_water =
      List.fold_left
        (fun acc (s : Gpusim.Interp.launch_stats) -> max acc s.heap_high_water)
        0 stats;
    instructions = sum (fun s -> s.Gpusim.Interp.instructions);
    barriers = sum (fun s -> s.Gpusim.Interp.barriers);
    atomics =
      sum (fun s -> s.Gpusim.Interp.atomics_global + s.Gpusim.Interp.atomics_shared);
    divergent_branches = sum (fun s -> s.Gpusim.Interp.divergent_branches);
    indirect_calls = sum (fun s -> s.Gpusim.Interp.indirect_calls);
    runtime_calls = sum (fun s -> s.Gpusim.Interp.runtime_calls);
    checksum = checksum_of_trace sim;
    report;
    kernel_stats = List.rev stats;
    trace;
  }

(* Machine descriptions are immutable records of scalars, so marshalling is
   a deterministic content fingerprint.  Batches hash the same machine for
   every job, so one physical-equality slot removes the rehash. *)
let fingerprint_memo : (Gpusim.Machine.t * string) option ref = ref None

let machine_fingerprint (machine : Gpusim.Machine.t) =
  match !fingerprint_memo with
  | Some (m, fp) when m == machine -> fp
  | _ ->
    let fp = Digest.to_hex (Digest.string (Marshal.to_string machine [])) in
    fingerprint_memo := Some (machine, fp);
    fp

let scale_fingerprint = function
  | Proxyapps.App.Tiny -> "tiny"
  | Proxyapps.App.Bench -> "bench"

(* The content address of one job (docs/SCHEDULER.md): Attempt.key over the
   source the build lowers, the file label, the scheme, the pipeline, the
   (derived) fault-injector fingerprint — an injected run must never share
   a cached result with a clean one, nor with a different seed — and the
   simulated machine.  The scale is in the source text. *)
let key ~machine ~inject app (scheme, source, pipeline) =
  Attempt.key ~version:"runner" ~file:(file_of app) ~source
    (Attempt.fingerprint ~scheme ~pipeline ~inject [ machine_fingerprint machine ])

let cache_key ~machine ~scale ?(inject = "") app config =
  key ~machine ~inject app (lowering app scale config)

(* The per-job injector: derived from the config's specs with a tag naming
   the job AND the attempt, so (a) the coin sequence one job sees is
   independent of how pool domains interleave jobs, and (b) a retried job
   draws fresh coins — that is what makes bounded retry worthwhile. *)
let injector_for ~scale ~attempt (app : Proxyapps.App.t) (config : Config.t) =
  let base = Fault.Injector.create config.Config.inject in
  if Fault.Injector.is_none base then base
  else
    Fault.Injector.derive base
      (Printf.sprintf "%s|%s|%s|%d" app.Proxyapps.App.name
         (Config.build_fingerprint config.Config.build)
         (scale_fingerprint scale) attempt)

let run ?(machine = Gpusim.Machine.bench_machine) ?(scale = Proxyapps.App.Bench)
    ?(with_trace = false) ?cache ?scratch ?perf ?(attempt = 0)
    (app : Proxyapps.App.t) (config : Config.t) : measurement =
  let plabel = app.Proxyapps.App.name ^ "/" ^ config.Config.label in
  (* each job owns a fresh trace (and, inside the pass manager, a fresh
     remark sink), so concurrent jobs never interleave their events *)
  let trace = if with_trace then Some (Observe.Trace.create ()) else None in
  let injector = injector_for ~scale ~attempt app config in
  (* the Pool_stall site: an injected stall at job start exercises the
     batch watchdog without touching any compute layer *)
  Fault.Injector.stall injector;
  let ((scheme, source, pipeline) as lowered) = lowering app scale config in
  let compute () =
    match
      Attempt.run ~file:(file_of app) ~scheme ?pipeline ~machine ~injector ~simulate:true
        ?trace ?scratch
        ?perf:(Option.map (fun p -> (p, plabel)) perf)
        source
    with
    | Error f -> Err f.Attempt.error
    | Ok { Attempt.sim = None; _ } -> assert false (* ~simulate:true *)
    | Ok { Attempt.report; sim = Some sim; _ } ->
      let ok = Ok (metrics_of ~trace report sim) in
      Gpusim.Interp.release sim;
      ok
  in
  let outcome =
    match cache with
    | None -> compute ()
    | Some cache ->
      let inject = Fault.Injector.fingerprint injector in
      Sched.Cache.find_or_compute cache ~key:(key ~machine ~inject app lowered) compute
  in
  { app = app.Proxyapps.App.name; config; outcome }

let is_transient_outcome = function
  | Err e -> Fault.Ompgpu_error.is_transient e
  | Ok _ -> false

(* One scratch per executing domain (pool workers, and the awaiting caller
   when the pool has it help run jobs).  Domain-local state is single-owner
   by construction — no synchronization, and a long-lived domain (the
   compile daemon's) reuses its arenas across whole batches.  The
   sequential batch branch below never touches this: it stays the
   stateless allocate-per-job reference that the differential and
   conformance suites compare against. *)
let scratch_key = Domain.DLS.new_key (fun () -> Gpusim.Scratch.create ())
let domain_scratch () = Domain.DLS.get scratch_key

(* The batch entry point of the scheduler: compile+optimize+simulate every
   (app, config) pair, concurrently when a pool is given.  Results are in
   input order, so sequential and parallel runs render identical tables.

   Supervision: [watchdog_s] bounds each job's wall time (pool runs only —
   a sequential run cannot be preempted); transient failures (timeouts,
   allocation faults) are retried up to [retries] times with exponential
   backoff, each attempt drawing fresh injector coins.  No exception
   escapes a batch: every job settles to a measurement. *)
let run_batch ?machine ?scale ?with_trace ?pool ?cache ?perf ?watchdog_s
    ?(retries = 0) ?backoff_s jobs =
  match pool with
  | None ->
    let rec attempt n (app, config) =
      let m = run ?machine ?scale ?with_trace ?cache ?perf ~attempt:n app config in
      if n < retries && is_transient_outcome m.outcome then begin
        (match backoff_s with
        | Some b -> Unix.sleepf (b *. float_of_int (1 lsl n))
        | None -> ());
        attempt (n + 1) (app, config)
      end
      else m
    in
    List.map (attempt 0) jobs
  | Some pool ->
    let job ~attempt (app, config) =
      let scratch = Some (domain_scratch ()) in
      let m =
        run ?machine ?scale ?with_trace ?cache ?scratch ?perf ~attempt app config
      in
      (* surface transient failures as exceptions so the pool's guard can
         apply its retry policy; terminal failures settle immediately *)
      match m.outcome with
      | Err e when Fault.Ompgpu_error.is_transient e -> raise (Fault.Ompgpu_error.Error e)
      | _ -> m
    in
    List.map2
      (fun (app, config) result ->
        match result with
        | Result.Ok m -> m
        | Result.Error (e, bt) ->
          {
            app = app.Proxyapps.App.name;
            config;
            outcome = Err (Errors.classify ~phase:Fault.Ompgpu_error.Scheduling e bt);
          })
      jobs
      (Sched.Pool.map_list_guarded pool ?watchdog_s ~retries ?backoff_s job jobs)

(* Run a list of configurations for one app; the result list is in config
   order regardless of the execution interleaving. *)
let run_configs ?machine ?scale ?with_trace ?pool ?cache ?perf ?watchdog_s
    ?retries ?backoff_s app configs =
  run_batch ?machine ?scale ?with_trace ?pool ?cache ?perf ?watchdog_s ?retries
    ?backoff_s
    (List.map (fun config -> (app, config)) configs)

(* Relative performance versus a baseline measurement (the paper normalizes
   to LLVM 12): >1 means faster than the baseline. *)
let relative ~baseline m =
  match (baseline.outcome, m.outcome) with
  | Ok b, Ok x when x.cycles > 0 -> Some (float_of_int b.cycles /. float_of_int x.cycles)
  | _ -> None

(* One measurement as a machine-readable perf record (bench/main.ml appends
   these to BENCH_observe.json). *)
let json_of_measurement (m : measurement) : Observe.Json.t =
  let base =
    [
      ("schema", Observe.Json.Int Observe.Json.schema_version);
      ("app", Observe.Json.String m.app);
      ("config", Observe.Json.String m.config.Config.label);
    ]
  in
  match m.outcome with
  | Err e ->
    Observe.Json.Obj
      (base
      @ [
          ("outcome", Observe.Json.String "error");
          ("error", Fault.Ompgpu_error.to_json e);
        ])
  | Ok x ->
    Observe.Json.Obj
      (base
      @ [
          ("outcome", Observe.Json.String "ok");
          ("cycles", Observe.Json.Int x.cycles);
          ("smem_bytes", Observe.Json.Int x.smem_bytes);
          ("registers", Observe.Json.Int x.registers);
          ("heap_high_water", Observe.Json.Int x.heap_high_water);
          ("instructions", Observe.Json.Int x.instructions);
          ("barriers", Observe.Json.Int x.barriers);
          ("atomics", Observe.Json.Int x.atomics);
          ("divergent_branches", Observe.Json.Int x.divergent_branches);
          ("indirect_calls", Observe.Json.Int x.indirect_calls);
          ("runtime_calls", Observe.Json.Int x.runtime_calls);
          ( "checksum",
            match x.checksum with
            | Some c -> Observe.Json.Float c
            | None -> Observe.Json.Null );
          ( "report",
            match x.report with
            | Some r -> Openmpopt.Pass_manager.report_to_json r
            | None -> Observe.Json.Null );
          ( "kernels",
            Observe.Json.List (List.map Gpusim.Stats.json_of_launch x.kernel_stats) );
          ( "passes",
            match x.trace with
            | Some tr -> Observe.Trace.to_json tr
            | None -> Observe.Json.List [] );
        ])
