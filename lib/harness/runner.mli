(** Compile + optimize + simulate one proxy application under one build
    configuration ({!Attempt.run}), collecting the metrics the paper
    reports. *)

type metrics = {
  cycles : int;
  smem_bytes : int;
  registers : int;
  heap_high_water : int;
  instructions : int;
  barriers : int;
  atomics : int;  (** global + shared atomic RMW operations executed *)
  divergent_branches : int;  (** structural divergence events (cost model) *)
  indirect_calls : int;
  runtime_calls : int;
  checksum : float option;  (** the app's traced result, for cross-checking *)
  report : Openmpopt.Pass_manager.report option;  (** for Dev builds *)
  kernel_stats : Gpusim.Interp.launch_stats list;
      (** per-launch cost-model counters, oldest launch first *)
  trace : Observe.Trace.t option;
      (** per-pass pipeline events; present only for Dev builds run with
          [with_trace] *)
}

type outcome =
  | Ok of metrics
  | Err of Fault.Ompgpu_error.t
      (** any failure, as a structured taxonomy value: match on [kind]
          (e.g. [Oom] for the device-heap exhaustion of RSBench, Fig. 11b);
          the raise-point backtrace is preserved when recording is on *)

type measurement = { app : string; config : Config.t; outcome : outcome }

val cache_key :
  machine:Gpusim.Machine.t ->
  scale:Proxyapps.App.scale ->
  ?inject:string ->
  Proxyapps.App.t ->
  Config.t ->
  string
(** Content address of one job, derived by {!Attempt.key}: the source the
    build lowers (which embeds the scale), the file label, the scheme, the
    pipeline fingerprint, the fault-injector fingerprint ([inject],
    default [""] = no injection) and the machine description.  Exposed for
    the test suite; docs/SCHEDULER.md documents the derivation. *)

val run :
  ?machine:Gpusim.Machine.t ->
  ?scale:Proxyapps.App.scale ->
  ?with_trace:bool ->
  ?cache:outcome Sched.Cache.t ->
  ?scratch:Gpusim.Scratch.t ->
  ?perf:Observe.Perf.t ->
  ?attempt:int ->
  Proxyapps.App.t ->
  Config.t ->
  measurement
(** Defaults: [Gpusim.Machine.bench_machine], [Proxyapps.App.Bench],
    [with_trace:false].  Tracing is off by default so that bechamel
    micro-benchmarks measure the pipeline itself, not the instrumentation.

    [scratch] recycles simulation arenas across the jobs of one owner (a
    pool worker); simulations stay byte-identical to the allocate-per-job
    path.  The batch runner threads one scratch per worker automatically —
    pass this only when driving [run] directly from a single owner.

    [perf] attributes each phase (frontend, optimize, verify, simulate)
    to the profile collector under the stack [app/config-label; phase];
    `make perf` renders the collected samples as a flamegraph and an
    allocation profile (docs/PERF.md).  Safe to share across pool
    domains.

    Never raises: every failure settles into an [Err] outcome.  When the
    config arms fault sites ([Config.with_inject]), a per-(job, [attempt])
    injector is derived and threaded through the pass manager and the
    simulator; [attempt] (default 0) makes retried jobs draw fresh coins.

    The job is one {!Attempt.run}: front end, verify, the build's
    pipeline (Dev builds), verify, simulate.  With [cache], a hit skips
    the whole attempt; a cached outcome carries the trace and report of
    the job that computed it. *)

val run_configs :
  ?machine:Gpusim.Machine.t ->
  ?scale:Proxyapps.App.scale ->
  ?with_trace:bool ->
  ?pool:Sched.Pool.t ->
  ?cache:outcome Sched.Cache.t ->
  ?perf:Observe.Perf.t ->
  ?watchdog_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  Proxyapps.App.t ->
  Config.t list ->
  measurement list
(** Results in config order regardless of execution interleaving. *)

val run_batch :
  ?machine:Gpusim.Machine.t ->
  ?scale:Proxyapps.App.scale ->
  ?with_trace:bool ->
  ?pool:Sched.Pool.t ->
  ?cache:outcome Sched.Cache.t ->
  ?perf:Observe.Perf.t ->
  ?watchdog_s:float ->
  ?retries:int ->
  ?backoff_s:float ->
  (Proxyapps.App.t * Config.t) list ->
  measurement list
(** Compile+optimize+simulate every (app, config) pair — concurrently when
    [pool] is given, each job with its own trace and remark sink — and
    return measurements in input order, so sequential and parallel batches
    render byte-identical tables.

    Supervision: [watchdog_s] bounds each job's wall time (pool runs only;
    a hung job settles to [Err] with kind [Timeout]); failures whose
    [Fault.Ompgpu_error.is_transient] holds are retried up to [retries]
    times (default 0) with exponential backoff ([backoff_s]), each attempt
    drawing fresh injector coins.  No exception escapes a batch. *)

val relative : baseline:measurement -> measurement -> float option
(** Performance relative to [baseline] (the paper normalizes to LLVM 12):
    greater than 1 means faster. *)

val json_of_measurement : measurement -> Observe.Json.t
(** One measurement as a machine-readable perf record: simulator counters,
    report counters, per-kernel cost-model stats and (when traced) the
    per-pass pipeline events.  bench/main.ml collects these into
    BENCH_observe.json. *)
