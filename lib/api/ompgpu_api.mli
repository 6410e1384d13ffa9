(** The stable public API of the ompgpu stack.

    Everything a client needs — one-shot source compilation, batch
    compilation, proxy-app measurement, the build matrix, stats/trace
    types and the error taxonomy — behind one versioned module, so that
    [mompc], [mompd], [run_experiments], [bench] and external embedders
    share a single surface instead of reaching into [Harness.Runner] or
    [Openmpopt.Pass_manager] directly.

    Versioning and deprecation policy (docs/API.md):
    - {!api_version} names this module's surface; additive changes keep
      the version, breaking changes bump it and keep the old entry points
      as deprecated aliases for one release.
    - {!schema_version} stamps every JSON payload the stack emits
      ([--stats-json], [BENCH_observe.json], per-measurement records);
      consumers reject payloads they do not understand.
    - The service wire protocol is versioned independently
      ([Service.Protocol.version], docs/API.md). *)

val api_version : int
(** The façade's surface version: 3.  Version 2 made pass pipelines
    first-class ({!Pipeline}, [Config.pipeline], cache v6) and kept the
    version-1 toggle entry points as deprecated aliases for one release;
    version 3 removes them ([Config.optimized], the [Config.options]
    field, [Options.run], [Options.all_disabled]).  Build a pipeline
    instead — [Pipeline.of_options] maps a toggle record onto one. *)

val schema_version : int
(** Schema stamp of every JSON payload emitted by the stack: 2. *)

val with_schema : Observe.Json.t -> Observe.Json.t
(** Prepend [("schema", Int schema_version)] to a JSON object (other
    values are returned unchanged). *)

(** {1 Re-exported building blocks}

    Aliases, not copies: the types are equal to the underlying ones, so
    existing code can migrate piecemeal. *)

module Error = Fault.Ompgpu_error
(** The structured error taxonomy (kinds, phases, exit codes). *)

module Json = Observe.Json
(** The JSON tree every stats/trace payload is built from. *)

module Trace = Observe.Trace
(** Per-pass pipeline events ([--trace], the ["passes"] stats member). *)

module Injector = Fault.Injector
(** Deterministic fault injection ([--inject] specs). *)

module Options = Openmpopt.Pass_manager
(** The pass driver: [Options.run_pipeline], the report and its counters
    ([Options.report]), and the paper artifact's toggle record
    ([Options.options], [Options.default_options]) that
    [Pipeline.of_options] maps onto a pipeline. *)

module Pipeline = Openmpopt.Pass_manager.Pipeline
(** First-class pass pipelines (api_version 2): named tiers
    ([Pipeline.fast], [Pipeline.full]), custom ordered pass lists, and the
    stable textual spec syntax ([Pipeline.of_string] /
    [Pipeline.to_string]) accepted by [mompc --pipeline] and protocol v2's
    ["pipeline"] member. *)

module Scheme = Frontend.Codegen
(** Globalization schemes ([Scheme.Simplified] (LLVM 13),
    [Scheme.Legacy] (LLVM 12), [Scheme.Cuda]). *)

module Builds = Harness.Config
(** The evaluation build matrix (Figure 11 legends): [Builds.dev0],
    [Builds.llvm12], [Builds.fig10_configs], ... *)

module Runner = Harness.Runner
(** Proxy-app measurement: [Runner.run], [Runner.run_batch],
    [Runner.json_of_measurement]. *)

module Tables = Harness.Tables
(** Renderers for the paper's figures and tables. *)

module App = Proxyapps.App
module Apps = Proxyapps.Apps

(** {1 Source compilation} *)

(** A source-compile configuration: what [mompc]'s flags select, as a
    value.  Build one from {!Config.default} with the [with_*] builders. *)
module Config : sig
  type t = {
    scheme : Frontend.Codegen.scheme;  (** globalization scheme *)
    pipeline : Openmpopt.Pass_manager.Pipeline.t option;
        (** [Some _] runs this pipeline; [None] skips optimization *)
    emit_ir : bool;  (** print the final MiniIR to the output *)
    run_sim : bool;  (** execute on the GPU simulator ([--run]) *)
    remarks_only : bool;  (** suppress IR output; keep remarks *)
    want_stats : bool;
        (** collect the stats JSON payload ({!compiled.stats}) *)
    print_trace : bool;  (** append the per-pass trace to diagnostics *)
    inject : Fault.Injector.spec list;  (** armed fault sites *)
    retries : int;  (** bounded retry on transient failures *)
    backoff_s : float;  (** base retry backoff (doubles per attempt) *)
    backtraces : bool;
        (** append the raise-point backtrace under diagnostics; off by
            default so diagnostics stay byte-stable across runs *)
  }

  val default : t
  (** [Simplified] scheme, no optimization, emit IR, no simulation, no
      stats/trace/injection, no retries, backoff 0.05s, no backtraces. *)

  val with_scheme : Frontend.Codegen.scheme -> t -> t

  val with_pipeline : Openmpopt.Pass_manager.Pipeline.t -> t -> t
  (** Run this pipeline ([Pipeline.full] is the paper's default). *)

  val pipeline_of : t -> Openmpopt.Pass_manager.Pipeline.t option
  (** The pipeline the config runs ([None]: no optimization). *)

  val with_sim : t -> t
  val with_stats : t -> t
  val with_trace : t -> t

  val with_inject : Fault.Injector.spec list -> t -> t
  (** Injection joins {!val:cache_key}, so injected and clean compiles
      never share cached results. *)

  val with_retries : ?backoff_s:float -> int -> t -> t

  val fingerprint : t -> string
  (** Content identity of everything in the config that shapes the
      compiled bytes ([Harness.Attempt.fingerprint] plus the output
      flags); part of {!val:cache_key}. *)
end

(** One compiled source: the process exit code it asks for plus everything
    it wants on stdout/stderr.  Buffering instead of printing is what makes
    both parallel batches and the compile service byte-identical to a
    sequential one-shot run: formatters are never shared, output order is
    the caller's decision. *)
type compiled = {
  exit_code : int;  (** 0 on success, else the taxonomy exit code *)
  output : string;  (** stdout payload (IR, simulator statistics) *)
  diagnostics : string;
      (** stderr payload: remarks, the pipeline report, the rendered
          error line on failure *)
  error : Error.t option;  (** the structured failure, when [exit_code <> 0] *)
  stats : Observe.Json.t option;
      (** the stats payload (schema {!schema_version}), when the config
          sets [want_stats] and the compile got far enough to collect it *)
}

val errored : file:string -> Error.t -> compiled
(** A {!compiled} that settles a structured failure without running the
    compiler: exit code, the one-line diagnostic a one-shot driver prints
    ([file: rendered-error\n]) and the error itself.  Used by the batch
    driver for unreadable files and by the service for shed and timed-out
    requests — the bytes match what [compile_buffered] would emit. *)

val compile_buffered : ?config:Config.t -> ?file:string -> string -> compiled
(** Compile one MiniOMP source (the exact semantics of one [mompc] file):
    one [Harness.Attempt.run] — lower with the config's scheme, verify,
    optionally optimize and verify, optionally simulate on
    [Gpusim.Machine.bench_machine] — rendered to buffers, retrying
    transient failures per the config.  [file] labels
    diagnostics and seeds the per-(file, attempt) fault injector (default
    ["<source>"]).  Never raises. *)

val compile : ?config:Config.t -> ?file:string -> string -> (compiled, Error.t) result
(** {!compile_buffered} as a result: [Error e] for any failure (the
    taxonomy value), [Ok c] with [c.exit_code = 0] otherwise.  The [Error]
    side still carries nothing but the structured error — use
    {!compile_buffered} when the partially-accumulated diagnostics bytes
    matter (the CLIs and the service do). *)

val cache_key : file:string -> config:Config.t -> source:string -> string
(** Content address of one source compile, derived by
    [Harness.Attempt.key]: digest of the cache version, the file label,
    the source text and the config fingerprint (scheme, pipeline,
    fault-injector fingerprint, emission flags, stats/trace selection).
    Shared by the [--cache-dir] disk cache and the service's warm
    in-memory cache.  The file label joins the key because diagnostics
    embed it: the same source compiled as [a.c] and as [b.c] produces
    different bytes, and the caches must never alias the two. *)

val compiled_to_json : compiled -> Observe.Json.t
val compiled_of_json : Observe.Json.t -> compiled option
(** Round-trip a compiled result for the disk cache and the wire.  Stats
    payloads survive the trip; the [error] field travels as its taxonomy
    JSON. *)

val compile_files :
  ?jobs:int ->
  ?cache_dir:string ->
  ?cache_max_bytes:int ->
  ?cache_max_entries:int ->
  ?watchdog_s:float ->
  ?on_cache_corrupt:(key:string -> path:string -> unit) ->
  config:Config.t ->
  string list ->
  compiled list
(** The batch driver behind [mompc FILE...]: read each file, compile —
    on [jobs] > 1 scheduler domains when the batch has several files —
    and return per-file results in input order (byte-identical at every
    [jobs]).  [cache_dir] memoizes successful compiles on disk,
    content-addressed by {!val:cache_key}; stats/trace runs bypass the
    disk cache (their payloads embed wall times).
    [cache_max_bytes]/[cache_max_entries] bound the cache directory —
    oldest entries are evicted on store ({!Sched.Disk_cache}), and a
    failing store (full disk) is absorbed there, never surfaced here.
    [watchdog_s] settles a
    hung job as a structured timeout (pool runs only).  An unreadable
    file settles to a [Driver]-phase error, never an exception. *)
