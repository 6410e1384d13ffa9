(* The stable public API façade (see the .mli and docs/API.md).

   Every compile is one Harness.Attempt.run — the sequence the paper's
   figures are measured with — rendered to buffers here, so the one-shot
   CLI, the persistent service (mompd), and embedders all run the exact
   same code — byte-identical output is a correctness property the test
   suite pins. *)

let api_version = 3
let schema_version = Observe.Json.schema_version
let with_schema = Observe.Json.with_schema

module Error = Fault.Ompgpu_error
module Json = Observe.Json
module Trace = Observe.Trace
module Injector = Fault.Injector
module Options = Openmpopt.Pass_manager
module Scheme = Frontend.Codegen
module Builds = Harness.Config
module Runner = Harness.Runner
module Tables = Harness.Tables
module App = Proxyapps.App
module Apps = Proxyapps.Apps

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

module Pipeline = Openmpopt.Pass_manager.Pipeline

module Config = struct
  type t = {
    scheme : Frontend.Codegen.scheme;
    pipeline : Pipeline.t option;
    emit_ir : bool;
    run_sim : bool;
    remarks_only : bool;
    want_stats : bool;
    print_trace : bool;
    inject : Fault.Injector.spec list;
    retries : int;
    backoff_s : float;
    backtraces : bool;
  }

  let default =
    {
      scheme = Frontend.Codegen.Simplified;
      pipeline = None;
      emit_ir = true;
      run_sim = false;
      remarks_only = false;
      want_stats = false;
      print_trace = false;
      inject = [];
      retries = 0;
      backoff_s = 0.05;
      backtraces = false;
    }

  let with_scheme scheme t = { t with scheme }
  let with_pipeline pipeline t = { t with pipeline = Some pipeline }
  let pipeline_of t = t.pipeline

  let with_sim t = { t with run_sim = true }
  let with_stats t = { t with want_stats = true }
  let with_trace t = { t with print_trace = true }
  let with_inject inject t = { t with inject }
  let with_retries ?backoff_s retries t =
    { t with retries; backoff_s = Option.value backoff_s ~default:t.backoff_s }

  (* Everything that shapes the compiled bytes, in one stable string.
     [want_stats]/[print_trace] join because they change what is emitted
     (a stats payload, trace lines in diagnostics); [retries]/[backoff_s]
     do not — only successful results are ever cached, and a success's
     bytes do not depend on how many failed attempts preceded it.  The
     injector fingerprint keeps injected and clean compiles apart. *)
  let fingerprint t =
    Harness.Attempt.fingerprint ~scheme:t.scheme ~pipeline:t.pipeline
      ~inject:(Fault.Injector.fingerprint (Fault.Injector.create t.inject))
      [
        Printf.sprintf "emit=%b;sim=%b;remarks-only=%b;stats=%b;trace=%b"
          t.emit_ir t.run_sim t.remarks_only t.want_stats t.print_trace;
      ]
end

(* ------------------------------------------------------------------ *)
(* One-source compilation                                              *)
(* ------------------------------------------------------------------ *)

type compiled = {
  exit_code : int;
  output : string;
  diagnostics : string;
  error : Error.t option;
  stats : Observe.Json.t option;
}

(* One attempt (Harness.Attempt) rendered to buffers: remarks, the pipeline
   report and the trace on stderr, the IR and the simulator lines on
   stdout, every failure settled into a structured error. *)
let compile_attempt ~(config : Config.t) ~injector ~file src : compiled =
  let out_buf = Buffer.create 1024 in
  let err_buf = Buffer.create 1024 in
  let out = Format.formatter_of_buffer out_buf in
  let err = Format.formatter_of_buffer err_buf in
  let finish code error stats =
    Format.pp_print_flush out ();
    Format.pp_print_flush err ();
    {
      exit_code = code;
      output = Buffer.contents out_buf;
      diagnostics = Buffer.contents err_buf;
      error;
      stats;
    }
  in
  (* the trace feeds both --trace (human-readable) and the stats payload *)
  let trace =
    if config.Config.print_trace || config.Config.want_stats then
      Some (Observe.Trace.create ())
    else None
  in
  let result =
    Harness.Attempt.run ~file ~scheme:config.Config.scheme
      ?pipeline:config.Config.pipeline ~machine:Gpusim.Machine.bench_machine ~injector
      ~simulate:config.Config.run_sim ?trace src
  in
  let m, report =
    match result with
    | Ok r -> (Some r.Harness.Attempt.m, r.Harness.Attempt.report)
    | Error f -> (f.Harness.Attempt.m, f.Harness.Attempt.report)
  in
  Option.iter
    (fun report ->
      List.iter
        (fun r -> Fmt.pf err "%s@." (Openmpopt.Remark.to_string r))
        report.Openmpopt.Pass_manager.remarks;
      Fmt.pf err "openmp-opt: %a@." Openmpopt.Pass_manager.pp_report report;
      if config.Config.print_trace then
        Option.iter
          (fun tr ->
            Fmt.pf err "openmp-opt trace:@.";
            List.iter
              (fun e -> Fmt.pf err "  %a@." Observe.Trace.pp_event e)
              (Observe.Trace.events tr))
          trace)
    report;
  if config.Config.emit_ir && not config.Config.remarks_only then
    Option.iter (Fmt.pf out "%a" Ir.Printer.pp_module) m;
  match result with
  | Error { Harness.Attempt.error = e; _ } ->
    (* Every failure exits through here: one stable diagnostic line, the
       taxonomy's exit code, and (opt-in) the captured backtrace. *)
    Fmt.pf err "%s: %s@." file (Error.to_string e);
    (if config.Config.backtraces then
       match e.Error.backtrace with
       | Some bt -> Fmt.pf err "%s@." (String.trim bt)
       | None -> ());
    finish (Error.exit_code e) (Some e) None
  | Ok { Harness.Attempt.sim; _ } ->
    Option.iter
      (fun sim ->
        Fmt.pf out "; kernel cycles: %d@." (Gpusim.Interp.total_kernel_cycles sim);
        List.iter
          (fun (s : Gpusim.Interp.launch_stats) ->
            Fmt.pf out
              "; %s: cycles=%d regs=%d smem=%dB heap=%dB instrs=%d \
               barriers=%d atomics=%d div-branches=%d@."
              s.Gpusim.Interp.kernel_name s.Gpusim.Interp.cycles
              s.Gpusim.Interp.registers s.Gpusim.Interp.shared_bytes
              s.Gpusim.Interp.heap_high_water s.Gpusim.Interp.instructions
              s.Gpusim.Interp.barriers
              (s.Gpusim.Interp.atomics_global + s.Gpusim.Interp.atomics_shared)
              s.Gpusim.Interp.divergent_branches)
          sim.Gpusim.Interp.kernel_stats;
        Fmt.pf out "; trace:%a@."
          (Fmt.list ~sep:Fmt.sp Gpusim.Rvalue.pp)
          (Gpusim.Interp.trace_values sim))
      sim;
    let stats =
      if not config.Config.want_stats then None
      else
        Some
          (with_schema
             (Observe.Json.Obj
                ([
                   ("file", Observe.Json.String file);
                   ( "scheme",
                     Observe.Json.String
                       (Frontend.Codegen.scheme_name config.Config.scheme) );
                   ( "report",
                     match report with
                     | Some r -> Openmpopt.Pass_manager.report_to_json r
                     | None -> Observe.Json.Null );
                   ( "passes",
                     match trace with
                     | Some tr -> Observe.Trace.to_json tr
                     | None -> Observe.Json.List [] );
                 ]
                @
                match sim with
                | Some sim -> [ ("sim", Gpusim.Stats.json_of_sim sim) ]
                | None -> [])))
    in
    finish 0 None stats

let compile_buffered ?(config = Config.default) ?(file = "<source>") src =
  (* Per-(file, attempt) injector: the coin sequence a source sees does not
     depend on batch order or domain count, and a retry draws fresh coins.
     [stall] exercises the pool watchdog when pool-stall is armed. *)
  let base = Fault.Injector.create config.Config.inject in
  let rec attempt_loop n =
    let injector = Fault.Injector.derive base (Printf.sprintf "%s#%d" file n) in
    Fault.Injector.stall injector;
    let r = compile_attempt ~config ~injector ~file src in
    match r.error with
    | Some e when n < config.Config.retries && Error.is_transient e ->
      Unix.sleepf (config.Config.backoff_s *. float_of_int (1 lsl n));
      attempt_loop (n + 1)
    | _ -> r
  in
  attempt_loop 0

let compile ?config ?file src =
  let r = compile_buffered ?config ?file src in
  match r.error with Some e -> Result.Error e | None -> Result.Ok r

(* ------------------------------------------------------------------ *)
(* Caching                                                             *)
(* ------------------------------------------------------------------ *)

(* v3: v2 lived in bin/mompc.ml and did not cover the stats/trace
   selection (those runs bypassed the disk cache entirely); the service's
   in-memory cache does cache them, so the selection joins the key.
   v4: the file label joins the key.  Diagnostics embed it (remarks,
   error lines), so two compiles of the same source under different
   labels produce different bytes — the conformance corpus caught the
   daemon's warm cache serving one request's file label to another
   request at scale.
   v6: optimization identity moved from the options record's fingerprint
   to the effective pipeline's (api_version 2) — same behavior now maps
   to the same key whether it was requested via the deprecated toggles
   or a first-class pipeline, and explicit pipelines (tiers, custom
   specs) are addressable at all. *)
let cache_version = "mompc-cache-v6"

let cache_key ~file ~config ~source =
  Harness.Attempt.key ~version:cache_version ~file ~source (Config.fingerprint config)

let compiled_to_json (r : compiled) =
  Observe.Json.Obj
    ([
       ("code", Observe.Json.Int r.exit_code);
       ("out", Observe.Json.String r.output);
       ("err", Observe.Json.String r.diagnostics);
     ]
    @ (match r.error with
      | Some e -> [ ("error", Error.to_json e) ]
      | None -> [])
    @
    match r.stats with Some s -> [ ("stats", s) ] | None -> [])

let compiled_of_json j =
  match
    ( Option.bind (Observe.Json.member "code" j) Observe.Json.to_int,
      Option.bind (Observe.Json.member "out" j) Observe.Json.to_str,
      Option.bind (Observe.Json.member "err" j) Observe.Json.to_str )
  with
  | Some code, Some out, Some err ->
    (* the structured error does not round-trip as a value (messages and
       kinds do, in the JSON); cached entries are successes anyway *)
    Some
      {
        exit_code = code;
        output = out;
        diagnostics = err;
        error = None;
        stats = Observe.Json.member "stats" j;
      }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The batch driver (mompc FILE...)                                    *)
(* ------------------------------------------------------------------ *)

let errored ~file e =
  {
    exit_code = Error.exit_code e;
    output = "";
    diagnostics = Printf.sprintf "%s: %s\n" file (Error.to_string e);
    error = Some e;
    stats = None;
  }

let compile_files ?(jobs = 1) ?cache_dir ?cache_max_bytes ?cache_max_entries
    ?watchdog_s ?(on_cache_corrupt = fun ~key:_ ~path:_ -> ()) ~config files =
  let base_injector = Fault.Injector.create config.Config.inject in
  let cache =
    (* stats payloads and --trace lines embed wall times: a cached replay
       would be byte-stable but would serve one run's times forever, so
       those runs bypass the disk cache (the in-memory service cache makes
       the opposite choice; see docs/API.md). *)
    if (not config.Config.want_stats) && not config.Config.print_trace then
      Option.map
        (fun dir ->
          Sched.Disk_cache.create ~injector:base_injector
            ~on_corrupt:on_cache_corrupt ?max_bytes:cache_max_bytes
            ?max_entries:cache_max_entries ~dir ())
        cache_dir
    else None
  in
  let one file =
    match In_channel.with_open_text file In_channel.input_all with
    | exception Sys_error msg ->
      errored ~file
        (Error.make Error.Internal ~phase:Error.Driver msg)
    | src -> (
      match cache with
      | None -> compile_buffered ~config ~file src
      | Some cache -> (
        let key = cache_key ~file ~config ~source:src in
        match
          Option.bind (Sched.Disk_cache.find cache ~key) (fun s ->
              match Observe.Json.of_string s with
              | Result.Ok j -> compiled_of_json j
              | Result.Error _ -> None)
        with
        | Some r -> r
        | None ->
          let r = compile_buffered ~config ~file src in
          (* failed compiles are not cached: they are cheap and the user
             is about to edit the file anyway *)
          if r.exit_code = 0 then
            Sched.Disk_cache.store cache ~key
              ~data:(Observe.Json.to_string (compiled_to_json r));
          r))
  in
  if jobs > 1 && List.length files > 1 then
    Sched.Pool.with_pool ~domains:jobs (fun pool ->
        match watchdog_s with
        | None -> Sched.Pool.map_list pool one files
        | Some watchdog_s ->
          (* The guard turns a hung job into a structured Timeout; the
             per-file retry loop already lives inside [compile_buffered],
             so the guard itself does not retry. *)
          Sched.Pool.map_list_guarded pool ~watchdog_s
            (fun ~attempt:_ file -> one file)
            files
          |> List.map2
               (fun file -> function
                 | Result.Ok r -> r
                 | Result.Error (e, bt) ->
                   errored ~file
                     (Harness.Errors.classify ~phase:Error.Scheduling e bt))
               files)
  else List.map one files
