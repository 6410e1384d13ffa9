(* mompc: the MiniOMP compiler driver — a thin client of the Ompgpu_api
   façade.

   Parses MiniOMP source files, lowers them with the selected globalization
   scheme, optionally runs the OpenMP-aware optimizer, prints remarks, and
   emits the resulting MiniIR.  Optionally runs each program on the GPU
   simulator and reports kernel statistics.

   Several files compile as one batch: [-j N] runs them on N scheduler
   domains (per-file output is buffered and printed in input order, so
   parallel output is byte-identical to sequential), and [--cache-dir DIR]
   memoizes each file's full compiler output on disk, content-addressed by
   source text, scheme and pass options.  [--daemon SOCKET] sends the
   compiles to a running [mompd] instead, sharing its warm caches — the
   printed bytes are identical either way.

   The disable flags mirror the paper artifact's LLVM flags
   openmp-opt-disable-... . *)

open Cmdliner
module A = Ompgpu_api

let scheme_conv =
  let parse = function
    | "simplified" -> Ok Frontend.Codegen.Simplified
    | "legacy" -> Ok Frontend.Codegen.Legacy
    | "cuda" -> Ok Frontend.Codegen.Cuda
    | s -> Error (`Msg ("unknown scheme: " ^ s))
  in
  let print ppf s = Fmt.string ppf (Frontend.Codegen.scheme_name s) in
  Arg.conv (parse, print)

(* Compile the batch through a running daemon, resiliently: each file
   gets the client's per-request deadline, bounded jittered retries over
   transient failures (dropped/reset connections, torn frames, shed
   requests) and transparent reconnect.  If the daemon still cannot
   settle a request — or no daemon is reachable at all — the file
   degrades silently to the in-process path, whose bytes are identical
   by construction, so `mompc --daemon` never fails merely because the
   daemon is down.  Unreadable files settle locally either way. *)
let compile_via_daemon ~socket_path ~config files =
  (* a daemon hanging up mid-request must surface as a retryable
     [Sys_error] on the session, not a process-killing SIGPIPE *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let session = Service.Client.session ~socket_path () in
  Fun.protect
    ~finally:(fun () -> Service.Client.session_close session)
    (fun () ->
      List.map
        (fun file ->
          match In_channel.with_open_text file In_channel.input_all with
          | exception Sys_error msg ->
            A.errored ~file (A.Error.make A.Error.Internal ~phase:A.Error.Driver msg)
          | src -> (
            match Service.Client.session_compile session ~file ~config src with
            | Ok r -> r
            | Error _ -> A.compile_buffered ~config ~file src))
        files)

let run_compile files scheme pipeline_spec optimize no_spmd no_deglob no_csm
    no_fold no_group emit_ir run_sim remarks_only stats_json print_trace jobs
    cache_dir cache_max_bytes cache_max_entries inject retries backoff watchdog
    backtrace daemon =
  (* Backtrace printing is opt-in (OMPGPU_BACKTRACE=1 or --backtrace):
     diagnostics must be byte-stable across runs — the CI fault matrix
     compares two same-seed runs — and backtraces are not. *)
  let backtraces = backtrace || Sys.getenv_opt "OMPGPU_BACKTRACE" = Some "1" in
  if backtraces then Printexc.record_backtrace true;
  (* A malformed --pipeline spec is a client error of the same class the
     daemon rejects with Bad_request, so the one-shot driver settles it
     under the same taxonomy exit code.  -O and its toggles map onto the
     equivalent pipeline. *)
  let pipeline =
    match pipeline_spec with
    | None when optimize ->
      Ok
        (Some
           (A.Pipeline.of_options
              {
                A.Options.default_options with
                disable_spmdization = no_spmd;
                disable_deglobalization = no_deglob;
                disable_state_machine_rewrite = no_csm;
                disable_folding = no_fold;
                disable_guard_grouping = no_group;
              }))
    | None -> Ok None
    | Some spec -> (
      if optimize then
        Error
          "may not be combined with -O/--openmp-opt or the \
           openmp-opt-disable-* toggles"
      else
        match A.Pipeline.of_string spec with
        | Ok p -> Ok (Some p)
        | Error msg -> Error msg)
  in
  match pipeline with
  | Error msg ->
    let e = A.Error.make A.Error.Bad_request ~phase:A.Error.Driver msg in
    Fmt.epr "mompc: --pipeline: %s@." msg;
    A.Error.exit_code e
  | Ok pipeline -> (
  match Cli_common.parse_injects inject with
  | Error msgs ->
    List.iter (fun m -> Fmt.epr "mompc: --inject: %s@." m) msgs;
    2
  | Ok specs ->
    if stats_json <> None && List.length files > 1 then begin
      Fmt.epr "mompc: --stats-json accepts a single input file@.";
      2
    end
    else begin
      let config =
        {
          A.Config.scheme;
          pipeline;
          emit_ir;
          run_sim;
          remarks_only;
          want_stats = stats_json <> None;
          print_trace;
          inject = specs;
          retries;
          backoff_s = backoff;
          backtraces;
        }
      in
      let results =
        match daemon with
        | Some socket_path -> (
          try Ok (compile_via_daemon ~socket_path ~config files)
          with Unix.Unix_error (err, _, _) ->
            Error
              (A.Error.make A.Error.Internal ~phase:A.Error.Serving
                 (Printf.sprintf "cannot reach daemon at %s: %s" socket_path
                    (Unix.error_message err))))
        | None ->
          Ok
            (A.compile_files ~jobs ?cache_dir ?cache_max_bytes
               ?cache_max_entries ?watchdog_s:watchdog
               ~on_cache_corrupt:(fun ~key ~path ->
                 Fmt.epr
                   "mompc: remark: cache entry %s failed verification, \
                    quarantined at %s@."
                   key path)
               ~config files)
      in
      match results with
      | Error e ->
        Fmt.epr "mompc: %s@." (A.Error.to_string e);
        A.Error.exit_code e
      | Ok results -> (
        List.iter
          (fun (r : A.compiled) ->
            print_string r.A.output;
            prerr_string r.A.diagnostics)
          results;
        flush stdout;
        flush stderr;
        let code =
          List.fold_left (fun acc (r : A.compiled) -> max acc r.A.exit_code) 0 results
        in
        (* The stats payload (single file only, checked above) is collected
           in-memory by the façade; the driver owns the side file. *)
        match (stats_json, results) with
        | Some path, [ { A.stats = Some stats; _ } ] -> (
          try
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc (Observe.Json.to_string stats);
                Out_channel.output_char oc '\n');
            code
          with Sys_error msg ->
            Fmt.epr "cannot write stats: %s@." msg;
            max code 2)
        | _ -> code)
    end)

let files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"FILE" ~doc:"MiniOMP source file(s); several compile as a batch")

let scheme_arg =
  Arg.(
    value
    & opt scheme_conv Frontend.Codegen.Simplified
    & info [ "scheme" ] ~docv:"SCHEME"
        ~doc:"Globalization scheme: simplified (LLVM 13), legacy (LLVM 12), cuda")

let flag names doc = Arg.(value & flag & info names ~doc)

let cmd =
  let doc = "compile MiniOMP to MiniIR with OpenMP-aware optimization" in
  Cmd.v
    (Cmd.info "mompc" ~doc)
    Term.(
      const run_compile $ files_arg $ scheme_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "pipeline" ] ~docv:"SPEC"
              ~doc:
                "Run a first-class pass pipeline: a built-in tier \
                 ($(b,fast), $(b,full)) or a spec like \
                 $(b,fast=internalize,fold,cleanup\\@1) (see docs/API.md \
                 for the grammar).  Supersedes $(b,-O) and the \
                 $(b,openmp-opt-disable-*) toggles and may not be \
                 combined with them.")
      $ flag [ "O"; "openmp-opt" ] "Run the OpenMP-aware optimization pipeline"
      $ flag [ "openmp-opt-disable-spmdization" ] "Disable SPMDzation"
      $ flag [ "openmp-opt-disable-deglobalization" ] "Disable HeapToStack/HeapToShared"
      $ flag [ "openmp-opt-disable-state-machine-rewrite" ]
          "Disable the custom state machine rewrite"
      $ flag [ "openmp-opt-disable-folding" ] "Disable runtime-call folding"
      $ flag [ "openmp-opt-disable-guard-grouping" ]
          "Disable side-effect grouping before guard generation (Fig. 7)"
      $ Arg.(value & opt bool true & info [ "emit-ir" ] ~doc:"Print the final MiniIR")
      $ flag [ "run" ] "Execute on the GPU simulator and print kernel statistics"
      $ flag [ "remarks-only" ] "Suppress IR output; print only remarks"
      $ Cli_common.stats_json $ Cli_common.trace $ Cli_common.jobs
      $ Cli_common.cache_dir $ Cli_common.cache_max_bytes
      $ Cli_common.cache_max_entries $ Cli_common.inject $ Cli_common.retries
      $ Cli_common.backoff $ Cli_common.watchdog $ Cli_common.backtrace
      $ Arg.(
          value
          & opt (some string) None
          & info [ "daemon" ] ~docv:"SOCKET"
              ~doc:
                "Compile through the $(b,mompd) daemon listening on \
                 $(docv), sharing its warm caches; output is byte-identical \
                 to a local run.  $(b,-j), $(b,--cache-dir) and \
                 $(b,--watchdog) are the daemon's to decide and are ignored \
                 here."))

let () = exit (Cmd.eval' cmd)
