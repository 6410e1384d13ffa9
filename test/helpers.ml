(* Shared test helpers: compile MiniOMP snippets, run them on the simulator,
   and compare observable traces across build configurations. *)

let compile ?(scheme = Frontend.Codegen.Simplified) src =
  Frontend.Codegen.compile ~scheme ~file:"test.c" src

let verify m =
  match Ir.Verify.check m with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "verifier rejected module: %s" msg

(* Verify after EVERY pipeline pass, not just at the end: the trace layer
   fires an event per executed pass, so a verifier failure is pinned to the
   offending pass and round instead of to "somewhere in the pipeline". *)
let optimize ?(options = Openmpopt.Pass_manager.default_options) m =
  let trace =
    Observe.Trace.create
      ~on_event:(fun (e : Observe.Trace.event) ->
        match Ir.Verify.check m with
        | Ok () -> ()
        | Error msg ->
          Alcotest.failf "verifier rejected module after pass %s (round %d): %s"
            e.Observe.Trace.pass e.Observe.Trace.round msg)
      ()
  in
  let pipeline = Openmpopt.Pass_manager.Pipeline.of_options options in
  let report = Openmpopt.Pass_manager.run_pipeline ~pipeline ~trace m in
  verify m;
  report

let simulate ?(machine = Gpusim.Machine.test_machine) m =
  let sim = Gpusim.Interp.create machine m in
  Gpusim.Interp.run_host sim;
  sim

(* Compile (+ optionally optimize) and return the sorted observable trace. *)
let run_trace ?(scheme = Frontend.Codegen.Simplified) ?options src =
  let m = compile ~scheme src in
  verify m;
  (match options with
  | Some options -> ignore (optimize ~options m)
  | None -> ());
  let sim = simulate m in
  Gpusim.Interp.trace_values sim
  |> List.map (fun v ->
         match v with
         | Gpusim.Rvalue.I x -> Printf.sprintf "i:%Ld" x
         | Gpusim.Rvalue.F x -> Printf.sprintf "f:%.9g" x
         | v -> Fmt.str "%a" Gpusim.Rvalue.pp v)
  |> List.sort String.compare

let trace_testable = Alcotest.(list string)

(* Assert that every configuration of a program observes the same trace. *)
let assert_same_trace ?(schemes = [ Frontend.Codegen.Simplified ]) ?(option_sets = []) src =
  let base = run_trace src in
  List.iter
    (fun scheme ->
      Alcotest.check trace_testable
        ("scheme " ^ Frontend.Codegen.scheme_name scheme)
        base (run_trace ~scheme src))
    schemes;
  List.iter
    (fun (label, options) ->
      Alcotest.check trace_testable label base (run_trace ~options src))
    option_sets

let all_opt_variants =
  let open Openmpopt.Pass_manager in
  [
    ("full", default_options);
    ("no-spmd", { default_options with disable_spmdization = true });
    ( "no-spmd,no-csm",
      { default_options with disable_spmdization = true;
        disable_state_machine_rewrite = true } );
    ("no-deglob", { default_options with disable_deglobalization = true });
    ("no-fold", { default_options with disable_folding = true });
    ("no-group", { default_options with disable_guard_grouping = true });
    ("no-internalize", { default_options with disable_internalization = true });
    ("h2s-only", { default_options with disable_spmdization = true;
                   disable_state_machine_rewrite = true; disable_folding = true;
                   disable_heap_to_shared = true });
  ]

(* Property tests honour two environment variables so that CI (and bug
   reproduction) can pin the run:
     FUZZ_ITERS  override the iteration count of every property
     FUZZ_SEED   fix the random seed (integer) *)
let qtest ?(count = 100) name gen prop =
  let count =
    match Option.bind (Sys.getenv_opt "FUZZ_ITERS") int_of_string_opt with
    | Some n when n > 0 -> n
    | _ -> count
  in
  let rand =
    Option.map
      (fun seed -> Random.State.make [| seed |])
      (Option.bind (Sys.getenv_opt "FUZZ_SEED") int_of_string_opt)
  in
  QCheck_alcotest.to_alcotest ?rand (QCheck.Test.make ~count ~name gen prop)
