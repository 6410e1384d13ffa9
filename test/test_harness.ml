(* Harness: configuration sets, relative-performance computation, and the
   table renderers (smoke + shape assertions at tiny scale). *)

let machine = Gpusim.Machine.test_machine
let scale = Proxyapps.App.Tiny

let test_config_sets () =
  List.iter
    (fun app ->
      let configs = Harness.Config.fig11_configs app in
      Alcotest.(check bool)
        (app ^ " has an LLVM 12 baseline")
        true
        (List.exists (fun c -> c.Harness.Config.label = "LLVM 12") configs);
      Alcotest.(check bool)
        (app ^ " has the dev build")
        true
        (List.exists (fun c -> c.Harness.Config.label = "LLVM Dev 0") configs))
    [ "xsbench"; "rsbench"; "su3bench"; "miniqmc" ]

let test_relative () =
  let app = Proxyapps.Apps.find_exn "xsbench" in
  let baseline = Harness.Runner.run ~machine ~scale app Harness.Config.llvm12 in
  let dev = Harness.Runner.run ~machine ~scale app Harness.Config.dev0 in
  match Harness.Runner.relative ~baseline dev with
  | Some r -> Alcotest.(check bool) "relative positive" true (r > 0.0)
  | None -> Alcotest.fail "relative performance unavailable"

let test_su3_shape () =
  (* the headline result: SPMDzation gives an order-of-magnitude speedup on
     the CPU-style SU3Bench kernel (Fig. 11c) *)
  let app = Proxyapps.Apps.find_exn "su3bench" in
  let baseline = Harness.Runner.run ~machine ~scale app Harness.Config.llvm12 in
  let no_opt = Harness.Runner.run ~machine ~scale app Harness.Config.no_opt in
  let dev = Harness.Runner.run ~machine ~scale app Harness.Config.dev0 in
  let csm = Harness.Runner.run ~machine ~scale app Harness.Config.h2s2_rtc_csm_cfg in
  let cuda = Harness.Runner.run ~machine ~scale app Harness.Config.cuda in
  let rel m =
    match Harness.Runner.relative ~baseline m with
    | Some r -> r
    | None -> Alcotest.fail "missing measurement"
  in
  Alcotest.(check bool) "no-opt is a regression" true (rel no_opt < 1.0);
  Alcotest.(check bool) "SPMDzation beats CSM" true (rel dev > rel csm);
  Alcotest.(check bool) "SPMDzation is a substantial win" true (rel dev > 2.0);
  Alcotest.(check bool) "CUDA is the watermark" true (rel cuda > rel dev)

let test_miniqmc_ordering () =
  let app = Proxyapps.Apps.find_exn "miniqmc" in
  let r cfg =
    let baseline = Harness.Runner.run ~machine ~scale app Harness.Config.llvm12 in
    match
      Harness.Runner.relative ~baseline (Harness.Runner.run ~machine ~scale app cfg)
    with
    | Some r -> r
    | None -> Alcotest.fail "missing measurement"
  in
  let no_opt = r Harness.Config.no_opt in
  let h2s = r Harness.Config.heap_2_stack in
  let h2s2 = r Harness.Config.h2s2_cfg in
  let spmd = r Harness.Config.dev0 in
  Alcotest.(check bool) "no-opt slowest" true (no_opt < h2s2);
  Alcotest.(check bool) "h2s alone is not enough (Fig. 11d)" true (h2s < h2s2);
  Alcotest.(check bool) "full pipeline fastest" true (spmd >= h2s2)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_tables_render () =
  let fig9 = Harness.Tables.fig9 ~machine ~scale () in
  Alcotest.(check bool) "fig9 mentions all apps" true
    (List.for_all (contains fig9) [ "xsbench"; "rsbench"; "su3bench"; "miniqmc" ]);
  let fig11 = Harness.Tables.fig11 ~machine ~scale (Proxyapps.Apps.find_exn "xsbench") in
  Alcotest.(check bool) "fig11 has the baseline row" true (contains fig11 "LLVM 12");
  Alcotest.(check bool) "fig11 reports no mismatches" false (contains fig11 "MISMATCH")

(* The Figure-9/10/11 numbers come from Harness.Runner, while mompc, mompd
   and the conformance matrix compile through Ompgpu_api.  Both must
   describe the same execution: for every Figure-10 job, the façade's
   simulator lines repeat the runner's kernel cycles, per-launch
   instruction counts and traced result. *)
let facade_config (app : Proxyapps.App.t) (config : Harness.Config.t) =
  let omp = app.Proxyapps.App.omp_source scale in
  let base = Ompgpu_api.Config.(with_sim { default with emit_ir = false }) in
  let on scheme = Ompgpu_api.Config.with_scheme scheme base in
  match config.Harness.Config.build with
  | Harness.Config.Llvm12 -> (on Frontend.Codegen.Legacy, omp)
  | Harness.Config.Dev_noopt -> (on Frontend.Codegen.Simplified, omp)
  | Harness.Config.Dev options ->
    ( Ompgpu_api.Config.with_pipeline
        (Openmpopt.Pass_manager.Pipeline.of_options options)
        (on Frontend.Codegen.Simplified),
      omp )
  | Harness.Config.Cuda ->
    (on Frontend.Codegen.Cuda, app.Proxyapps.App.cuda_source scale)

(* The façade's "; kernel cycles: N", per-launch "instrs=N" and
   "; trace: v ..." lines. *)
let facade_sim_lines (c : Ompgpu_api.compiled) =
  let lines = String.split_on_char '\n' c.Ompgpu_api.output in
  let after prefix l =
    if String.starts_with ~prefix l then
      Some (String.sub l (String.length prefix) (String.length l - String.length prefix))
    else None
  in
  let cycles =
    List.find_map (fun l -> Option.map int_of_string (after "; kernel cycles: " l)) lines
  in
  let instrs =
    List.concat_map
      (fun l ->
        List.filter_map
          (fun w -> Option.map int_of_string (after "instrs=" w))
          (String.split_on_char ' ' l))
      lines
  in
  let trace = List.find_map (after "; trace:") lines in
  (cycles, instrs, trace)

let test_runner_agrees_with_facade () =
  let machine = Gpusim.Machine.bench_machine in
  List.iter
    (fun (app : Proxyapps.App.t) ->
      List.iter
        (fun (config : Harness.Config.t) ->
          let what = app.Proxyapps.App.name ^ "/" ^ config.Harness.Config.label in
          let m = Harness.Runner.run ~machine ~scale app config in
          let fconfig, src = facade_config app config in
          let file = app.Proxyapps.App.name ^ ".c" in
          let c = Ompgpu_api.compile_buffered ~config:fconfig ~file src in
          match m.Harness.Runner.outcome with
          | Harness.Runner.Err e ->
            Alcotest.failf "%s: runner failed: %s" what (Fault.Ompgpu_error.to_string e)
          | Harness.Runner.Ok x ->
            Alcotest.(check int) (what ^ ": façade exit code") 0 c.Ompgpu_api.exit_code;
            let cycles, instrs, trace = facade_sim_lines c in
            Alcotest.(check (option int))
              (what ^ ": kernel cycles") (Some x.Harness.Runner.cycles) cycles;
            Alcotest.(check (list int))
              (what ^ ": per-launch instructions")
              (List.map (fun (s : Gpusim.Interp.launch_stats) -> s.Gpusim.Interp.instructions)
                 x.Harness.Runner.kernel_stats)
              (* the façade prints the newest launch first *)
              (List.rev instrs);
            (* the façade prints the value with %g: six significant digits *)
            let traced =
              match
                Option.map (fun t -> List.filter (( <> ) "") (String.split_on_char ' ' t)) trace
              with
              | Some [ v ] when String.length v > 2 ->
                (* "f:1.5" or "i:3" *)
                Float.of_string_opt (String.sub v 2 (String.length v - 2))
              | _ -> None
            in
            match (x.Harness.Runner.checksum, traced) with
            | Some a, Some b when Float.abs (a -. b) <= 1e-5 *. (1.0 +. Float.abs a) -> ()
            | a, b ->
              Alcotest.failf "%s: traced value %a, façade %a" what
                Fmt.(option float) a Fmt.(option float) b)
        (Harness.Config.fig10_configs app.Proxyapps.App.name))
    Proxyapps.Apps.all

(* A failure reaches the runner with the kind and phase the façade reports,
   cached or not: a front-end (parse) failure and an optimization failure
   (an injected pass crash). *)
let test_runner_failure_phases () =
  let machine = Gpusim.Machine.bench_machine in
  let app = Proxyapps.Apps.find_exn "xsbench" in
  let bad = "int main( {" in
  let broken = { app with Proxyapps.App.name = "broken"; omp_source = (fun _ -> bad) } in
  let crash = Fault.Injector.{ site = Pass_crash; rate = 1.0; seed = 0 } in
  let full = Ompgpu_api.Config.(with_pipeline Ompgpu_api.Pipeline.full default) in
  let cases =
    [
      ("parse", broken, Harness.Config.dev0, full, bad);
      ( "pass crash",
        app,
        Harness.Config.with_inject [ crash ] Harness.Config.dev0,
        Ompgpu_api.Config.with_inject [ crash ] full,
        app.Proxyapps.App.omp_source scale );
    ]
  in
  List.iter
    (fun (what, app, config, fconfig, src) ->
      let file = app.Proxyapps.App.name ^ ".c" in
      let c = Ompgpu_api.compile_buffered ~config:fconfig ~file src in
      let expected =
        match c.Ompgpu_api.error with
        | Some e ->
          (Fault.Ompgpu_error.kind_name e.kind, Fault.Ompgpu_error.phase_name e.phase)
        | None -> Alcotest.failf "%s: the façade did not fail" what
      in
      List.iter
        (fun (how, cache) ->
          match (Harness.Runner.run ~machine ~scale ?cache app config).Harness.Runner.outcome with
          | Harness.Runner.Err e ->
            Alcotest.(check (pair string string))
              (Printf.sprintf "%s (%s): kind and phase" what how)
              expected
              (Fault.Ompgpu_error.kind_name e.kind, Fault.Ompgpu_error.phase_name e.phase)
          | Harness.Runner.Ok _ -> Alcotest.failf "%s (%s): the runner did not fail" what how)
        [ ("uncached", None); ("cached", Some (Sched.Cache.create ())) ])
    cases

let suite =
  [
    Alcotest.test_case "config sets" `Quick test_config_sets;
    Alcotest.test_case "relative performance" `Quick test_relative;
    Alcotest.test_case "su3 shape" `Slow test_su3_shape;
    Alcotest.test_case "miniqmc ordering" `Slow test_miniqmc_ordering;
    Alcotest.test_case "tables render" `Slow test_tables_render;
    Alcotest.test_case "runner agrees with the facade" `Quick test_runner_agrees_with_facade;
    Alcotest.test_case "runner failure phases match the facade" `Quick test_runner_failure_phases;
  ]
