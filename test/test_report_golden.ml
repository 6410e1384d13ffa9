(* Golden report counters: lock what the full pipeline does to each proxy
   application at tiny scale.  A counter drifting is not necessarily a bug —
   but it must be a *decision*: update the golden below together with the
   change that moved it, and say why in the commit.

   The goldens use [Pass_manager.counters_of_report], so a newly added
   counter fails here until the tables are extended — by design. *)

let counters app_name =
  let app = Proxyapps.Apps.find_exn app_name in
  let src = app.Proxyapps.App.omp_source Proxyapps.App.Tiny in
  let m =
    Frontend.Codegen.compile ~scheme:Frontend.Codegen.Simplified
      ~file:(app_name ^ ".c") src
  in
  let report = Openmpopt.Pass_manager.run_pipeline m in
  Helpers.verify m;
  Openmpopt.Pass_manager.counters_of_report report

let check_golden app_name golden () =
  let actual = counters app_name in
  if Sys.getenv_opt "GOLDEN_PRINT" <> None then begin
    Printf.eprintf "let golden_%s =\n  [\n" app_name;
    List.iter (fun (k, v) -> Printf.eprintf "    (%S, %d);\n" k v) actual;
    Printf.eprintf "  ]\n"
  end;
  Alcotest.(check (list (pair string int)))
    (app_name ^ " report counters") golden actual

(* Re-generate with:
     GOLDEN_PRINT=1 dune exec test/test_main.exe -- test report-golden
   and paste the printed lists below. *)

let golden_xsbench =
  [
    ("internalized", 0);
    ("heap_to_stack", 3);
    ("heap_to_shared", 0);
    ("shared_bytes", 0);
    ("spmdized", 0);
    ("guards", 0);
    ("custom_state_machines", 0);
    ("csm_fallbacks", 0);
    ("folds_exec_mode", 2);
    ("folds_parallel_level", 1);
    ("folds_thread_exec", 0);
    ("folds_launch_bounds", 3);
    ("deduplicated_calls", 0);
    ("dead_regions", 0);
  ]

let golden_rsbench =
  [
    ("internalized", 0);
    ("heap_to_stack", 7);
    ("heap_to_shared", 0);
    ("shared_bytes", 0);
    ("spmdized", 0);
    ("guards", 0);
    ("custom_state_machines", 0);
    ("csm_fallbacks", 0);
    ("folds_exec_mode", 2);
    ("folds_parallel_level", 1);
    ("folds_thread_exec", 0);
    ("folds_launch_bounds", 3);
    ("deduplicated_calls", 0);
    ("dead_regions", 0);
  ]

let golden_su3bench =
  [
    ("internalized", 0);
    ("heap_to_stack", 4);
    ("heap_to_shared", 3);
    ("shared_bytes", 20);
    ("spmdized", 1);
    ("guards", 4);
    ("custom_state_machines", 0);
    ("csm_fallbacks", 0);
    ("folds_exec_mode", 2);
    ("folds_parallel_level", 2);
    ("folds_thread_exec", 0);
    ("folds_launch_bounds", 3);
    ("deduplicated_calls", 3);
    ("dead_regions", 0);
  ]

let golden_miniqmc =
  [
    ("internalized", 0);
    ("heap_to_stack", 3);
    ("heap_to_shared", 18);
    ("shared_bytes", 264);
    ("spmdized", 1);
    ("guards", 18);
    ("custom_state_machines", 0);
    ("csm_fallbacks", 0);
    ("folds_exec_mode", 2);
    ("folds_parallel_level", 2);
    ("folds_thread_exec", 0);
    ("folds_launch_bounds", 3);
    ("deduplicated_calls", 17);
    ("dead_regions", 0);
  ]

let suite =
  [
    Alcotest.test_case "xsbench" `Quick (check_golden "xsbench" golden_xsbench);
    Alcotest.test_case "rsbench" `Quick (check_golden "rsbench" golden_rsbench);
    Alcotest.test_case "su3bench" `Quick (check_golden "su3bench" golden_su3bench);
    Alcotest.test_case "miniqmc" `Quick (check_golden "miniqmc" golden_miniqmc);
  ]
