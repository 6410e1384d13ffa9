(* The observability layer: JSON round-trips, trace event arithmetic, and
   the simulator cost-model counters (barriers, atomics, divergence).

   The SPMD-vs-generic barrier comparison at the bottom is the acceptance
   check of the observability PR: an SPMDized kernel must execute strictly
   fewer barriers than its generic-mode counterpart on the same program. *)

module J = Observe.Json
module T = Observe.Trace

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let sample_json =
  J.Obj
    [
      ("null", J.Null);
      ("bools", J.List [ J.Bool true; J.Bool false ]);
      ("ints", J.List [ J.Int 0; J.Int (-17); J.Int 123456789 ]);
      ("floats", J.List [ J.Float 1.5; J.Float (-0.25); J.Float 1e-9 ]);
      ("string", J.String "line\nbreak \"quoted\" back\\slash \t tab");
      ("nested", J.Obj [ ("empty_list", J.List []); ("empty_obj", J.Obj []) ]);
    ]

let test_json_roundtrip () =
  List.iter
    (fun minify ->
      match J.of_string (J.to_string ~minify sample_json) with
      | Ok parsed -> Alcotest.(check bool) "round-trip equal" true (J.equal sample_json parsed)
      | Error msg -> Alcotest.failf "re-parse failed (minify=%b): %s" minify msg)
    [ true; false ]

let test_json_parser_accepts () =
  let cases =
    [
      ("42", J.Int 42);
      ("-0", J.Int 0);
      ("3.25", J.Float 3.25);
      ("2e3", J.Float 2000.0);
      ("\"\\u0041\\u00e9\"", J.String "A\xc3\xa9");  (* é as UTF-8 *)
      ("[1, [2, [3]]]", J.List [ J.Int 1; J.List [ J.Int 2; J.List [ J.Int 3 ] ] ]);
      ("  {\"a\" : null}  ", J.Obj [ ("a", J.Null) ]);
      ("true", J.Bool true);
    ]
  in
  List.iter
    (fun (src, expected) ->
      match J.of_string src with
      | Ok got ->
        Alcotest.(check bool) (Printf.sprintf "parse %S" src) true (J.equal expected got)
      | Error msg -> Alcotest.failf "parse %S failed: %s" src msg)
    cases

let test_json_parser_rejects () =
  List.iter
    (fun src ->
      match J.of_string src with
      | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" src
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "\"unterminated"; "1 2"; "{\"a\":}"; "nul"; "[}" ]

(* int/float distinction survives: 1 stays Int, 1.0 stays Float *)
let test_json_number_identity () =
  (match J.of_string "[1, 1.0]" with
  | Ok (J.List [ J.Int 1; J.Float f ]) ->
    Alcotest.(check (float 0.0)) "float value" 1.0 f
  | Ok j -> Alcotest.failf "unexpected shape: %s" (J.to_string ~minify:true j)
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check string) "ints print bare" "[1,2]"
    (J.to_string ~minify:true (J.List [ J.Int 1; J.Int 2 ]))

(* ------------------------------------------------------------------ *)
(* Trace events from a real pipeline run                               *)
(* ------------------------------------------------------------------ *)

let spmd_src =
  {|
long A[8];
long B[4];
int main() {
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(4)
  for (int i = 0; i < 8; i++) {
    A[(i + 7) % 8] = 3;
    #pragma omp atomic
    B[0] += i;
  }
  for (int k = 0; k < 4; k++) { trace(B[k]); }
  return 0;
}
|}

let traced_run src =
  let m = Helpers.compile src in
  let tr = T.create () in
  let report = Openmpopt.Pass_manager.run_pipeline ~trace:tr m in
  (m, report, T.events tr)

let test_event_ordering () =
  let _, _, events = traced_run spmd_src in
  Alcotest.(check bool) "at least one event per pipeline pass" true
    (List.length events > 5);
  List.iteri
    (fun i (e : T.event) ->
      Alcotest.(check int) "seq is the recording index" i e.seq)
    events;
  let rounds = List.map (fun (e : T.event) -> e.round) events in
  Alcotest.(check bool) "rounds are non-decreasing" true
    (List.for_all2 ( <= ) (List.filteri (fun i _ -> i < List.length rounds - 1) rounds)
       (List.tl rounds));
  match events with
  | first :: _ -> Alcotest.(check string) "internalization runs first" "internalize" first.pass
  | [] -> Alcotest.fail "no events"

(* Pass times are wall time on the domain running the pipeline: while a
   second domain spins, the events' times still sum to at most the wall
   time around the whole call.  (Process CPU time would count the spinner
   too and read about twice that on a host with two or more cores.) *)
let test_pass_times_are_wall_time () =
  let m =
    Frontend.Codegen.compile ~file:"miniqmc.c"
      ((Proxyapps.Apps.find_exn "miniqmc").Proxyapps.App.omp_source Proxyapps.App.Bench)
  in
  let tr = T.create () in
  let stop = Atomic.make false in
  let spinner = Domain.spawn (fun () -> while not (Atomic.get stop) do Domain.cpu_relax () done) in
  let (), wall_s, _ =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join spinner)
      (fun () -> Observe.Perf.sample (fun () -> ignore (Openmpopt.Pass_manager.run_pipeline ~trace:tr m)))
  in
  let passes_s = List.fold_left (fun acc (e : T.event) -> acc +. e.time_s) 0.0 (T.events tr) in
  Alcotest.(check bool)
    (Printf.sprintf "Σ pass time %.6fs <= wall time %.6fs" passes_s wall_s)
    true (passes_s <= wall_s)

let test_delta_arithmetic () =
  (* the sum of per-pass module deltas must equal the end-to-end change *)
  let m = Helpers.compile spmd_src in
  let before = T.stats_of_module m in
  let tr = T.create () in
  let report = Openmpopt.Pass_manager.run_pipeline ~trace:tr m in
  let after = T.stats_of_module m in
  let total =
    List.fold_left
      (fun acc (e : T.event) -> T.ir_stats_add acc e.delta)
      T.ir_stats_zero (T.events tr)
  in
  Alcotest.(check bool) "Σ per-pass deltas = end-to-end delta" true
    (total = T.ir_stats_sub after before);
  (* and the same for the report counters (minus the remarks pseudo-counter) *)
  let summed = Hashtbl.create 16 in
  List.iter
    (fun (e : T.event) ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace summed k (v + Option.value ~default:0 (Hashtbl.find_opt summed k)))
        e.counters)
    (T.events tr);
  List.iter
    (fun (k, v) ->
      Alcotest.(check int) (Printf.sprintf "Σ %s increments" k) v
        (Option.value ~default:0 (Hashtbl.find_opt summed k)))
    (Openmpopt.Pass_manager.counters_of_report report)

let test_ir_stats_ops () =
  let a = { T.funcs = 1; blocks = 2; instrs = 10; calls = 3; allocs = 1 } in
  let b = { T.funcs = 0; blocks = 1; instrs = -4; calls = 1; allocs = 0 } in
  Alcotest.(check bool) "add" true
    (T.ir_stats_add a b = { T.funcs = 1; blocks = 3; instrs = 6; calls = 4; allocs = 1 });
  Alcotest.(check bool) "sub inverts add" true (T.ir_stats_sub (T.ir_stats_add a b) b = a);
  Alcotest.(check bool) "zero is neutral" true (T.ir_stats_add a T.ir_stats_zero = a);
  Alcotest.(check bool) "is_zero" true (T.ir_stats_is_zero T.ir_stats_zero);
  Alcotest.(check bool) "is_zero on nonzero" false (T.ir_stats_is_zero b)

let test_event_json_roundtrip () =
  let _, _, events = traced_run spmd_src in
  List.iter
    (fun (e : T.event) ->
      match T.event_of_json (T.event_to_json e) with
      | Error msg -> Alcotest.failf "event_of_json failed: %s" msg
      | Ok e' ->
        (* time is exported with microsecond granularity, so compare the
           canonical JSON forms rather than the float fields *)
        Alcotest.(check bool)
          (Printf.sprintf "event %d round-trips" e.seq)
          true
          (J.equal (T.event_to_json e) (T.event_to_json e')))
    events;
  (* and the whole trace parses back from its serialized form *)
  let m = Helpers.compile spmd_src in
  let tr = T.create () in
  ignore (Openmpopt.Pass_manager.run_pipeline ~trace:tr m);
  match J.of_string (J.to_string (T.to_json tr)) with
  | Ok (J.List l) ->
    Alcotest.(check int) "event count survives" (List.length (T.events tr)) (List.length l)
  | Ok _ -> Alcotest.fail "trace JSON is not a list"
  | Error msg -> Alcotest.failf "trace JSON re-parse failed: %s" msg

(* ------------------------------------------------------------------ *)
(* Simulator cost model                                                *)
(* ------------------------------------------------------------------ *)

let kernel_stats_of ?options src =
  let m = Helpers.compile src in
  let report =
    Option.map (fun options -> Helpers.optimize ~options m) options
  in
  let sim = Helpers.simulate m in
  match sim.Gpusim.Interp.kernel_stats with
  | [ stats ] -> (stats, report)
  | l -> Alcotest.failf "expected exactly one kernel launch, got %d" (List.length l)

let test_atomic_counts () =
  (* 8 loop iterations, one global atomic each; nothing else is atomic *)
  let stats, _ = kernel_stats_of spmd_src in
  Alcotest.(check int) "atomics_global" 8 stats.Gpusim.Interp.atomics_global;
  Alcotest.(check int) "atomics_shared" 0 stats.Gpusim.Interp.atomics_shared

let test_divergence_uniform_vs_uneven () =
  (* 8 iterations over 2 teams x 4 threads: every thread runs exactly one
     iteration, so every branch site is taken uniformly *)
  let uniform_src =
    {|
long A[8];
int main() {
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(4)
  for (int i = 0; i < 8; i++) {
    A[(i + 7) % 8] = 3;
  }
  for (int k = 0; k < 8; k++) { trace(A[k]); }
  return 0;
}
|}
  in
  (* 10 iterations over the same grid: two threads run a second iteration
     while the rest exit the loop — structural divergence at the back edge *)
  let uneven_src =
    {|
long A[8];
int main() {
  #pragma omp target teams distribute parallel for num_teams(2) thread_limit(4)
  for (int i = 0; i < 10; i++) {
    A[(i + 7) % 8] = 3;
  }
  for (int k = 0; k < 8; k++) { trace(A[k]); }
  return 0;
}
|}
  in
  let options = Openmpopt.Pass_manager.default_options in
  (* both kernels are SPMD by construction (combined parallel-for target) *)
  let uniform, _ = kernel_stats_of ~options uniform_src in
  let uneven, _ = kernel_stats_of ~options uneven_src in
  Alcotest.(check int) "uniform SPMD kernel has no divergence" 0
    uniform.Gpusim.Interp.divergent_branches;
  Alcotest.(check bool) "uneven trip counts diverge" true
    (uneven.Gpusim.Interp.divergent_branches > 0)

(* Acceptance criterion of the observability PR: the generic-mode worker
   state machine dispatches every parallel region through two team-wide
   barriers; SPMDization deletes them (and, with no sequential side effects
   between the regions, introduces no guard barriers in exchange). *)
let generic_teams_src =
  {|
long B[4];
int main() {
  #pragma omp target teams num_teams(2) thread_limit(4)
  {
    #pragma omp parallel
    {
      #pragma omp atomic
      B[0] += 1;
    }
    #pragma omp parallel
    {
      #pragma omp atomic
      B[1] += 2;
    }
  }
  for (int k = 0; k < 4; k++) { trace(B[k]); }
  return 0;
}
|}

let test_spmd_fewer_barriers_than_generic () =
  let options_generic =
    { Openmpopt.Pass_manager.default_options with disable_spmdization = true }
  in
  let spmd, spmd_report =
    kernel_stats_of ~options:Openmpopt.Pass_manager.default_options generic_teams_src
  in
  let generic, _ = kernel_stats_of ~options:options_generic generic_teams_src in
  (match spmd_report with
  | Some r ->
    Alcotest.(check bool) "kernel was SPMDized" true (r.Openmpopt.Pass_manager.spmdized >= 1)
  | None -> ());
  Alcotest.(check bool)
    (Printf.sprintf "SPMD executes fewer barriers (%d) than generic (%d)"
       spmd.Gpusim.Interp.barriers generic.Gpusim.Interp.barriers)
    true
    (spmd.Gpusim.Interp.barriers < generic.Gpusim.Interp.barriers);
  (* the state machine is also where generic-mode divergence comes from *)
  Alcotest.(check bool) "generic mode diverges at the state machine" true
    (generic.Gpusim.Interp.divergent_branches > spmd.Gpusim.Interp.divergent_branches)

let test_store_class_counters () =
  (* the stores of spmd_src all target module globals *)
  let stats, _ = kernel_stats_of spmd_src in
  Alcotest.(check bool) "global stores counted" true
    (stats.Gpusim.Interp.stores_global >= 8);
  Alcotest.(check int) "no shared-memory stores without globalization" 0
    stats.Gpusim.Interp.stores_shared

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parser accepts" `Quick test_json_parser_accepts;
    Alcotest.test_case "json parser rejects" `Quick test_json_parser_rejects;
    Alcotest.test_case "json int/float identity" `Quick test_json_number_identity;
    Alcotest.test_case "event ordering" `Quick test_event_ordering;
    Alcotest.test_case "delta arithmetic" `Quick test_delta_arithmetic;
    Alcotest.test_case "pass times are wall time" `Quick test_pass_times_are_wall_time;
    Alcotest.test_case "ir_stats operations" `Quick test_ir_stats_ops;
    Alcotest.test_case "event json round-trip" `Quick test_event_json_roundtrip;
    Alcotest.test_case "atomic counts" `Quick test_atomic_counts;
    Alcotest.test_case "divergence: uniform vs uneven" `Quick
      test_divergence_uniform_vs_uneven;
    Alcotest.test_case "spmd fewer barriers than generic" `Quick
      test_spmd_fewer_barriers_than_generic;
    Alcotest.test_case "store class counters" `Quick test_store_class_counters;
  ]
