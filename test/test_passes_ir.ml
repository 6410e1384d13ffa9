(* IR-level tests of individual optimizer passes on hand-written modules,
   covering paths the source-level tests cannot isolate. *)

open Openmpopt

let parse text =
  let m = Ir.Parser.parse_module text in
  Devrt.Registry.declare_in m;
  m

(* ------------------------------------------------------------------ *)
(* Internalization corner cases                                        *)
(* ------------------------------------------------------------------ *)

let test_internalize_weak_not_cloned () =
  let m =
    parse
      {|module "w"
define weak f64 @weak_helper(%arg0 : f64) {
entry:
  ret %arg0
}
define external i32 @main() {
entry:
  %0 = call f64 @weak_helper(f64 1.0)
  ret i32 0
}
|}
  in
  let sink = Remark.sink () in
  let n = Internalize.run m sink in
  Alcotest.(check int) "weak not internalized" 0 n;
  Alcotest.(check int) "OMP140 emitted" 1 (Remark.count ~id:140 sink)

let test_internalize_redirects_calls () =
  let m =
    parse
      {|module "i"
define external f64 @helper(%arg0 : f64) {
entry:
  ret %arg0
}
define external i32 @main() {
entry:
  %0 = call f64 @helper(f64 1.0)
  ret i32 0
}
|}
  in
  let sink = Remark.sink () in
  let n = Internalize.run m sink in
  Alcotest.(check int) "one function internalized" 1 n;
  let main = Ir.Irmod.find_func_exn m "main" in
  let calls_internalized =
    Ir.Func.fold_instrs main ~init:false ~g:(fun acc _ i ->
        acc || Ir.Instr.callee_name i = Some "helper.internalized")
  in
  Alcotest.(check bool) "call redirected to the internal copy" true calls_internalized;
  (match Ir.Verify.check m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-internalize verify: %s" e)

(* ------------------------------------------------------------------ *)
(* Runtime-call deduplication                                          *)
(* ------------------------------------------------------------------ *)

let count_calls f name =
  Ir.Func.fold_instrs f ~init:0 ~g:(fun acc _ i ->
      if Ir.Instr.callee_name i = Some name then acc + 1 else acc)

let test_dedup_dominating () =
  let m =
    parse
      {|module "d"
define internal i32 @f(%arg0 : i1) {
entry:
  %0 = call i32 @__gpu_thread_id()
  cbr %arg0, a, b
a:
  %1 = call i32 @__gpu_thread_id()
  %2 = add i32 %0, %1
  ret %2
b:
  %3 = call i32 @__gpu_thread_id()
  ret %3
}
|}
  in
  let sink = Remark.sink () in
  let n = Dedup.dedup_runtime_calls m sink in
  Alcotest.(check int) "two dominated calls removed" 2 n;
  let f = Ir.Irmod.find_func_exn m "f" in
  Alcotest.(check int) "one query left" 1 (count_calls f "__gpu_thread_id");
  Alcotest.(check int) "OMP170 emitted" 1 (Remark.count ~id:170 sink);
  match Ir.Verify.check m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-dedup verify: %s" e

let test_dedup_respects_dominance () =
  (* calls in sibling branches do not dominate each other: both stay *)
  let m =
    parse
      {|module "d2"
define internal i32 @f(%arg0 : i1) {
entry:
  cbr %arg0, a, b
a:
  %0 = call i32 @__gpu_thread_id()
  ret %0
b:
  %1 = call i32 @__gpu_thread_id()
  ret %1
}
|}
  in
  let sink = Remark.sink () in
  let n = Dedup.dedup_runtime_calls m sink in
  Alcotest.(check int) "nothing removed" 0 n

(* ------------------------------------------------------------------ *)
(* Dead parallel-region elimination                                    *)
(* ------------------------------------------------------------------ *)

let test_dead_region_removed () =
  let m =
    parse
      {|module "dr"
define internal void @pure_region(%arg0 : ptr(generic)) {
entry:
  %0 = alloca f64, 1
  store f64 f64 1.0, %0
  %2 = load f64, %0
  ret
}
define internal void @effect_region(%arg0 : ptr(generic)) {
entry:
  call void @__devrt_trace(i64 1)
  ret
}
define external void @k() kernel(generic, teams=1, threads=2) {
entry:
  call void @__kmpc_parallel_51(@pure_region, i64 -1, null(generic), i32 0)
  call void @__kmpc_parallel_51(@effect_region, i64 -1, null(generic), i32 0)
  ret
}
|}
  in
  let sink = Remark.sink () in
  let n = Dedup.delete_dead_regions m sink in
  Alcotest.(check int) "only the pure region removed" 1 n;
  let k = Ir.Irmod.find_func_exn m "k" in
  Alcotest.(check int) "one launch left" 1 (count_calls k "__kmpc_parallel_51");
  Alcotest.(check int) "OMP160 emitted" 1 (Remark.count ~id:160 sink)

(* ------------------------------------------------------------------ *)
(* Folding consensus                                                   *)
(* ------------------------------------------------------------------ *)

let two_kernel_module ~same_mode =
  parse
    (Printf.sprintf
       {|module "f"
define internal i1 @query() {
entry:
  %%0 = call i1 @__kmpc_is_spmd_exec_mode()
  ret %%0
}
define external void @k1() kernel(spmd, teams=1, threads=2) {
entry:
  %%0 = call i1 @query()
  ret
}
define external void @k2() kernel(%s, teams=1, threads=2) {
entry:
  %%0 = call i1 @query()
  ret
}
|}
       (if same_mode then "spmd" else "generic"))

let fold_count m =
  let cg = Analysis.Callgraph.compute m in
  let d = Analysis.Exec_domain.compute m cg in
  (Fold.run ~fold_exec_mode:true m d).Fold.exec_mode

let test_fold_needs_consensus () =
  Alcotest.(check int) "same-mode kernels fold the shared query" 1
    (fold_count (two_kernel_module ~same_mode:true));
  Alcotest.(check int) "mixed-mode kernels block the fold" 0
    (fold_count (two_kernel_module ~same_mode:false))

let test_fold_launch_bounds_mixed () =
  let m =
    parse
      {|module "lb"
define internal i32 @width() {
entry:
  %0 = call i32 @__gpu_num_threads()
  ret %0
}
define external void @k1() kernel(spmd, teams=2, threads=8) {
entry:
  %0 = call i32 @width()
  ret
}
define external void @k2() kernel(spmd, teams=2, threads=16) {
entry:
  %0 = call i32 @width()
  ret
}
|}
  in
  let cg = Analysis.Callgraph.compute m in
  let d = Analysis.Exec_domain.compute m cg in
  let counts = Fold.run m d in
  Alcotest.(check int) "differing thread limits block the fold" 0
    counts.Fold.launch_bounds

(* ------------------------------------------------------------------ *)
(* SPMDzation / CSM on a kernel without parallel regions               *)
(* ------------------------------------------------------------------ *)

let no_region_kernel () =
  Helpers.compile
    {|
double Out[2];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(2)
  {
    Out[0] = 1.0;
    Out[1] = 2.0;
  }
  trace_f64(Out[0] + Out[1]);
  return 0;
}
|}

let test_kernel_without_regions () =
  let m = no_region_kernel () in
  let report = Helpers.optimize m in
  (* SPMDzation still converts it (side effects guarded) *)
  Alcotest.(check int) "converted" 1 report.Pass_manager.spmdized;
  Alcotest.check Helpers.trace_testable "still computes" [ "f:3" ]
    (Helpers.run_trace ~options:Pass_manager.default_options
       {|
double Out[2];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(2)
  {
    Out[0] = 1.0;
    Out[1] = 2.0;
  }
  trace_f64(Out[0] + Out[1]);
  return 0;
}
|})

let test_csm_on_kernel_without_regions () =
  let m = no_region_kernel () in
  let options =
    { Pass_manager.default_options with Pass_manager.disable_spmdization = true }
  in
  let report = Helpers.optimize ~options m in
  Alcotest.(check int) "no custom state machine built" 0
    report.Pass_manager.custom_state_machines;
  Alcotest.(check bool) "OMP133 notes the empty state machine" true
    (List.exists (fun r -> r.Remark.id = 133) report.Pass_manager.remarks)

(* ------------------------------------------------------------------ *)
(* Simplify details                                                    *)
(* ------------------------------------------------------------------ *)

let test_simplify_merges_chains () =
  let m =
    parse
      {|module "m"
define internal i64 @f() {
entry:
  br a
a:
  %0 = add i64 i64 1, i64 2
  br b
b:
  %1 = add i64 %0, i64 3
  br c
c:
  ret %1
}
|}
  in
  ignore (Simplify.run m);
  let f = Ir.Irmod.find_func_exn m "f" in
  Alcotest.(check int) "chain merged into entry" 1 (List.length f.Ir.Func.blocks)

let test_simplify_keeps_loops () =
  let m =
    parse
      {|module "l"
define internal i64 @f(%arg0 : i64) {
entry:
  %0 = alloca i64, 1
  store i64 i64 0, %0
  br head
head:
  %2 = load i64, %0
  %3 = icmp slt i64 %2, %arg0
  cbr %3, body, exit
body:
  %4 = add i64 %2, i64 1
  store i64 %4, %0
  br head
exit:
  ret %2
}
|}
  in
  ignore (Simplify.run m);
  let f = Ir.Irmod.find_func_exn m "f" in
  Alcotest.(check bool) "loop structure preserved" true (List.length f.Ir.Func.blocks >= 3);
  match Ir.Verify.check m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "post-simplify verify: %s" e

let test_heap_to_shared_not_in_parallel_domain () =
  (* an allocation reachable from a parallel region must not become a single
     static shared slot (every thread needs its own) *)
  let m =
    parse
      {|module "hs"
declare void @opaque_capture(ptr(generic))
define internal void @region(%arg0 : ptr(generic)) {
entry:
  %0 = call ptr(generic) @__kmpc_alloc_shared(i64 8)
  call void @opaque_capture(%0)
  call void @__kmpc_free_shared(%0, i64 8)
  ret
}
define external void @k() kernel(generic, teams=1, threads=4) {
entry:
  call void @__kmpc_parallel_51(@region, i64 -1, null(generic), i32 0)
  ret
}
|}
  in
  let cg = Analysis.Callgraph.compute m in
  let d = Analysis.Exec_domain.compute m cg in
  let sink = Remark.sink () in
  let res = Deglobalize.run m d sink in
  Alcotest.(check int) "no shared placement in parallel context" 0
    res.Deglobalize.to_shared;
  Alcotest.(check int) "no stack placement either (captured)" 0 res.Deglobalize.to_stack;
  Alcotest.(check bool) "OMP112 reported" true (Remark.count ~id:112 sink > 0)

let test_omp100_unknown_runtime_call () =
  let m =
    parse
      {|module "u"
declare void @__kmpc_mystery_call()
define external i32 @main() {
entry:
  call void @__kmpc_mystery_call()
  ret i32 0
}
|}
  in
  let report = Openmpopt.Pass_manager.run_pipeline m in
  Alcotest.(check bool) "OMP100 flags the unknown runtime function" true
    (List.exists (fun r -> r.Remark.id = 100) report.Pass_manager.remarks)

let test_no_openmp_assumption_avoids_csm_fallback () =
  let src assume =
    Printf.sprintf
      {|
%s
extern double pure_math(double x);
#pragma omp assume ext_spmd_amenable
%s
extern void side_effecting();
double Out[4];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(4)
  {
    side_effecting();
    Out[0] = pure_math(1.0);
    #pragma omp parallel
    { Out[omp_get_thread_num()] = 2.0; }
  }
  return 0;
}
|}
      assume assume
  in
  let options =
    { Pass_manager.default_options with Pass_manager.disable_spmdization = true }
  in
  (* the externals could contain hidden parallel regions: fallback needed *)
  let m1 = Helpers.compile (src "") in
  let r1 = Helpers.optimize ~options m1 in
  (* with omp_no_openmp on both, the cascade is complete *)
  let m2 = Helpers.compile (src "#pragma omp assume ext_no_openmp") in
  let r2 = Helpers.optimize ~options m2 in
  Alcotest.(check int) "fallback without the assumption" 1 r1.Pass_manager.csm_fallbacks;
  Alcotest.(check int) "no fallback with ext_no_openmp" 0 r2.Pass_manager.csm_fallbacks

let suite =
  [
    Alcotest.test_case "OMP100 unknown runtime call" `Quick test_omp100_unknown_runtime_call;
    Alcotest.test_case "ext_no_openmp avoids CSM fallback" `Quick
      test_no_openmp_assumption_avoids_csm_fallback;
    Alcotest.test_case "internalize: weak kept" `Quick test_internalize_weak_not_cloned;
    Alcotest.test_case "internalize: calls redirected" `Quick test_internalize_redirects_calls;
    Alcotest.test_case "dedup: dominating call wins" `Quick test_dedup_dominating;
    Alcotest.test_case "dedup: siblings kept" `Quick test_dedup_respects_dominance;
    Alcotest.test_case "dead region removed" `Quick test_dead_region_removed;
    Alcotest.test_case "fold: mode consensus" `Quick test_fold_needs_consensus;
    Alcotest.test_case "fold: launch bounds need agreement" `Quick
      test_fold_launch_bounds_mixed;
    Alcotest.test_case "kernel without regions SPMDizes" `Quick test_kernel_without_regions;
    Alcotest.test_case "CSM skips region-free kernels" `Quick
      test_csm_on_kernel_without_regions;
    Alcotest.test_case "simplify merges chains" `Quick test_simplify_merges_chains;
    Alcotest.test_case "simplify keeps loops" `Quick test_simplify_keeps_loops;
    Alcotest.test_case "heap-to-shared respects domains" `Quick
      test_heap_to_shared_not_in_parallel_domain;
  ]
