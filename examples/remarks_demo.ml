(* Remarks demo: the paper's Figure 8 and Section IV-D.

   Compiles a program where static analysis is insufficient, prints the
   numbered OMP1xx remarks with their actionable advice, then shows how the
   OpenMP 5.1 assumptions (ext_spmd_amenable / ext_nocapture) unlock the
   blocked transformations.

     dune exec examples/remarks_demo.exe *)

let blocked assume_capture assume_spmd =
  Printf.sprintf
    {|
%s
extern void combine_external(double* p);
%s
extern void helper_external();
double Out[4];
int main() {
  #pragma omp target teams num_teams(1) thread_limit(4)
  {
    double lcl = 1.0;
    combine_external(&lcl);     // may capture &lcl -> blocks heap-to-stack
    helper_external();          // unknown side effects -> blocks SPMDzation
    Out[0] = lcl;
    #pragma omp parallel
    {
      #pragma omp atomic
      Out[1] += 1.0;
    }
  }
  return 0;
}
|}
    assume_capture assume_spmd

let compile_and_report title src =
  Fmt.pr "== %s ==@." title;
  let m = Frontend.Codegen.compile ~file:"example.c" src in
  let report = Openmpopt.Pass_manager.run_pipeline m in
  List.iter
    (fun r -> Fmt.pr "%s@." (Openmpopt.Remark.to_string r))
    report.Openmpopt.Pass_manager.remarks;
  Fmt.pr "summary: %a@.@." Openmpopt.Pass_manager.pp_report report

let () =
  compile_and_report "without assumptions (missed-optimization remarks)"
    (blocked "" "");
  compile_and_report "with ext_nocapture on combine_external"
    (blocked "#pragma omp assume ext_nocapture" "");
  compile_and_report "with both assumptions (everything fires)"
    (blocked "#pragma omp assume ext_nocapture" "#pragma omp assume ext_spmd_amenable");
  Fmt.pr
    "Each [OMPxxx] identifier corresponds to a documented remark; missed-optimization@.\
     remarks carry the suggested source change, mirroring@.\
     https://openmp.llvm.org/remarks/OptimizationRemarks.html@."
