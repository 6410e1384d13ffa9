(* SPMDzation demo: the paper's Figure 7.

   A generic-mode region with side effects in the sequential part,
   interleaved with SPMD-amenable code.  The demo shows (a) the kernel being
   converted to SPMD mode, (b) the guard-grouping optimization reducing the
   number of guarded regions and barriers, and (c) the cycle cost of each
   variant on the simulator.

     dune exec examples/spmdization_demo.exe *)

let figure7 =
  {|
double A[4];
double B[4];
double Out[16];
int main() {
  int n = 16;
  #pragma omp target teams distribute num_teams(2) thread_limit(8)
  for (int w = 0; w < n; w++) {
    A[0] = (double)w;          // side effect: needs a guard in SPMD mode
    B[0] = (double)(w * 2);    // second side effect: same guarded region
    #pragma omp parallel for
    for (int i = 0; i < 8; i++) {
      #pragma omp atomic
      Out[w % 16] += A[0] * 0.5 + B[0] * 0.25 + (double)i;
    }
  }
  double s = 0.0;
  for (int i = 0; i < 16; i++) { s += Out[i]; }
  trace_f64(s);
  return 0;
}
|}

let build label options =
  let m = Frontend.Codegen.compile ~file:"figure7.c" figure7 in
  let pipeline = Openmpopt.Pass_manager.Pipeline.of_options options in
  let report = Openmpopt.Pass_manager.run_pipeline ~pipeline m in
  (match Ir.Verify.check m with Ok () -> () | Error e -> failwith e);
  let sim = Gpusim.Interp.create Gpusim.Machine.test_machine m in
  Gpusim.Interp.run_host sim;
  let stats = List.hd sim.Gpusim.Interp.kernel_stats in
  Fmt.pr "%-28s spmdized=%d guards=%-3d barriers=%-4d cycles=%-8d checksum=%a@." label
    report.Openmpopt.Pass_manager.spmdized report.Openmpopt.Pass_manager.guards
    stats.Gpusim.Interp.barriers stats.Gpusim.Interp.cycles
    (Fmt.list Gpusim.Rvalue.pp)
    (Gpusim.Interp.trace_values sim)

let () =
  let open Openmpopt.Pass_manager in
  Fmt.pr "== Figure 7: side-effect guarding during SPMDzation ==@.@.";
  build "generic (no SPMDzation)" { default_options with disable_spmdization = true };
  build "SPMD, naive guards" { default_options with disable_guard_grouping = true };
  build "SPMD, grouped guards" default_options;
  Fmt.pr
    "@.Grouping adjacent side effects shares one guarded region and one barrier@.\
     (compare the guards and barriers columns), exactly as in Fig. 7 of the paper.@."
