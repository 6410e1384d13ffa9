(* Golden simulator counters: every [launch_stats] field of every kernel
   launch, the memory subsystem's cross-thread local-access count, and the
   exact trace values, for each Figure-10 configuration of each proxy
   application at tiny scale on the bench machine (the `make perf` batch).
   The cost model is the paper's evaluation, so any change to how the
   simulator executes must leave these lines byte-identical; a change that
   moves a counter must update the golden on purpose and say why.

   Re-generate with:
     GOLDEN_PRINT=1 dune exec test/test_main.exe -- test sim-golden
   and paste the printed lists below. *)

let machine = Gpusim.Machine.bench_machine
let scale = Proxyapps.App.Tiny

(* The build of [config], as [Harness.Runner] compiles it. *)
let build (app : Proxyapps.App.t) (config : Harness.Config.t) =
  let file = app.Proxyapps.App.name ^ ".c" in
  let compile scheme src = Frontend.Codegen.compile ~scheme ~file src in
  match config.Harness.Config.build with
  | Harness.Config.Llvm12 ->
    compile Frontend.Codegen.Legacy (app.Proxyapps.App.omp_source scale)
  | Harness.Config.Dev_noopt ->
    compile Frontend.Codegen.Simplified (app.Proxyapps.App.omp_source scale)
  | Harness.Config.Dev options ->
    let m = compile Frontend.Codegen.Simplified (app.Proxyapps.App.omp_source scale) in
    let pipeline = Openmpopt.Pass_manager.Pipeline.of_options options in
    ignore (Openmpopt.Pass_manager.run_pipeline ~pipeline m);
    m
  | Harness.Config.Cuda ->
    compile Frontend.Codegen.Cuda (app.Proxyapps.App.cuda_source scale)

(* Floats print in hex so the golden pins every bit. *)
let value = function
  | Gpusim.Rvalue.I v -> Printf.sprintf "i:%Ld" v
  | Gpusim.Rvalue.F v -> Printf.sprintf "f:%h" v
  | v -> Fmt.str "%a" Gpusim.Rvalue.pp v

let launch (s : Gpusim.Interp.launch_stats) =
  let open Gpusim.Interp in
  Printf.sprintf
    "%s cycles=%d team_cycles=%d instrs=%d loads=%d/%d/%d stores=%d/%d/%d \
     atomics=%d/%d div=%d rt=%d barriers=%d indirect=%d shared=%d fallbacks=%d \
     heap=%d regs=%d teams=%d threads=%d"
    s.kernel_name s.cycles s.team_cycles_total s.instructions s.loads_global
    s.loads_shared s.loads_local s.stores_global s.stores_shared s.stores_local
    s.atomics_global s.atomics_shared s.divergent_branches s.runtime_calls s.barriers
    s.indirect_calls s.shared_bytes s.shared_fallbacks s.heap_high_water s.registers
    s.teams s.threads_per_team

let lines app config =
  let m = build app config in
  let sim = Gpusim.Interp.create machine m in
  let outcome =
    match Gpusim.Interp.run_host sim with
    | () -> "ok"
    | exception Gpusim.Mem.Out_of_memory msg -> "oom: " ^ msg
    | exception Gpusim.Rvalue.Sim_error msg -> "error: " ^ msg
    | exception Fault.Ompgpu_error.Error e -> "error: " ^ Fault.Ompgpu_error.to_string e
  in
  (outcome :: List.rev_map launch sim.Gpusim.Interp.kernel_stats)
  @ [
      Printf.sprintf "cross_local=%d"
        sim.Gpusim.Interp.mem.Gpusim.Mem.cross_local_accesses;
      "trace: " ^ String.concat " " (List.map value (Gpusim.Interp.trace_values sim));
    ]

let check_golden app_name golden () =
  let app = Proxyapps.Apps.find_exn app_name in
  let actual =
    List.map
      (fun (c : Harness.Config.t) -> (c.Harness.Config.label, lines app c))
      (Harness.Config.fig10_configs app_name)
  in
  if Sys.getenv_opt "GOLDEN_PRINT" <> None then begin
    Printf.eprintf "let golden_%s =\n  [\n" app_name;
    List.iter
      (fun (label, ls) ->
        Printf.eprintf "    ( %S,\n      [\n" label;
        List.iter (fun l -> Printf.eprintf "        %S;\n" l) ls;
        Printf.eprintf "      ] );\n")
      actual;
    Printf.eprintf "  ]\n"
  end;
  Alcotest.(check (list (pair string (list string))))
    (app_name ^ " simulator counters") golden actual

let golden_xsbench =
  [
    ( "CUDA (Clang Dev)",
      [
        "ok";
        "__omp_offloading_main_l45_0 cycles=10885 team_cycles=43540 instrs=153419 loads=3136/0/43505 stores=64/0/14969 atomics=0/0 div=789 rt=192 barriers=0 indirect=0 shared=0 fallbacks=0 heap=0 regs=31 teams=4 threads=8";
        "cross_local=0";
        "trace: f:0x1.872852d77cedbp+4";
      ] );
    ( "LLVM 12",
      [
        "ok";
        "__omp_offloading_main_l45_0 cycles=13150 team_cycles=52600 instrs=154411 loads=3136/0/43665 stores=64/0/15129 atomics=0/0 div=789 rt=448 barriers=32 indirect=0 shared=0 fallbacks=0 heap=0 regs=26 teams=4 threads=8";
        "cross_local=0";
        "trace: f:0x1.872852d77cedbp+4";
      ] );
    ( "LLVM Dev 0",
      [
        "ok";
        "__omp_offloading_main_l45_0 cycles=10907 team_cycles=43628 instrs=153195 loads=3136/0/43569 stores=64/0/15033 atomics=0/0 div=789 rt=160 barriers=32 indirect=0 shared=0 fallbacks=0 heap=0 regs=26 teams=4 threads=8";
        "cross_local=0";
        "trace: f:0x1.872852d77cedbp+4";
      ] );
  ]

let golden_rsbench =
  [
    ( "CUDA (Clang Dev)",
      [
        "ok";
        "__omp_offloading_main_l71_0 cycles=114548 team_cycles=410924 instrs=1426669 loads=17328/0/377875 stores=48/0/146130 atomics=0/0 div=0 rt=1008 barriers=0 indirect=0 shared=0 fallbacks=0 heap=0 regs=37 teams=4 threads=8";
        "cross_local=0";
        "trace: f:0x1.12bd30f8e3dcbp+11";
      ] );
    ( "LLVM 12",
      [
        "ok";
        "__omp_offloading_main_l71_0 cycles=194088 team_cycles=758640 instrs=1488973 loads=17328/0/386803 stores=48/0/155058 atomics=0/0 div=0 rt=18800 barriers=32 indirect=0 shared=0 fallbacks=0 heap=0 regs=33 teams=4 threads=8";
        "cross_local=0";
        "trace: f:0x1.12bd30f8e3dcbp+11";
      ] );
    ( "LLVM Dev 0",
      [
        "ok";
        "__omp_offloading_main_l71_0 cycles=89203 team_cycles=356814 instrs=1214525 loads=17328/0/377939 stores=48/0/146194 atomics=0/0 div=0 rt=976 barriers=32 indirect=0 shared=0 fallbacks=0 heap=0 regs=32 teams=4 threads=8";
        "cross_local=0";
        "trace: f:0x1.12bd30f8e3dcbp+11";
      ] );
  ]

let golden_su3bench =
  [
    ( "CUDA (Clang Dev)",
      [
        "ok";
        "__omp_offloading_main_l42_0 cycles=9785 team_cycles=19570 instrs=61394 loads=1728/0/15009 stores=288/0/4928 atomics=0/0 div=0 rt=96 barriers=0 indirect=0 shared=0 fallbacks=0 heap=0 regs=30 teams=2 threads=8";
        "__omp_offloading_main_l46_1 cycles=8453 team_cycles=16906 instrs=56508 loads=1440/0/13570 stores=288/0/4642 atomics=0/0 div=0 rt=384 barriers=0 indirect=0 shared=0 fallbacks=0 heap=0 regs=28 teams=2 threads=8";
        "cross_local=0";
        "trace: f:0x1.14890e8aa1b0ep+11";
      ] );
    ( "LLVM 12",
      [
        "ok";
        "__omp_offloading_main_l42_0 cycles=257149 team_cycles=325042 instrs=128390 loads=3168/5762/23876 stores=576/3842/6852 atomics=0/0 div=462 rt=5126 barriers=1024 indirect=448 shared=64 fallbacks=0 heap=0 regs=59 teams=2 threads=8";
        "cross_local=0";
        "trace: f:0x1.14890e8aa1b0ep+11";
      ] );
    ( "LLVM Dev 0",
      [
        "ok";
        "__omp_offloading_main_l42_0 cycles=34438 team_cycles=68876 instrs=120558 loads=3168/1616/28146 stores=576/98/10034 atomics=0/0 div=510 rt=2160 barriers=1296 indirect=0 shared=24 fallbacks=0 heap=0 regs=31 teams=2 threads=8";
        "cross_local=0";
        "trace: f:0x1.14890e8aa1b0ep+11";
      ] );
  ]

let golden_miniqmc =
  [
    ( "LLVM 12",
      [
        "ok";
        "__omp_offloading_main_l38_0 cycles=179510 team_cycles=163946 instrs=66843 loads=320/6306/12405 stores=144/1684/5060 atomics=0/128 div=14 rt=2342 barriers=512 indirect=224 shared=296 fallbacks=0 heap=0 regs=91 teams=2 threads=8";
        "cross_local=0";
        "trace: f:0x1.179735310fef4p+4";
      ] );
    ( "LLVM Dev 0",
      [
        "ok";
        "__omp_offloading_main_l38_0 cycles=44143 team_cycles=46148 instrs=80161 loads=1552/6032/14691 stores=144/532/6194 atomics=0/128 div=272 rt=2656 barriers=2336 indirect=0 shared=272 fallbacks=0 heap=0 regs=76 teams=2 threads=8";
        "cross_local=0";
        "trace: f:0x1.179735310fef4p+4";
      ] );
  ]

let suite =
  [
    Alcotest.test_case "xsbench" `Quick (check_golden "xsbench" golden_xsbench);
    Alcotest.test_case "rsbench" `Quick (check_golden "rsbench" golden_rsbench);
    Alcotest.test_case "su3bench" `Quick (check_golden "su3bench" golden_su3bench);
    Alcotest.test_case "miniqmc" `Quick (check_golden "miniqmc" golden_miniqmc);
  ]
