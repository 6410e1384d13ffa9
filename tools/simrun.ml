(* Development tool: compile, optionally optimize, simulate, print stats. *)
let () =
  let file = Sys.argv.(1) in
  let scheme = match (try Sys.argv.(2) with _ -> "simplified") with
    | "legacy" -> Frontend.Codegen.Legacy
    | "cuda" -> Frontend.Codegen.Cuda
    | _ -> Frontend.Codegen.Simplified
  in
  let optarg = try Sys.argv.(3) with _ -> "" in
  let opt = optarg <> "" && optarg <> "noopt" in
  let has f = List.mem f (String.split_on_char ',' optarg) in
  let pipeline =
    Openmpopt.Pass_manager.Pipeline.of_options
    { Openmpopt.Pass_manager.default_options with
      disable_spmdization = has "no-spmd";
      disable_deglobalization = has "no-deglob";
      disable_state_machine_rewrite = has "no-csm";
      disable_folding = has "no-fold";
      disable_guard_grouping = has "no-group";
    }
  in
  let src = In_channel.with_open_text file In_channel.input_all in
  let m = Frontend.Codegen.compile ~scheme ~file src in
  (match Ir.Verify.check m with Ok () -> () | Error e -> failwith ("pre-opt: " ^ e));
  if opt then begin
    let report = Openmpopt.Pass_manager.run_pipeline ~pipeline m in
    Format.printf "opt: %a@." Openmpopt.Pass_manager.pp_report report;
    List.iter (fun r -> Format.printf "  %s@." (Openmpopt.Remark.to_string r))
      report.Openmpopt.Pass_manager.remarks;
    (match Ir.Verify.check m with
     | Ok () -> ()
     | Error e ->
       Format.printf "%a@." Ir.Printer.pp_module m;
       failwith ("post-opt: " ^ e))
  end;
  if Array.length Sys.argv > 4 && Sys.argv.(4) = "dump" then
    Format.printf "%a@." Ir.Printer.pp_module m;
  let sim = Gpusim.Interp.create Gpusim.Machine.test_machine m in
  Gpusim.Interp.run_host sim;
  Printf.printf "kernel cycles: %d\n" (Gpusim.Interp.total_kernel_cycles sim);
  Printf.printf "trace:";
  List.iter (fun v -> Printf.printf " %s" (Fmt.str "%a" Gpusim.Rvalue.pp v))
    (Gpusim.Interp.trace_values sim);
  print_newline ();
  List.iter (fun (s : Gpusim.Interp.launch_stats) ->
    Printf.printf "%s: cycles=%d instrs=%d regs=%d smem=%d heapHW=%d rtcalls=%d barriers=%d ind=%d teams=%d thr=%d\n"
      s.kernel_name s.cycles s.instructions s.registers s.shared_bytes s.heap_high_water
      s.runtime_calls s.barriers s.indirect_calls s.teams s.threads_per_team)
    sim.kernel_stats
