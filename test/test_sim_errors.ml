(* The simulator's failure paths, pinned word for word.  Each faulty
   operand, branch or call sits in a block that runs only when the
   program's constant condition selects it: the same module must run to
   completion while the fault is not executed, and fail with exactly the
   message below once it is.  Fuel exhaustion and injected traps must stop
   at the same executed instruction every time. *)

let parse body =
  let text =
    Printf.sprintf
      {|module "t"
declare void @__devrt_trace(i64)
declare void @ext()
%s
|}
      body
  in
  let m = Ir.Parser.parse_module text in
  Devrt.Registry.declare_in m;
  m

(* A host [main] that traces 1 and then branches on [taken] into [bad] (the
   faulty block) or straight to the exit. *)
let host ~taken bad =
  parse
    (Printf.sprintf
       {|define external i32 @main() {
entry:
  call void @__devrt_trace(i64 1)
  cbr i1 %d, bad, done
bad:
%s
done:
  ret i32 0
}|}
       (if taken then 1 else 0)
       bad)

type result = Finished of string list | Failed of string

let run ?fuel ?injector m =
  let sim = Gpusim.Interp.create ?fuel ?injector Gpusim.Machine.test_machine m in
  let trace () =
    List.map (Fmt.str "%a" Gpusim.Rvalue.pp) (Gpusim.Interp.trace_values sim)
  in
  let outcome =
    match Gpusim.Interp.run_host sim with
    | () -> Finished (trace ())
    | exception Gpusim.Rvalue.Sim_error msg -> Failed ("sim: " ^ msg)
    | exception Failure msg -> Failed ("failure: " ^ msg)
    | exception Fault.Ompgpu_error.Error e ->
      Failed
        (Printf.sprintf "%s: %s"
           (Fault.Ompgpu_error.kind_name e.Fault.Ompgpu_error.kind)
           e.Fault.Ompgpu_error.message)
  in
  (sim, outcome)

let outcome =
  Alcotest.testable
    (fun ppf -> function
      | Finished t -> Fmt.pf ppf "finished [%s]" (String.concat "; " t)
      | Failed m -> Fmt.pf ppf "failed %S" m)
    ( = )

(* [bad] must be harmless until executed, and then fail with [msg]. *)
let lazy_fault name bad msg () =
  Alcotest.check outcome (name ^ ", not executed") (Finished [ "i:1" ])
    (snd (run (host ~taken:false bad)));
  Alcotest.check outcome (name ^ ", executed") (Failed msg)
    (snd (run (host ~taken:true bad)))

let missing_label =
  lazy_fault "branch to a missing label" "  br nowhere"
    "failure: Func.find_block: no block nowhere in main"

let missing_cbr_target =
  lazy_fault "conditional branch to a missing label" "  cbr i1 1, nowhere, done"
    "failure: Func.find_block: no block nowhere in main"

let missing_switch_target =
  lazy_fault "switch to a missing label" "  switch i64 2, [1 -> done, 2 -> nowhere], done"
    "failure: Func.find_block: no block nowhere in main"

let unknown_global =
  lazy_fault "unknown global"
    "  %5 = load i32, @nosuch\n  br done"
    "sim: unknown global @nosuch"

let unset_register =
  lazy_fault "unset register" "  %7 = add i64 %6, i64 1\n  br done"
    "sim: read of unset register %6 in @main"

let out_of_range_register =
  lazy_fault "register beyond the function's frame" "  %7 = add i64 %60, i64 1\n  br done"
    "sim: read of unset register %60 in @main"

let unknown_function =
  lazy_fault "call to an unknown function" "  call void @nofunc()\n  br done"
    "sim: call to unknown function @nofunc"

let external_function =
  lazy_fault "call to an external function" "  call void @ext()\n  br done"
    "sim: call to external function @ext"

let indirect_non_function =
  lazy_fault "indirect call through an integer" "  call void i64 5()\n  br done"
    "sim: indirect call through non-function value i:5"

let unreachable =
  lazy_fault "unreachable" "  unreachable" "sim: executed unreachable in @main"

(* A kernel whose every thread spins: only fuel ends it.  The host spends
   two instructions (the trace and the launch) before the kernel starts;
   fuel 2 runs out on the launch itself. *)
let spinning =
  {|define external void @k() kernel(spmd, teams=2, threads=3) {
entry:
  %0 = alloca i64, 1
  store i64 i64 0, %0
  br loop
loop:
  %1 = load i64, %0
  %2 = add i64 %1, i64 1
  store i64 %2, %0
  br loop
}
define external i32 @main() {
entry:
  call void @__devrt_trace(i64 1)
  call void @k()
  ret i32 0
}|}

(* Two teams of four threads: each thread adds its id to a shared global
   under a barrier, then thread 0 of each team traces the sum. *)
let finite =
  {|global internal @acc : [2 x i64] in global = zeroinit
define external void @k() kernel(spmd, teams=2, threads=4) {
entry:
  %0 = call i64 @__gpu_thread_id()
  %1 = call i64 @__gpu_team_id()
  %2 = mul i64 %1, i64 8
  %3 = gep ptr(global), @acc, %2
  %4 = atomicrmw add i64 %3, %0
  call void @__kmpc_barrier()
  %5 = icmp eq i64 %0, i64 0
  cbr %5, leader, done
leader:
  %6 = load i64, %3
  call void @__devrt_trace(%6)
  br done
done:
  ret
}
define external i32 @main() {
entry:
  call void @k()
  ret i32 0
}|}

let kernel_instrs sim =
  List.map (fun s -> s.Gpusim.Interp.instructions) sim.Gpusim.Interp.kernel_stats

let test_fuel_spinning () =
  List.iter
    (fun (fuel, instrs) ->
      let sim, r = run ~fuel (parse spinning) in
      Alcotest.check outcome
        (Printf.sprintf "fuel %d" fuel)
        (Failed "timeout: simulation fuel exhausted (infinite loop?)")
        r;
      Alcotest.(check (list int)) (Printf.sprintf "fuel %d: instructions" fuel) instrs
        (kernel_instrs sim))
    [ (2, []); (3, [ 1 ]); (4, [ 2 ]); (100, [ 98 ]); (1002, [ 1000 ]) ]

let test_fuel_finite () =
  let sim, r = run (parse finite) in
  Alcotest.check outcome "unbounded" (Finished [ "i:6"; "i:6" ]) r;
  let total = List.fold_left ( + ) 0 (kernel_instrs sim) in
  Alcotest.(check int) "instructions" 60 total;
  (* fuel is spent per executed instruction, terminators excluded: the
     host's one call plus the kernel's counted instructions *)
  Alcotest.check outcome "fuel one past the run" (Finished [ "i:6"; "i:6" ])
    (snd (run ~fuel:(total + 2) (parse finite)));
  Alcotest.check outcome "fuel exactly the run"
    (Failed "timeout: simulation fuel exhausted (infinite loop?)")
    (snd (run ~fuel:(total + 1) (parse finite)))

let test_injected_trap () =
  let trap seed =
    let injector =
      Fault.Injector.create
        [ { Fault.Injector.site = Fault.Injector.Sim_trap; rate = 0.01; seed } ]
    in
    let sim, r = run ~injector (parse finite) in
    (r, kernel_instrs sim)
  in
  Alcotest.(check (pair outcome (list int)))
    "seed 1"
    (Failed "sim-trap: injected trap in @k (thread 1027)", [ 55 ])
    (trap 1);
  Alcotest.(check (pair outcome (list int)))
    "seed 2"
    (Failed "sim-trap: injected trap in @k (thread 1024)", [ 35 ])
    (trap 2);
  Alcotest.(check (pair outcome (list int))) "seed 1 replays" (trap 1) (trap 1)

let suite =
  [
    Alcotest.test_case "missing label" `Quick missing_label;
    Alcotest.test_case "missing cbr target" `Quick missing_cbr_target;
    Alcotest.test_case "missing switch target" `Quick missing_switch_target;
    Alcotest.test_case "unknown global" `Quick unknown_global;
    Alcotest.test_case "unset register" `Quick unset_register;
    Alcotest.test_case "register out of range" `Quick out_of_range_register;
    Alcotest.test_case "unknown function" `Quick unknown_function;
    Alcotest.test_case "external function" `Quick external_function;
    Alcotest.test_case "indirect non-function" `Quick indirect_non_function;
    Alcotest.test_case "unreachable" `Quick unreachable;
    Alcotest.test_case "fuel: spinning kernel" `Quick test_fuel_spinning;
    Alcotest.test_case "fuel: finite kernel" `Quick test_fuel_finite;
    Alcotest.test_case "injected trap" `Quick test_injected_trap;
  ]
