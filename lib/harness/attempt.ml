(* One compile attempt (see the .mli): the single sequence behind both the
   paper's figures (Runner) and every user-facing compile (Ompgpu_api). *)

module E = Fault.Ompgpu_error
module PM = Openmpopt.Pass_manager

type success = {
  m : Ir.Irmod.t;
  report : PM.report option;
  sim : Gpusim.Interp.t option;
}

type failure = { error : E.t; m : Ir.Irmod.t option; report : PM.report option }

let run ~file ~scheme ?pipeline ~machine ~injector ~simulate ?trace ?scratch ?perf
    source =
  let phase name f =
    match perf with
    | None -> f ()
    | Some (p, label) -> Observe.Perf.record p ~stack:[ label; name ] f
  in
  let fail ?m ?report error = Error { error; m; report } in
  let classify ~phase e = Errors.classify ~phase e (Printexc.get_raw_backtrace ()) in
  let verify what m =
    match phase "verify" (fun () -> Ir.Verify.check m) with
    | Result.Ok () -> None
    | Result.Error msg -> Some (E.make E.Verify ~phase:E.Verifying (what ^ msg))
  in
  let execute m report =
    if not simulate then Ok { m; report; sim = None }
    else
      (* laying out the module's globals can already fail *)
      match Gpusim.Interp.create ~injector ?scratch machine m with
      | exception e -> fail ~m ?report (classify ~phase:E.Simulating e)
      | sim -> (
        match phase "simulate" (fun () -> Gpusim.Interp.run_host sim) with
        | () -> Ok { m; report; sim = Some sim }
        | exception e ->
          let error = classify ~phase:E.Simulating e in
          Gpusim.Interp.release sim;
          fail ~m ?report error)
  in
  match phase "frontend" (fun () -> Frontend.Codegen.compile ~scheme ~file source) with
  | exception e -> fail (classify ~phase:E.Lowering e)
  | m -> (
    match verify "front end: " m with
    | Some error -> fail error
    | None -> (
      match pipeline with
      | None -> execute m None
      | Some pipeline -> (
        match phase "optimize" (fun () -> PM.run_pipeline ~pipeline ~injector ?trace m) with
        | exception e -> fail (classify ~phase:E.Optimizing e)
        | report -> (
          match verify "after openmp-opt: " m with
          | Some error -> fail ~report error
          | None -> execute m (Some report)))))

let fingerprint ~scheme ~pipeline ~inject extra =
  String.concat ";"
    (Frontend.Codegen.scheme_name scheme
    :: (match pipeline with None -> "noopt" | Some p -> PM.Pipeline.fingerprint p)
    :: inject :: extra)

let key ~version ~file ~source fingerprint =
  Sched.Cache.key [ version; file; source; fingerprint ]
