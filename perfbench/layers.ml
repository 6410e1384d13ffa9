(* One compile-and-simulate job, made of direct calls into each layer's
   public functions: Frontend.Codegen.compile, Ir.Verify.check,
   Openmpopt.Pass_manager.run_pipeline, Gpusim.Interp.create and
   Gpusim.Interp.run_host.  This is the sequence Ompgpu_api.compile_buffered
   runs; calling it from here lets the traced run put a span around each
   layer.  Per-pass spans come from the pipeline's Observe.Trace events. *)

module PM = Openmpopt.Pass_manager

type job = {
  file : string;
  scheme : Frontend.Codegen.scheme;
  src : string;
  pipeline : PM.Pipeline.t option;
}

type outcome = {
  error : string option;  (** the first layer that failed, and why *)
  ir_instrs_in : int;  (** after the front end *)
  ir_instrs_out : int;  (** as simulated: after the pipeline, if any *)
  report : PM.report option;
  events : Observe.Trace.event list;  (** per-pass events (traced runs) *)
  cycles : int;
  sim_instrs : int;
  trace_values : Gpusim.Rvalue.t list;
  sim_words : float;  (** minor words allocated by create + run_host *)
  sim_run_s : float;  (** wall time of run_host *)
}

let empty =
  {
    error = None;
    ir_instrs_in = 0;
    ir_instrs_out = 0;
    report = None;
    events = [];
    cycles = 0;
    sim_instrs = 0;
    trace_values = [];
    sim_words = 0.0;
    sim_run_s = 0.0;
  }

let ir_instrs m = (Observe.Trace.stats_of_module m).Observe.Trace.instrs

let fail o layer msg = { o with error = Some (layer ^ ": " ^ msg) }

(* The simulator's trace line exactly as the API prints it. *)
let trace_line values =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Format.fprintf ppf "; trace:%a@." (Fmt.list ~sep:Fmt.sp Gpusim.Rvalue.pp) values;
  Buffer.contents buf

let run ?spans ~req (j : job) =
  let sp ~parent name f = Spans.with_ spans ~parent ~req name f in
  sp ~parent:(-1) "job" @@ fun root ->
  match sp ~parent:root "frontend" (fun _ ->
            Frontend.Codegen.compile ~scheme:j.scheme ~file:j.file j.src)
  with
  | exception e -> fail empty "frontend" (Printexc.to_string e)
  | m -> (
    let o = { empty with ir_instrs_in = ir_instrs m } in
    match sp ~parent:root "verify" (fun _ -> Ir.Verify.check m) with
    | Error msg -> fail o "verify" msg
    | Ok () -> (
      let optimized =
        match j.pipeline with
        | None -> Ok o
        | Some pipeline -> (
          sp ~parent:root "optimize" @@ fun opt ->
          (* an event reports the pass's processor time when the pass has
             ended; its span ends there and never reaches back past the
             previous pass's end *)
          let last_stop = ref (Measure.now ()) in
          let trace =
            Option.map
              (fun t ->
                Observe.Trace.create
                  ~on_event:(fun (e : Observe.Trace.event) ->
                    let stop = Measure.now () in
                    let start = Float.max !last_stop (stop -. e.time_s) in
                    last_stop := stop;
                    ignore (Spans.add t ~parent:opt ~req ~name:("pass." ^ e.pass) ~start ~stop))
                  ())
              spans
          in
          match PM.run_pipeline ~pipeline ?trace m with
          | exception e -> Error (fail o "optimize" (Printexc.to_string e))
          | report -> (
            let o =
              {
                o with
                report = Some report;
                events =
                  (match trace with Some tr -> Observe.Trace.events tr | None -> []);
              }
            in
            match sp ~parent:root "verify" (fun _ -> Ir.Verify.check m) with
            | Error msg -> Error (fail o "verify" msg)
            | Ok () -> Ok o))
      in
      match optimized with
      | Error o -> o
      | Ok o -> (
        let o = { o with ir_instrs_out = ir_instrs m } in
        let w0 = Measure.minor_words () in
        let sim =
          sp ~parent:root "sim.create" (fun _ ->
              Gpusim.Interp.create Gpusim.Machine.bench_machine m)
        in
        let t0 = Measure.now () in
        let ran = sp ~parent:root "sim.run" (fun _ ->
            match Gpusim.Interp.run_host sim with
            | () -> Ok ()
            | exception e -> Error (Printexc.to_string e))
        in
        let o =
          {
            o with
            sim_run_s = Measure.now () -. t0;
            sim_words = Measure.minor_words () -. w0;
          }
        in
        match ran with
        | Error msg -> fail o "sim" msg
        | Ok () ->
          {
            o with
            cycles = Gpusim.Interp.total_kernel_cycles sim;
            sim_instrs =
              List.fold_left
                (fun acc (s : Gpusim.Interp.launch_stats) -> acc + s.instructions)
                0 sim.Gpusim.Interp.kernel_stats;
            trace_values = Gpusim.Interp.trace_values sim;
          })))
