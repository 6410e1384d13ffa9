(** One compile attempt: front end → [Ir.Verify] → OpenMPOpt pipeline →
    [Ir.Verify] → simulate.

    The single sequence behind both the paper's figures ({!Runner}) and
    every user-facing compile ([Ompgpu_api]: mompc, mompd, the
    conformance matrix), so the figures describe the code people run.
    The content address of a compile is derived here too ({!key}). *)

type success = {
  m : Ir.Irmod.t;  (** the verified (and, with a pipeline, optimized) module *)
  report : Openmpopt.Pass_manager.report option;  (** [Some] iff a pipeline ran *)
  sim : Gpusim.Interp.t option;
      (** the finished simulator when simulating; the caller owns it and
          [Gpusim.Interp.release]s it when it was built on a scratch *)
}

type failure = {
  error : Fault.Ompgpu_error.t;
      (** classified with the phase that really raised it: lexing,
          parsing, lowering, verifying, optimizing or simulating *)
  m : Ir.Irmod.t option;
      (** the module, when it passed its last verification (a simulation
          failure): the façade prints it before failing *)
  report : Openmpopt.Pass_manager.report option;
      (** the pipeline's report, when the pipeline finished before the
          failure: the façade prints its remarks before failing *)
}

val run :
  file:string ->
  scheme:Frontend.Codegen.scheme ->
  ?pipeline:Openmpopt.Pass_manager.Pipeline.t ->
  machine:Gpusim.Machine.t ->
  injector:Fault.Injector.t ->
  simulate:bool ->
  ?trace:Observe.Trace.t ->
  ?scratch:Gpusim.Scratch.t ->
  ?perf:Observe.Perf.t * string ->
  string ->
  (success, failure) result
(** [run ~file ~scheme ?pipeline ~machine ~injector ~simulate source]
    lowers [source] (labelled [file]) under [scheme], verifies it, runs
    [pipeline] when given and verifies again, then — with [simulate] —
    executes the host program on [machine].  Never raises.

    [injector] arms the pass-crash and simulator fault sites.  [trace]
    receives the pipeline's per-pass events; [scratch] recycles simulation
    arenas across the attempts of one owner; [perf] = [(collector, label)]
    attributes each phase (frontend, verify, optimize, simulate) to the
    collector under the stack [label; phase]. *)

val fingerprint :
  scheme:Frontend.Codegen.scheme ->
  pipeline:Openmpopt.Pass_manager.Pipeline.t option ->
  inject:string ->
  string list ->
  string
(** The identity of a compile's settings, one [;]-separated string: the
    scheme name, the pipeline fingerprint (["noopt"] without one), the
    fault-injector fingerprint ([""] when nothing is armed), then the
    caller's [extra] parts — the façade's output flags, the runner's
    machine fingerprint. *)

val key : version:string -> file:string -> source:string -> string -> string
(** [key ~version ~file ~source fingerprint]: the content address of one
    compile, a [Sched.Cache.key] over the cache [version], the file label,
    the source text and a {!fingerprint} (docs/SCHEDULER.md). *)
