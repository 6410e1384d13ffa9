(** The SIMT interpreter.

    Threads run with a run-to-block discipline, each accumulating its own
    cycle clock; synchronization points (barriers, the worker state machine,
    parallel-region joins) align the clocks of the released threads.  The
    host runs as a single thread whose direct calls to kernel functions are
    intercepted as launches.  Device runtime functions ([__kmpc_*],
    [__gpu_*], math builtins, tracing) are interpreted natively here. *)

(** Abnormal terminations raise [Fault.Ompgpu_error.Error] with phase
    [Simulating]: [Sim_trap] for (injected) traps, [Timeout] for fuel
    exhaustion, [Deadlock {barrier}] — carrying the offending "func/block"
    barrier site(s) — for true barrier divergence or a wedged worker state
    machine.  [Rvalue.Sim_error] still covers dynamic value errors. *)

(** Statistics of one kernel launch — the raw material of Figures 10/11. *)
type launch_stats = {
  kernel_name : string;
  mutable cycles : int;  (** modeled kernel time (throughput over teams) *)
  mutable team_cycles_total : int;
  mutable instructions : int;
  mutable loads_global : int;
  mutable loads_shared : int;
  mutable loads_local : int;
  mutable stores_global : int;
  mutable stores_shared : int;
  mutable stores_local : int;
  mutable atomics_global : int;
  mutable atomics_shared : int;
  mutable divergent_branches : int;
      (** threads of one team disagreeing on a branch target at the same
          per-site execution index (structural SIMT-divergence model) *)
  mutable runtime_calls : int;
  mutable barriers : int;
  mutable indirect_calls : int;
  mutable shared_bytes : int;  (** static + stack high water, max over teams *)
  mutable shared_fallbacks : int;
      (** shared-memory budget misses served gracefully from the device heap
          (the globalization fallback path) instead of aborting *)
  mutable heap_high_water : int;  (** concurrency-scaled device-heap footprint *)
  mutable registers : int;  (** static per-thread estimate (Regalloc) *)
  mutable teams : int;
  mutable threads_per_team : int;
}

type t = {
  m : Ir.Irmod.t;
  machine : Machine.t;
  mem : Mem.t;
  mutable trace : Rvalue.t list;  (** [__devrt_trace] output, newest first *)
  mutable kernel_stats : launch_stats list;  (** newest first *)
  mutable stats : launch_stats;
      (** head of [kernel_stats]; before the first launch a record no one
          reads *)
  team_uid_gen : Support.Util.Id_gen.t;
  mutable fuel : int;
  injector : Fault.Injector.t;
  armed : bool;  (** [injector] is not [Fault.Injector.none] *)
  mutable cur_team : team option;
  funcs : (string, Ir.Func.t) Hashtbl.t;  (** name -> function, built once *)
  plans : (string, fplan) Hashtbl.t;
      (** per-function execution plans, lowered on first entry *)
  mutable bid_gen : int;
}

and team
and fplan

(** Pure operational helpers, exposed for cross-checking against the
    optimizer's constant folding. *)

val exec_bin : Ir.Instr.bin -> Ir.Types.t -> Rvalue.t -> Rvalue.t -> Rvalue.t
val exec_icmp : Ir.Instr.icmp -> Ir.Types.t -> Rvalue.t -> Rvalue.t -> Rvalue.t
val exec_cast : Ir.Instr.cast -> Ir.Types.t -> Rvalue.t -> Rvalue.t

val occupancy_factor : Machine.t -> int -> float
(** Time multiplier from register-limited occupancy: (max_warps/active)^0.75. *)

val create :
  ?fuel:int ->
  ?injector:Fault.Injector.t ->
  ?scratch:Scratch.t ->
  Machine.t ->
  Ir.Irmod.t ->
  t
(** Lay out the module's globals and prepare a simulation.  [fuel] bounds
    the total number of executed instructions (default 2e8).  [injector]
    arms the [Mem_alloc], [Shared_budget] and [Sim_trap] fault sites.
    [scratch] backs the simulated memory with a pool worker's recycled
    arenas (zero-filled on reuse — results stay byte-identical to fresh
    allocation); call {!release} when done with the interpreter. *)

val release : t -> unit
(** Return the memory arenas to the scratch (no-op without one).  The
    interpreter must not be used afterwards. *)

val run_host : ?entry:string -> t -> unit
(** Execute the host [entry] function (default ["main"]).  Kernel launches
    happen synchronously as they are reached.
    @raise Mem.Out_of_memory when a launch exhausts the device heap.
    @raise Rvalue.Sim_error on dynamic errors (bad memory, unknown calls).
    @raise Fault.Ompgpu_error.Error on deadlock, trap or fuel exhaustion. *)

val launch_kernel : t -> Ir.Func.t -> Rvalue.t list -> unit
(** Launch one kernel directly (used by the host interception; exposed for
    tests and tools). *)

val total_kernel_cycles : t -> int
(** Sum of modeled kernel times over all launches (the nvprof metric of the
    paper's evaluation). *)

val trace_values : t -> Rvalue.t list
(** The observable trace, oldest first. *)

val max_shared_bytes : t -> int
val max_registers : t -> int
