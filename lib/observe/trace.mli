(** Structured observability for the optimization pipeline.

    A trace records one {!event} per executed pass per pipeline round:
    wall time, module-level IR statistics deltas, per-function deltas (the
    per-kernel attribution the paper's Figures 9–12 are built on), and the
    counter increments that otherwise only appear aggregated in the final
    [Pass_manager.report].  Events are ordered; an optional [on_event] hook
    fires synchronously after each recording (the test suite uses it to run
    the IR verifier after every pass and name the offending one). *)

(** Size statistics of a function or module. *)
type ir_stats = {
  funcs : int;  (** defined functions ([1] for a single function) *)
  blocks : int;
  instrs : int;
  calls : int;  (** call instructions, direct and indirect *)
  allocs : int;  (** [alloca]s plus allocating runtime calls *)
}

val ir_stats_zero : ir_stats
val ir_stats_add : ir_stats -> ir_stats -> ir_stats
val ir_stats_sub : ir_stats -> ir_stats -> ir_stats
val ir_stats_is_zero : ir_stats -> bool
val stats_of_func : Ir.Func.t -> ir_stats
val stats_of_module : Ir.Irmod.t -> ir_stats

type snapshot
(** Per-function statistics of a module at one instant. *)

val snapshot : Ir.Irmod.t -> snapshot

type event = {
  seq : int;  (** position in the trace, starting at 0 *)
  round : int;  (** pipeline round; 0 = before the round loop *)
  pass : string;
  time_s : float;
      (** wall time spent in the pass ([Perf.sample]'s clock); the pass
          runs on one domain, so other domains' work never adds to it *)
  delta : ir_stats;  (** module-level change (after minus before) *)
  per_func : (string * ir_stats) list;
      (** nonzero per-function deltas; a function created (resp. deleted)
          by the pass appears with its full positive (resp. negative)
          statistics *)
  counters : (string * int) list;  (** nonzero report-counter increments *)
}

type t

val create : ?on_event:(event -> unit) -> unit -> t
(** [on_event] runs synchronously after each {!record_pass}. *)

val record_pass :
  t ->
  round:int ->
  pass:string ->
  time_s:float ->
  before:snapshot ->
  after:snapshot ->
  counters:(string * int) list ->
  event
(** Diff the snapshots, append the event, fire [on_event], return it.
    [counters] entries with value 0 are dropped. *)

val events : t -> event list
(** In recording order. *)

val pp_event : Format.formatter -> event -> unit
(** One human-readable line: [r1 deglobalize 0.12ms Δinstrs=-4 {h2s=2}]. *)

(** JSON round-trip (schema in docs/OBSERVABILITY.md). *)

val event_to_json : event -> Json.t
val event_of_json : Json.t -> (event, string) result
val to_json : t -> Json.t
(** The events, oldest first, as a JSON list. *)
