(** Phase-level profiling: wall time and allocation words per semantic
    stack frame, exported as folded stacks (flamegraph input) and a
    schema-stamped per-phase summary.  The collector is safe to share
    across pool domains; recording costs two clock reads and two
    [Gc.minor_words] reads per phase (see docs/PERF.md).  Allocation is
    counted on the recording domain only, so a phase's words do not
    depend on what other domains run meanwhile. *)

val sample : (unit -> 'a) -> 'a * float * float
(** [sample f] runs [f] and returns its result, the wall seconds it took
    and the minor-heap words it allocated on the calling domain.  This is
    the one sampler every timing in the stack uses ([record], the pass
    manager's per-pass [time_s], the bench drivers): wall time, never
    [Sys.time], which is CPU time summed over all domains.  A raising [f]
    propagates its exception unsampled. *)

val best_of_2 : (unit -> 'a) -> 'a * float
(** [best_of_2 f] runs [f] twice and returns the first run's result with
    the faster run's wall seconds, so one scheduler hiccup does not decide
    a timed comparison. *)

type t

val create : unit -> t

val record : t -> stack:string list -> (unit -> 'a) -> 'a
(** Run the thunk, append one sample tagged [stack] with its wall seconds
    and the minor-heap words it allocated on this domain.  A raising
    thunk is still attributed before the exception propagates. *)

val folded : value:[ `Time_us | `Alloc_words ] -> t -> string
(** Samples aggregated by stack in first-appearance order, one
    ["frame;frame COUNT\n"] line each — the folded-stacks text format
    flamegraph.pl and speedscope consume.  Counts are microseconds
    ([`Time_us]) or allocation words ([`Alloc_words]). *)

val totals : t -> (string * (float * float * int)) list
(** Per leaf frame (phase), in first-appearance order: total wall seconds,
    minor-heap words and sample count. *)

val to_json : t -> Json.t
(** Schema-stamped per-phase totals (seconds, allocation words, sample
    count), aggregated by leaf frame. *)
