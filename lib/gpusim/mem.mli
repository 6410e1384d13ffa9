(** The simulated memory subsystem: one global space (module globals + the
    device heap), one shared space per team, one local space per thread.

    Cross-thread access to local memory reproduces real GPU behaviour:
    local memory is thread-addressed, so dereferencing another thread's
    local pointer silently reads the *current* thread's local memory at the
    same offset — which is exactly how the paper's Figure 3 miscompiles
    under the legacy SPMD fast path.  Such accesses are counted. *)

type arena = { ab : Bytes.t; mutable ahigh : int }
(** A shared/local arena plus the high end of its written span (the dirty
    extent handed back to the scratch on release). *)

type t = {
  machine : Machine.t;
  injector : Fault.Injector.t;
  scratch : Scratch.t option;
  global : Bytes.t;
  shareds : (int, arena) Hashtbl.t;
  locals : (int, arena) Hashtbl.t;
  globals_layout : (string, int) Hashtbl.t;
  shared_layout : (string, int) Hashtbl.t;
  mutable globals_size : int;
  mutable static_shared_size : int;
  heap_base : int;
  mutable heap_cursor : int;
  mutable heap_free : (int * int) list;
  mutable heap_in_use : int;
  mutable heap_high_water : int;
  mutable gdirty_low : int;
  mutable gdirty_heap : int;
  mutable cross_local_accesses : int;
  mutable cached_ranges : (int * int) list;
  mutable shared_key : int;  (** team of [shared_hit]; [min_int] = empty *)
  mutable shared_hit : arena;
  mutable local_key : int;  (** thread of [local_hit]; [min_int] = empty *)
  mutable local_hit : arena;
}

exception Out_of_memory of string

val create : ?injector:Fault.Injector.t -> ?scratch:Scratch.t -> Machine.t -> t
(** [injector] arms the [Mem_alloc] fault site: [heap_alloc] then fails
    deterministically at the injected rate.  [scratch] recycles arena bytes
    across jobs of one pool worker; recycled arenas are zero-filled before
    reuse, so simulations stay byte-identical to the allocate-per-job
    path. *)

val release_shared : t -> int -> unit
(** Drop a team's shared arena (recycled into the scratch when present). *)

val release_local : t -> int -> unit
(** Drop a thread's local arena (recycled into the scratch when present). *)

val release : t -> unit
(** Hand every arena back to the scratch; the memory must not be used
    afterwards.  A no-op without a scratch. *)

val cache_threshold : int
(** Global arrays up to this size get the read-only-cache latency. *)

val layout_module : t -> Ir.Irmod.t -> unit
(** Place module globals: global-space globals in one arena, shared-space
    globals (HeapToShared results) at per-team offsets. *)

val global_addr : t -> string -> team:int -> Rvalue.ptr
val is_cached : t -> int -> bool

val code_of_space : Rvalue.space -> int
(** A pointer space as an immediate int: global 0, shared team [u] 4u+1,
    local thread [o] 4o+2 (the host's -1 included). *)

val space_of_code : int -> Rvalue.space

val load_bytes : t -> current:int -> int -> Bytes.t
(** The arena a load through a pointer of this space code reads (the
    address is the offset).  Like {!read}, a cross-thread local pointer
    reads the current thread's arena and is counted. *)

val store_bytes : t -> current:int -> int -> int -> int -> Bytes.t
(** [store_bytes t ~current code addr size]: the arena a store writes,
    after recording the written span's high end as {!write} does. *)

val check_bounds : Bytes.t -> int -> int -> string -> unit
(** [check_bounds arena off size what] raises the out-of-bounds
    [Sim_error] {!read} and {!write} raise. *)

val in_ranges : int -> (int * int) list -> bool
(** Whether the address falls in one of the half-open ranges. *)

val read : t -> current:int -> Rvalue.ptr -> Ir.Types.t -> Rvalue.t
val write : t -> current:int -> Rvalue.ptr -> Ir.Types.t -> Rvalue.t -> unit

val encode_ptr : Rvalue.ptr -> int64
(** Pointers in memory are tag(2) | owner(22) | addr(40). *)

val decode_ptr : int64 -> Rvalue.ptr

val heap_alloc : t -> int -> Rvalue.ptr * int
(** Returns the block and the granted (rounded) size.
    @raise Out_of_memory when the arena itself is exhausted, or when the
    [Mem_alloc] fault site fires. *)

val heap_free_block : t -> int -> int -> unit
