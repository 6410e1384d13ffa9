(* The SIMT interpreter.

   Threads are simulated with a run-to-block discipline: each thread executes
   until it finishes or blocks on a synchronization point (barrier, the
   worker state machine, or a parallel-region join), accumulating its own
   cycle clock.  Synchronization points align the clocks of the released
   threads to the maximum arrival time plus the synchronization cost, which
   yields a causally consistent timing model without lock-step emulation.

   Execution plan.  The interpreter never walks MiniIR.  The first time a
   function is entered, [plan_for] lowers it once into a plan: its blocks
   become arrays of decoded instructions, branch targets become block
   indices, and every operand is resolved to a register id, an argument
   index, a prebuilt constant, a shared-space global's offset, or a
   deferred error (a global the module lacks, a register the function never
   defines).  Costs, result registers and the runtime/module split of
   direct callees are decided at lowering too.  Lowering never fails: a
   branch to a missing label or a read of an unknown global raises its
   error only when it executes.

   Registers live unboxed in a per-thread register stack (a tag byte, an
   int64/address payload, a float payload and a space code per slot; each
   frame owns a window of it).  Well-typed integer, float and pointer
   operations read and write it without allocating; anything else (undef,
   function values, ill-typed operands, errors) takes the generic path over
   boxed [Rvalue.t]s, which defines the results and error messages the
   fast paths must match.  Per executed instruction there remain the instruction
   counter, the fuel check and — only when an injector is armed — the
   [Sim_trap] coin, because their exact counts are part of the model's
   output.

   The device runtime's executable semantics (__kmpc_* interception) live
   here; its *static* semantics (what the optimizer may assume) live in
   [Devrt.Registry]. *)

open Ir
open Rvalue

(* All abnormal terminations raise [Fault.Ompgpu_error.Error] with a
   simulation-phase payload: [Sim_trap] for trap instructions and injected
   traps, [Timeout] for fuel exhaustion, [Deadlock] (with the offending
   barrier site) for true barrier divergence.  [Rvalue.Sim_error] still
   covers dynamic value errors; harness boundaries classify it. *)

let sim_error kind fmt = Fault.Ompgpu_error.raise_error kind ~phase:Fault.Ompgpu_error.Simulating fmt

type status =
  | Runnable
  | Wait_work  (* worker parked in the state machine *)
  | Wait_join  (* main thread waiting for workers to finish a region *)
  | In_barrier
  | Finished

type frame_kind =
  | Normal
  | Parallel_body_generic  (* main thread running the region it published *)
  | Parallel_body_spmd  (* SPMD-mode region body: implicit barrier on return *)
  | Parallel_body_nested

(* ------------------------------------------------------------------ *)
(* Execution plan                                                      *)
(* ------------------------------------------------------------------ *)

(* An operand is an int: [o >= 0] is a frame slot (a register id, or
   [bound + i] for declared parameter i); [o < 0] is the plan's special
   operand [-1 - o], one of these: *)
type special =
  | OInt of int  (* integer constant: index into the plan's [kints] *)
  | OFlt of int  (* float constant: index into the plan's [kflts] *)
  | OArg of int  (* an argument past the declared parameters *)
  | OConst of Rvalue.t  (* any other constant *)
  | OShared of int  (* shared-space global: offset in the current team's arena *)
  | OUnknown of string  (* a global the module does not define *)
  | OUnset of int  (* a register id no instruction of the function defines *)

type callee =
  | Runtime of string  (* a [Devrt.Registry] function, interpreted natively *)
  | Defined of Func.t  (* a module function (maybe a declaration or a kernel) *)
  | Unknown of string
  | Through of int  (* indirect call through this operand *)

type instr =
  | Alloca of { dst : int; size : int }
  | Load of { dst : int; ty : Types.t; size : int; ptr : int }
  | Store of { ty : Types.t; size : int; v : int; ptr : int }
  | Gep of { dst : int; base : int; off : int }
  | Ibin of { op : Instr.bin; ty : Types.t; cost : int; dst : int; a : int; b : int }
  | Fbin of {
      op : Instr.bin;
      ty : Types.t;
      f32 : bool;
      cost : int;
      dst : int;
      a : int;
      b : int;
    }
  | Icmp of { cc : Instr.icmp; ty : Types.t; ptr : bool; dst : int; a : int; b : int }
  | Fcmp of { cc : Instr.fcmp; dst : int; a : int; b : int }
  | Cast of { op : Instr.cast; ty : Types.t; dst : int; v : int }
  | Select of { dst : int; c : int; a : int; b : int }
  | Atomic of { op : Instr.atomic; ty : Types.t; dst : int; ptr : int; v : int }
  | Call of {
      ret : int;  (* result register, -1 = none *)
      callee : callee;
      args : int list;
      exact : bool;  (* a [Defined] callee declaring as many parameters as [args] *)
    }

(* Branch targets are block indices; a label the function lacks becomes
   [-1 - k], [k] indexing the plan's [missing] labels. *)
type term =
  | Br of int
  | Cbr of int * int * int
  | Switch of int * (int64 * int) list * int
  | Ret of int option
  | Unreachable

(* [bid] is dense per interpreter: the divergence tables key on it. *)
type pblock = { code : instr array; term : term; bid : int; label : string }

(* A frame's slots are the registers ([0, bound)) then the declared
   parameters ([bound, bound + nparams)).  Constants live unboxed in pools,
   so every fast-path read of an integer or float operand is a plain load. *)
type fplan = {
  func : Func.t;
  bound : int;  (* register ids are below this *)
  nparams : int;
  blocks : pblock array;
  entry : pblock;
  missing : string array;
  specials : special array;
  kints : Bytes.t;  (* 8 bytes per integer constant *)
  kflts : Float.Array.t;
}

(* ------------------------------------------------------------------ *)
(* Interpreter state                                                   *)
(* ------------------------------------------------------------------ *)

type frame = {
  plan : fplan;
  mutable blk : pblock;
  mutable pc : int;  (* next instruction of [blk]; its length = the terminator *)
  base : int;  (* first register slot of this frame *)
  fargs : Rvalue.t array;
  flocal_base : int;
  fkind : frame_kind;
  (* register of the calling instruction expecting our return value, -1 = none *)
  fret_reg : int;
}

type thread = {
  gid : int;
  tid : int;
  mutable stack : frame list;
  mutable status : status;
  mutable clock : int;
  mutable local_sp : int;
  mutable level : int;  (* parallel nesting level *)
  mutable last_work_gen : int;
  (* value delivered to the blocked runtime call on wakeup *)
  mutable wake_value : Rvalue.t;
  (* result register of the runtime call this thread is blocked in, -1 = none *)
  mutable blocked_reg : int;
  (* true when parked in __kmpc_worker_wait_id (id protocol, post-CSM) *)
  mutable wait_wants_id : bool;
  (* "func/block" of the barrier this thread is parked in ("" when not);
     the deadlock detector reports it on barrier divergence *)
  mutable barrier_site : string;
  (* device-heap bytes this thread currently holds (globalization spills) *)
  mutable heap_live : int;
  (* per branch site (block id), how many times this thread has executed
     it; indexes the team's divergence table *)
  mutable site_execs : int array;
  (* the register stack, one slot per register of every live frame: *)
  mutable tags : Bytes.t;  (* what the slot holds (tag_* below) *)
  mutable ints : Bytes.t;  (* int64 payload, or a pointer's address *)
  mutable flts : Float.Array.t;  (* float payload *)
  mutable spcs : int array;  (* a pointer's space code (Mem.code_of_space) *)
  mutable objs : Rvalue.t array;  (* a function value *)
  mutable rtop : int;  (* first free slot *)
}

type work = {
  wfn : string;
  wid : int64;
  wargs : Rvalue.t;
  wactive : int;  (* number of participating threads, including main *)
  wgen : int;
}

type team = {
  team_idx : int;  (* index within the launch (0..nteams-1) *)
  team_uid : int;  (* globally unique id, keys the shared memory arena *)
  threads : thread array;
  mutable shared_sp : int;
  mutable shared_high : int;
  mutable work : (work, unit) Either.t option;  (* Left w = published work *)
  mutable work_gen : int;
  mutable join_pending : int;
  mutable terminating : bool;
  mutable barrier_waiting : thread list;
  mutable exec_spmd : bool;
  mutable is_cuda : bool;
  (* shared-stack regions allocated AoS by __kmpc_alloc_shared: accesses
     into them are uncoalesced *)
  mutable uncoalesced : (int * int) list;
  (* first target block taken at (branch site, per-thread execution index)
     — the key packs [block id lsl 12 lor index] (index <
     divergence_window): a later thread choosing differently is a
     divergent-branch event *)
  branch_first : (int, int) Hashtbl.t;
  launch_teams : int;
  launch_threads : int;
}

type launch_stats = {
  kernel_name : string;
  mutable cycles : int;  (* modeled kernel time *)
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
  mutable runtime_calls : int;
  mutable barriers : int;
  mutable indirect_calls : int;
  mutable shared_bytes : int;  (* static + stack high water, max over teams *)
  mutable shared_fallbacks : int;
    (* shared-memory budget misses served from the device heap instead of
       aborting (the paper's globalization fallback path) *)
  mutable heap_high_water : int;
  mutable registers : int;
  mutable teams : int;
  mutable threads_per_team : int;
}

let fresh_stats ~kernel_name ~registers ~teams ~threads_per_team =
  {
    kernel_name;
    cycles = 0;
    team_cycles_total = 0;
    instructions = 0;
    loads_global = 0;
    loads_shared = 0;
    loads_local = 0;
    stores_global = 0;
    stores_shared = 0;
    stores_local = 0;
    atomics_global = 0;
    atomics_shared = 0;
    divergent_branches = 0;
    runtime_calls = 0;
    barriers = 0;
    indirect_calls = 0;
    shared_bytes = 0;
    shared_fallbacks = 0;
    heap_high_water = 0;
    registers;
    teams;
    threads_per_team;
  }

type t = {
  m : Irmod.t;
  machine : Machine.t;
  mem : Mem.t;
  mutable trace : Rvalue.t list;  (* __devrt_trace output, newest first *)
  mutable kernel_stats : launch_stats list;  (* newest first *)
  (* head of [kernel_stats]; before the first launch a record nobody reads,
     so counting never tests for "no launch yet" *)
  mutable stats : launch_stats;
  team_uid_gen : Support.Util.Id_gen.t;
  mutable fuel : int;
  injector : Fault.Injector.t;
  armed : bool;  (* [injector] is not [Fault.Injector.none] *)
  (* the team the currently-simulated thread belongs to (None = host) *)
  mutable cur_team : team option;
  (* name -> function, built once; [Irmod.find_func] scans a list *)
  funcs : (string, Func.t) Hashtbl.t;
  plans : (string, fplan) Hashtbl.t;  (* per-function plans, built lazily *)
  mutable bid_gen : int;  (* next block id for plans *)
}

let create ?(fuel = 200_000_000) ?(injector = Fault.Injector.none)
    ?scratch (machine : Machine.t) (m : Irmod.t) =
  let mem = Mem.create ~injector ?scratch machine in
  Mem.layout_module mem m;
  let funcs = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace funcs f.Func.name f) m.Irmod.funcs;
  {
    m;
    machine;
    mem;
    trace = [];
    kernel_stats = [];
    stats = fresh_stats ~kernel_name:"" ~registers:0 ~teams:0 ~threads_per_team:0;
    team_uid_gen = Support.Util.Id_gen.create ();
    fuel;
    injector;
    armed = not (Fault.Injector.is_none injector);
    cur_team = None;
    funcs;
    plans = Hashtbl.create 64;
    bid_gen = 0;
  }

(* Hand the memory arenas back to the scratch pool (when one was attached).
   The interpreter must not be used afterwards. *)
let release t = Mem.release t.mem

let find_func t name = Hashtbl.find_opt t.funcs name

let costs t = t.machine.Machine.costs

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

let bin_cost (c : Machine.costs) (op : Instr.bin) =
  match op with
  | Instr.Add | Instr.Sub | Instr.And | Instr.Or | Instr.Xor | Instr.Shl
  | Instr.Lshr | Instr.Ashr ->
    c.Machine.alu
  | Instr.Mul -> c.Machine.imul
  | Instr.Sdiv | Instr.Srem | Instr.Udiv | Instr.Urem -> c.Machine.idiv
  | Instr.Fadd | Instr.Fsub -> c.Machine.fadd
  | Instr.Fmul -> c.Machine.fmul
  | Instr.Fdiv -> c.Machine.fdiv

(* Constants of the function being lowered, pooled in first-use order. *)
type pool = {
  mutable special_list : special list;  (* newest first *)
  mutable nspecials : int;
  mutable kint_list : int64 list;  (* newest first *)
  mutable nkints : int;
  mutable kflt_list : float list;
  mutable nkflts : int;
}

let add_special pool sp =
  pool.special_list <- sp :: pool.special_list;
  pool.nspecials <- pool.nspecials + 1;
  -pool.nspecials

let lower_operand t ~bound ~nparams pool (v : Value.t) =
  match v with
  | Value.Const c -> (
    match of_const c with
    | I x ->
      pool.kint_list <- x :: pool.kint_list;
      pool.nkints <- pool.nkints + 1;
      add_special pool (OInt (pool.nkints - 1))
    | F x ->
      pool.kflt_list <- x :: pool.kflt_list;
      pool.nkflts <- pool.nkflts + 1;
      add_special pool (OFlt (pool.nkflts - 1))
    | rv -> add_special pool (OConst rv))
  | Value.Reg id -> if id >= 0 && id < bound then id else add_special pool (OUnset id)
  | Value.Arg i -> if i >= 0 && i < nparams then bound + i else add_special pool (OArg i)
  | Value.Global name -> (
    match Mem.global_addr t.mem name ~team:0 with
    | { sp = Sshared _; addr } -> add_special pool (OShared addr)
    | p -> add_special pool (OConst (P p))
    | exception Sim_error _ -> add_special pool (OUnknown name))
  | Value.Func name -> add_special pool (OConst (Fn name))

let lower_instr t ~bound ~nparams pool (i : Instr.t) =
  let c = costs t in
  let op = lower_operand t ~bound ~nparams pool in
  let dst = i.Instr.id in
  match i.Instr.kind with
  | Instr.Alloca (ty, n) ->
    Alloca
      { dst; size = Support.Util.round_up_to (max 1 (Types.size_of ty * n)) ~multiple:8 }
  | Instr.Load (ty, p) -> Load { dst; ty; size = Types.size_of ty; ptr = op p }
  | Instr.Store (ty, v, p) -> Store { ty; size = Types.size_of ty; v = op v; ptr = op p }
  | Instr.Gep (_, b, o) -> Gep { dst; base = op b; off = op o }
  | Instr.Bin (bop, ty, a, b) ->
    if Types.is_float ty then
      Fbin
        {
          op = bop;
          ty;
          f32 = Types.equal ty Types.F32;
          cost = bin_cost c bop;
          dst;
          a = op a;
          b = op b;
        }
    else Ibin { op = bop; ty; cost = bin_cost c bop; dst; a = op a; b = op b }
  | Instr.Icmp (cc, ty, a, b) ->
    Icmp { cc; ty; ptr = Types.is_pointer ty; dst; a = op a; b = op b }
  | Instr.Fcmp (cc, _, a, b) -> Fcmp { cc; dst; a = op a; b = op b }
  | Instr.Cast (cop, ty, v) -> Cast { op = cop; ty; dst; v = op v }
  | Instr.Select (_, cv, a, b) -> Select { dst; c = op cv; a = op a; b = op b }
  | Instr.Atomicrmw (aop, ty, p, v) -> Atomic { op = aop; ty; dst; ptr = op p; v = op v }
  | Instr.Call (_, callee, args) ->
    let callee =
      match callee with
      | Instr.Indirect fv -> Through (op fv)
      | Instr.Direct name -> (
        match Devrt.Registry.lookup name with
        | Some _ -> Runtime name
        | None -> (
          match find_func t name with Some f -> Defined f | None -> Unknown name))
    in
    let exact =
      match callee with
      | Defined f -> List.compare_lengths f.Func.params args = 0
      | Runtime _ | Unknown _ | Through _ -> false
    in
    Call
      {
        ret = (if Instr.has_result i then dst else -1);
        callee;
        args = List.map op args;
        exact;
      }

let plan_for t (f : Func.t) =
  match Hashtbl.find_opt t.plans f.Func.name with
  | Some p -> p
  | None ->
    let bound =
      max 1
        (Func.fold_instrs f ~init:0 ~g:(fun acc _ (i : Instr.t) -> max acc (i.Instr.id + 1)))
    in
    (* label -> index; a repeated label resolves to its last block *)
    let index = Hashtbl.create 16 in
    List.iteri (fun k (b : Block.t) -> Hashtbl.replace index b.Block.label k) f.Func.blocks;
    let missing = ref [] and nmissing = ref 0 in
    let target label =
      match Hashtbl.find_opt index label with
      | Some k -> k
      | None -> (
        match List.assoc_opt label !missing with
        | Some k -> -1 - k
        | None ->
          let k = !nmissing in
          missing := (label, k) :: !missing;
          incr nmissing;
          -1 - k)
    in
    let nparams = List.length f.Func.params in
    let pool =
      {
        special_list = [];
        nspecials = 0;
        kint_list = [];
        nkints = 0;
        kflt_list = [];
        nkflts = 0;
      }
    in
    let ids = Array.make (List.length f.Func.blocks) 0 in
    let blocks =
      Array.of_list
        (List.mapi
           (fun k (b : Block.t) ->
             let bid = t.bid_gen in
             t.bid_gen <- t.bid_gen + 1;
             ids.(k) <- bid;
             let op = lower_operand t ~bound ~nparams pool in
             let term =
               match b.Block.term with
               | Block.Br l -> Br (target l)
               | Block.Cbr (v, l1, l2) -> Cbr (op v, target l1, target l2)
               | Block.Switch (v, cases, default) ->
                 Switch (op v, List.map (fun (x, l) -> (x, target l)) cases, target default)
               | Block.Ret v -> Ret (Option.map op v)
               | Block.Unreachable -> Unreachable
             in
             {
               code =
                 Array.of_list (List.map (lower_instr t ~bound ~nparams pool) b.Block.instrs);
               term;
               bid;
               label = b.Block.label;
             })
           f.Func.blocks)
    in
    (* the entry block takes the divergence id its label resolves to *)
    let entry =
      if Array.length blocks = 0 then { code = [||]; term = Unreachable; bid = -1; label = "" }
      else { (blocks.(0)) with bid = ids.(Hashtbl.find index blocks.(0).label) }
    in
    let missing_labels = Array.make !nmissing "" in
    List.iter (fun (l, k) -> missing_labels.(k) <- l) !missing;
    let kints = Bytes.create (8 * pool.nkints) in
    List.iteri
      (fun k x -> Bytes.set_int64_ne kints (8 * (pool.nkints - 1 - k)) x)
      pool.kint_list;
    let kflts = Float.Array.of_list (List.rev pool.kflt_list) in
    let p =
      {
        func = f;
        bound;
        nparams;
        blocks;
        entry;
        missing = missing_labels;
        specials = Array.of_list (List.rev pool.special_list);
        kints;
        kflts;
      }
    in
    Hashtbl.replace t.plans f.Func.name p;
    p

(* ------------------------------------------------------------------ *)
(* The register stack                                                  *)
(* ------------------------------------------------------------------ *)

(* native-endian and unchecked: the register stack and constant pools are
   private and sized at frame push; simulated memory uses the
   little-endian, checked accessors of [Bytes] as [Mem] does *)
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let tag_unset = '\000'
let tag_int = '\001'
let tag_flt = '\002'
let tag_ptr = '\003'
let tag_fn = '\004'
let tag_undef = '\005'

let make_thread ~gid ~tid =
  {
    gid;
    tid;
    stack = [];
    status = Runnable;
    clock = 0;
    local_sp = 0;
    level = 0;
    last_work_gen = 0;
    wake_value = Undef;
    blocked_reg = -1;
    wait_wants_id = false;
    barrier_site = "";
    heap_live = 0;
    site_execs = [||];
    tags = Bytes.empty;
    ints = Bytes.empty;
    flts = Float.Array.create 0;
    spcs = [||];
    objs = [||];
    rtop = 0;
  }

(* Make room for [n] more slots above [rtop], keeping the live ones. *)
let reserve th n =
  let need = th.rtop + n in
  let cap = Bytes.length th.tags in
  if need > cap then begin
    let cap' = max need (2 * cap) in
    let tags = Bytes.make cap' tag_unset in
    Bytes.blit th.tags 0 tags 0 th.rtop;
    let ints = Bytes.create (8 * cap') in
    Bytes.blit th.ints 0 ints 0 (8 * th.rtop);
    let flts = Float.Array.create cap' in
    Float.Array.blit th.flts 0 flts 0 th.rtop;
    let spcs = Array.make cap' 0 in
    Array.blit th.spcs 0 spcs 0 th.rtop;
    let objs = Array.make cap' Undef in
    Array.blit th.objs 0 objs 0 th.rtop;
    th.tags <- tags;
    th.ints <- ints;
    th.flts <- flts;
    th.spcs <- spcs;
    th.objs <- objs
  end

let[@inline] set_int th s v =
  Bytes.unsafe_set th.tags s tag_int;
  set64u th.ints (s lsl 3) v

let[@inline] set_flt th s f =
  Bytes.unsafe_set th.tags s tag_flt;
  Float.Array.unsafe_set th.flts s f

let[@inline] set_ptr th s code addr =
  Bytes.unsafe_set th.tags s tag_ptr;
  Array.unsafe_set th.spcs s code;
  set64u th.ints (s lsl 3) (Int64.of_int addr)

let set_value th s (rv : Rvalue.t) =
  match rv with
  | I v -> set_int th s v
  | F f -> set_flt th s f
  | P p -> set_ptr th s (Mem.code_of_space p.sp) p.addr
  | Fn _ ->
    Bytes.unsafe_set th.tags s tag_fn;
    Array.unsafe_set th.objs s rv
  | Undef -> Bytes.unsafe_set th.tags s tag_undef

(* The boxed value of a set slot. *)
let slot_value th s : Rvalue.t =
  match Bytes.unsafe_get th.tags s with
  | '\001' -> of_int64 (get64u th.ints (s lsl 3))
  | '\002' -> F (Float.Array.unsafe_get th.flts s)
  | '\003' ->
    P
      {
        sp = Mem.space_of_code (Array.unsafe_get th.spcs s);
        addr = Int64.to_int (get64u th.ints (s lsl 3));
      }
  | '\004' -> Array.unsafe_get th.objs s
  | _ -> Undef

(* ------------------------------------------------------------------ *)
(* Operands                                                            *)
(* ------------------------------------------------------------------ *)

let shared_code t =
  match t.cur_team with Some team -> (team.team_uid lsl 2) lor 1 | None -> -3

let unset_error fr id = error "read of unset register %%%d in @%s" id fr.plan.func.Func.name

(* Reading an unset slot: an undefined register, or a declared parameter
   the caller did not pass (whose read fails as the argument array's). *)
let read_unset fr id : Rvalue.t =
  if id >= fr.plan.bound then fr.fargs.(id - fr.plan.bound) else unset_error fr id

let[@inline] special fr o = Array.unsafe_get fr.plan.specials (-1 - o)

(* The generic read: the operand as a boxed value.  It raises every operand
   error: an unset register, a missing argument, an unknown global. *)
let ev t th fr o : Rvalue.t =
  if o >= 0 then begin
    let s = fr.base + o in
    if Bytes.unsafe_get th.tags s = tag_unset then read_unset fr o else slot_value th s
  end
  else
    match special fr o with
    | OInt k -> of_int64 (get64u fr.plan.kints (k lsl 3))
    | OFlt k -> F (Float.Array.unsafe_get fr.plan.kflts k)
    | OArg i -> fr.fargs.(i)
    | OConst v -> v
    | OShared off -> P { sp = Mem.space_of_code (shared_code t); addr = off }
    | OUnknown name -> error "unknown global @%s" name
    | OUnset id -> unset_error fr id

(* Typed fast reads: [is_int] says the operand holds an integer, and only
   then may [int_of] be used; likewise for floats and pointers. *)
let[@inline] is_int th fr o =
  if o >= 0 then Bytes.unsafe_get th.tags (fr.base + o) = tag_int
  else match special fr o with OInt _ -> true | _ -> false

let[@inline] int_of th fr o =
  if o >= 0 then get64u th.ints ((fr.base + o) lsl 3)
  else match special fr o with OInt k -> get64u fr.plan.kints (k lsl 3) | _ -> 0L

let[@inline] is_flt th fr o =
  if o >= 0 then Bytes.unsafe_get th.tags (fr.base + o) = tag_flt
  else match special fr o with OFlt _ -> true | _ -> false

let[@inline] flt_of th fr o =
  if o >= 0 then Float.Array.unsafe_get th.flts (fr.base + o)
  else match special fr o with OFlt k -> Float.Array.unsafe_get fr.plan.kflts k | _ -> 0.0

let[@inline] is_ptr th fr o =
  if o >= 0 then Bytes.unsafe_get th.tags (fr.base + o) = tag_ptr
  else match special fr o with OConst (P _) | OShared _ -> true | _ -> false

let[@inline] ptr_code t th fr o =
  if o >= 0 then Array.unsafe_get th.spcs (fr.base + o)
  else
    match special fr o with
    | OConst (P p) -> Mem.code_of_space p.sp
    | OShared _ -> shared_code t
    | _ -> 0

let[@inline] ptr_addr th fr o =
  if o >= 0 then Int64.to_int (get64u th.ints ((fr.base + o) lsl 3))
  else match special fr o with OConst (P p) -> p.addr | OShared off -> off | _ -> 0

(* Copy an operand's value into slot [s] without boxing it. *)
let move t th fr o s =
  if o >= 0 then begin
    let src = fr.base + o in
    let tag = Bytes.unsafe_get th.tags src in
    if tag = tag_unset then ignore (read_unset fr o);
    Bytes.unsafe_set th.tags s tag;
    set64u th.ints (s lsl 3) (get64u th.ints (src lsl 3));
    Float.Array.unsafe_set th.flts s (Float.Array.unsafe_get th.flts src);
    Array.unsafe_set th.spcs s (Array.unsafe_get th.spcs src);
    if tag = tag_fn then Array.unsafe_set th.objs s (Array.unsafe_get th.objs src)
  end
  else
    match special fr o with
    | OShared off -> set_ptr th s (shared_code t) off
    | _ -> set_value th s (ev t th fr o)

(* Pointer bits as stored in memory (Mem.encode_ptr), from a space code. *)
let[@inline] encode_code code addr =
  let tag = code land 3 in
  let owner = match tag with 0 -> 0 | 1 -> code asr 2 | _ -> (code asr 2) + 1 in
  Int64.(
    logor
      (shift_left (of_int tag) 62)
      (logor (shift_left (of_int owner) 40) (of_int (addr land 0xFFFFFFFFFF))))

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

(* [Rvalue.truncate_to] and [Rvalue.to_f32], repeated here so they inline:
   an int64 or float crossing a module boundary is boxed. *)
let[@inline] truncate_to ty v =
  match ty with
  | Types.I1 -> Int64.logand v 1L
  | Types.I8 -> Int64.shift_right (Int64.shift_left v 56) 56
  | Types.I32 -> Int64.shift_right (Int64.shift_left v 32) 32
  | _ -> v

let[@inline] to_f32 x = Int32.float_of_bits (Int32.bits_of_float x)

(* unsigned operations must see the zero-extended value of the width *)
let[@inline] unsigned ty v =
  match ty with
  | Types.I1 -> Int64.logand v 1L
  | Types.I8 -> Int64.logand v 0xFFL
  | Types.I32 -> Int64.logand v 0xFFFFFFFFL
  | _ -> v

let[@inline] int_bin (op : Instr.bin) ty x y =
  let open Instr in
  let r =
    match op with
    | Add -> Int64.add x y
    | Sub -> Int64.sub x y
    | Mul -> Int64.mul x y
    | Sdiv -> if y = 0L then error "division by zero" else Int64.div x y
    | Srem -> if y = 0L then error "remainder by zero" else Int64.rem x y
    | Udiv ->
      if y = 0L then error "division by zero"
      else Int64.unsigned_div (unsigned ty x) (unsigned ty y)
    | Urem ->
      if y = 0L then error "remainder by zero"
      else Int64.unsigned_rem (unsigned ty x) (unsigned ty y)
    | And -> Int64.logand x y
    | Or -> Int64.logor x y
    | Xor -> Int64.logxor x y
    | Shl -> Int64.shift_left x (Int64.to_int y land 63)
    | Lshr -> Int64.shift_right_logical (unsigned ty x) (Int64.to_int y land 63)
    | Ashr -> Int64.shift_right x (Int64.to_int y land 63)
    | Fadd | Fsub | Fmul | Fdiv -> error "float binop on integer type"
  in
  truncate_to ty r

let[@inline] float_bin (op : Instr.bin) ~f32 x y =
  let open Instr in
  let r =
    match op with
    | Fadd -> x +. y
    | Fsub -> x -. y
    | Fmul -> x *. y
    | Fdiv -> x /. y
    | _ -> error "integer binop on float type"
  in
  if f32 then to_f32 r else r

let exec_bin op ty a b =
  if Types.is_float ty then
    F (float_bin op ~f32:(Types.equal ty Types.F32) (as_float a) (as_float b))
  else
    let x = as_int a and y = as_int b in
    of_int64 (int_bin op ty x y)

let ptr_as_bits = function
  | P p -> Mem.encode_ptr p
  | Fn name -> Int64.of_int (1 + Hashtbl.hash name)  (* nonzero: never null *)
  | v -> as_int v

let[@inline] int_cmp (cc : Instr.icmp) x y =
  let open Instr in
  match cc with
  | Eq -> Int64.equal x y
  | Ne -> not (Int64.equal x y)
  | Slt -> Int64.compare x y < 0
  | Sle -> Int64.compare x y <= 0
  | Sgt -> Int64.compare x y > 0
  | Sge -> Int64.compare x y >= 0
  | Ult -> Int64.unsigned_compare x y < 0
  | Ule -> Int64.unsigned_compare x y <= 0
  | Ugt -> Int64.unsigned_compare x y > 0
  | Uge -> Int64.unsigned_compare x y >= 0

let exec_icmp cc ty a b =
  let x, y =
    if Types.is_pointer ty then (ptr_as_bits a, ptr_as_bits b) else (as_int a, as_int b)
  in
  of_bool (int_cmp cc x y)

let[@inline] float_cmp (cc : Instr.fcmp) (x : float) (y : float) =
  let open Instr in
  match cc with
  | Oeq -> x = y
  | One -> x <> y && not (Float.is_nan x || Float.is_nan y)
  | Olt -> x < y
  | Ole -> x <= y
  | Ogt -> x > y
  | Oge -> x >= y

let exec_fcmp cc a b =
  let x = as_float a and y = as_float b in
  of_bool (float_cmp cc x y)

let exec_cast op to_ty v =
  let open Instr in
  match op with
  | Zext | Sext -> of_int64 (truncate_to to_ty (as_int v))
  | Trunc -> of_int64 (truncate_to to_ty (as_int v))
  | Sitofp ->
    let f = Int64.to_float (as_int v) in
    F (if Types.equal to_ty Types.F32 then to_f32 f else f)
  | Fptosi -> of_int64 (truncate_to to_ty (Int64.of_float (as_float v)))
  | Fpext -> F (as_float v)
  | Fptrunc -> F (to_f32 (as_float v))
  | Bitcast -> (
    match (v, to_ty) with
    | F f, Types.I64 -> I (Int64.bits_of_float f)
    | F f, Types.I32 -> I (Int64.of_int32 (Int32.bits_of_float f))
    | I i, Types.F64 -> F (Int64.float_of_bits i)
    | I i, Types.F32 -> F (Int32.float_of_bits (Int64.to_int32 i))
    | v, _ -> v)
  | Spacecast -> v

(* ------------------------------------------------------------------ *)
(* Cost accounting                                                     *)
(* ------------------------------------------------------------------ *)

let[@inline] access_cost t code addr =
  let c = costs t in
  match code land 3 with
  | 0 ->
    if Mem.is_cached t.mem addr then c.Machine.global_cached_access
    else c.Machine.global_access
  | 1 -> (
    match t.cur_team with
    | Some team when team.team_uid = code asr 2 && Mem.in_ranges addr team.uncoalesced ->
      c.Machine.shared_uncoalesced_access
    | _ -> c.Machine.shared_access)
  | _ -> c.Machine.local_access

let[@inline] count_load t code =
  let s = t.stats in
  match code land 3 with
  | 0 -> s.loads_global <- s.loads_global + 1
  | 1 -> s.loads_shared <- s.loads_shared + 1
  | _ -> s.loads_local <- s.loads_local + 1

let[@inline] count_store t code =
  let s = t.stats in
  match code land 3 with
  | 0 -> s.stores_global <- s.stores_global + 1
  | 1 -> s.stores_shared <- s.stores_shared + 1
  | _ -> s.stores_local <- s.stores_local + 1

let count_atomic t (p : ptr) =
  let s = t.stats in
  match p.sp with
  | Sglobal -> s.atomics_global <- s.atomics_global + 1
  | Sshared _ -> s.atomics_shared <- s.atomics_shared + 1
  | Slocal _ -> ()  (* thread-private: not a contended operation *)

(* Divergence detection.  The run-to-block scheduler never aligns thread
   PCs, so SIMT divergence is reconstructed structurally: per branch site,
   the n-th execution by every thread of a team should take the same target;
   a thread disagreeing with the first-recorded target at its index is one
   divergent-branch event.  Tracking stops past [divergence_window]
   executions per site to bound the table on long-running uniform loops
   (divergence there repeats the early pattern). *)
let divergence_window = 4096

let note_branch t th fr ~target =
  match t.cur_team with
  | Some team when Array.length team.threads > 1 ->
    let site = fr.blk.bid in
    if site >= Array.length th.site_execs then begin
      let a = Array.make (max (site + 1) (2 * Array.length th.site_execs)) 0 in
      Array.blit th.site_execs 0 a 0 (Array.length th.site_execs);
      th.site_execs <- a
    end;
    let n = Array.unsafe_get th.site_execs site in
    Array.unsafe_set th.site_execs site (n + 1);
    if n < divergence_window then begin
      let key = (site lsl 12) lor n in
      match Hashtbl.find team.branch_first key with
      | first ->
        if first <> target then
          t.stats.divergent_branches <- t.stats.divergent_branches + 1
      | exception Not_found -> Hashtbl.add team.branch_first key target
    end
  | _ -> ()

let[@inline] charge th cycles = th.clock <- th.clock + cycles

(* ------------------------------------------------------------------ *)
(* Synchronization mechanics                                           *)
(* ------------------------------------------------------------------ *)

let barrier_expected team =
  if team.exec_spmd then Array.length team.threads
  else
    match team.work with
    | Some (Either.Left w) -> w.wactive
    | Some (Either.Right ()) | None -> 1

(* The "func/block" site a thread currently executes — the barrier id the
   deadlock detector reports.  Region-exit implicit barriers run after the
   frame was popped, so fall back to the caller frame (or a fixed tag). *)
let thread_site th =
  match th.stack with
  | f :: _ -> f.plan.func.Func.name ^ "/" ^ f.blk.label
  | [] -> "<region-exit>"

(* Thread [th] arrives at a team barrier.  Returns [true] if the thread may
   continue immediately (it was the last to arrive or is alone). *)
let barrier_enter t team th =
  let expected = barrier_expected team in
  t.stats.barriers <- t.stats.barriers + 1;
  if expected <= 1 then begin
    charge th (costs t).Machine.barrier;
    true
  end
  else begin
    team.barrier_waiting <- th :: team.barrier_waiting;
    if List.length team.barrier_waiting >= expected then begin
      let arrival =
        List.fold_left (fun acc th' -> max acc th'.clock) 0 team.barrier_waiting
      in
      let release = arrival + (costs t).Machine.barrier in
      List.iter
        (fun th' ->
          th'.clock <- release;
          th'.status <- Runnable;
          th'.barrier_site <- "")
        team.barrier_waiting;
      team.barrier_waiting <- [];
      true
    end
    else begin
      th.status <- In_barrier;
      th.barrier_site <- thread_site th;
      false
    end
  end

(* Publish a parallel region from the main thread (generic mode, level 0). *)
let publish_work t team th ~fn ~id ~args ~requested =
  let nthreads = Array.length team.threads in
  let active = if requested > 0 then min requested nthreads else nthreads in
  charge th (costs t).Machine.parallel_publish;
  (* the generic-mode runtime releases work through a team-wide dispatch
     barrier (one arrival per thread); its time is already modeled by the
     publish/resume costs, but it counts as a barrier in the cost model —
     this is the synchronization SPMDization deletes *)
  t.stats.barriers <- t.stats.barriers + nthreads;
  team.work_gen <- team.work_gen + 1;
  team.work <-
    Some (Either.Left { wfn = fn; wid = id; wargs = args; wactive = active; wgen = team.work_gen });
  team.join_pending <- active - 1;  (* workers; main participates directly *)
  (* wake parked workers that participate *)
  Array.iter
    (fun w ->
      if w.tid > 0 && w.tid < active && w.status = Wait_work then begin
        w.status <- Runnable;
        w.clock <- max w.clock (th.clock + (costs t).Machine.worker_resume);
        w.wake_value <- (if w.wait_wants_id then I id else Fn fn);
        w.last_work_gen <- team.work_gen;
        w.level <- 1
      end)
    team.threads

let finish_join t team =
  team.work <- None;
  let main = team.threads.(0) in
  if main.status = Wait_join then begin
    let worker_max =
      Array.fold_left
        (fun acc w -> if w.tid > 0 then max acc w.clock else acc)
        0 team.threads
    in
    main.status <- Runnable;
    main.clock <- max main.clock worker_max + (costs t).Machine.parallel_join
  end;
  (* the matching join side of the dispatch barrier (see publish_work) *)
  t.stats.barriers <- t.stats.barriers + Array.length team.threads

(* ------------------------------------------------------------------ *)
(* Function call machinery                                             *)
(* ------------------------------------------------------------------ *)

let push_frame t th ?(kind = Normal) ?(ret_reg = -1) (f : Func.t) args =
  if Func.is_declaration f then error "call to undefined function @%s" f.Func.name;
  let plan = plan_for t f in
  let size = plan.bound + plan.nparams in
  reserve th size;
  let base = th.rtop in
  Bytes.unsafe_fill th.tags base size tag_unset;
  for i = 0 to Int.min plan.nparams (Array.length args) - 1 do
    set_value th (base + plan.bound + i) (Array.unsafe_get args i)
  done;
  th.rtop <- base + size;
  let frame =
    {
      plan;
      blk = plan.entry;
      pc = 0;
      base;
      fargs = args;
      flocal_base = th.local_sp;
      fkind = kind;
      fret_reg = ret_reg;
    }
  in
  th.stack <- frame :: th.stack

(* Raise what reading [o] would raise, without reading it. *)
let check_readable th fr o =
  if o >= 0 then begin
    if Bytes.unsafe_get th.tags (fr.base + o) = tag_unset then ignore (read_unset fr o)
  end
  else
    match special fr o with
    | OArg i -> ignore fr.fargs.(i)
    | OUnknown name -> error "unknown global @%s" name
    | OUnset id -> unset_error fr id
    | OInt _ | OFlt _ | OConst _ | OShared _ -> ()

(* Returns [false] when the thread has fully finished.  [ret] is the
   returned operand, read from the popped frame's registers (still intact
   above the new [rtop]) into the caller's result register. *)
let pop_frame t team_opt th (ret : int option) =
  match th.stack with
  | [] -> false
  | frame :: rest ->
    th.local_sp <- frame.flocal_base;
    th.stack <- rest;
    th.rtop <- frame.base;
    (match frame.fkind with
    | Normal -> ()
    | Parallel_body_generic -> (
      th.level <- th.level - 1;
      match team_opt with
      | Some team ->
        if team.join_pending > 0 then th.status <- Wait_join else finish_join t team
      | None -> ())
    | Parallel_body_spmd -> (
      th.level <- th.level - 1;
      match team_opt with
      | Some team -> ignore (barrier_enter t team th)
      | None -> ())
    | Parallel_body_nested -> th.level <- th.level - 1);
    (match rest with
    | caller :: _ when frame.fret_reg >= 0 -> (
      let s = caller.base + frame.fret_reg in
      match ret with Some op -> move t th frame op s | None -> set_value th s Undef)
    | _ -> ());
    rest <> []

(* ------------------------------------------------------------------ *)
(* Device runtime interception                                         *)
(* ------------------------------------------------------------------ *)

(* result of a runtime call *)
type rt_result =
  | Done of Rvalue.t  (* call completed, thread continues *)
  | Blocked  (* thread parked; the call's result arrives via wake_value *)

let is_main_thread th = th.tid = 0

(* Allocate from the device heap, modeling the concurrent footprint: on
   real hardware every resident team runs all of its threads at once, and
   each executes the same allocation sites; the simulator serializes
   threads, so the footprint is reconstructed from the per-thread live
   bytes scaled by the number of concurrently allocating threads. *)
let device_heap_alloc t team th size =
  let p, granted = Mem.heap_alloc t.mem size in
  th.heap_live <- th.heap_live + granted;
  let resident_teams = max 1 (min team.launch_teams t.machine.Machine.num_sms) in
  let allocating_threads =
    if team.exec_spmd || th.level > 0 then Array.length team.threads else 1
  in
  let footprint = th.heap_live * allocating_threads * resident_teams in
  if footprint > t.stats.heap_high_water then t.stats.heap_high_water <- footprint;
  if footprint > t.machine.Machine.heap_bytes then
    raise
      (Mem.Out_of_memory
         (Printf.sprintf
            "device heap exhausted: %d teams x %d threads x %d live bytes exceeds %d"
            resident_teams allocating_threads th.heap_live
            t.machine.Machine.heap_bytes));
  p

let device_heap_free t th addr size =
  let size8 = Support.Util.round_up_to (max 8 size) ~multiple:8 in
  th.heap_live <- max 0 (th.heap_live - size8);
  Mem.heap_free_block t.mem addr size

let count_shared_fallback t = t.stats.shared_fallbacks <- t.stats.shared_fallbacks + 1

(* The shared-memory budget check of an allocation site.  Injection at
   [Shared_budget] simulates exhaustion: the allocation must then take the
   same graceful heap-fallback path a genuinely full budget takes — the
   run continues (slower), it does not abort. *)
let shared_budget_allows t fits =
  fits && not (Fault.Injector.fire t.injector Fault.Injector.Shared_budget)

let alloc_shared_storage t team th size =
  let c = costs t in
  let in_sequential_main =
    (not team.exec_spmd) && is_main_thread th && th.level = 0
  in
  let size_tax = size / 8 in
  if in_sequential_main then begin
    (* bump the team's dynamic data-sharing stack; it is a small carve-out,
       so large allocations fall back to the device heap *)
    let size8 = Support.Util.round_up_to (max 8 size) ~multiple:8 in
    let dyn_used = team.shared_sp - t.mem.Mem.static_shared_size in
    if
      shared_budget_allows t
        (dyn_used + size8 <= t.machine.Machine.dyn_shared_stack_bytes
        && team.shared_sp + size8 <= t.machine.Machine.shared_bytes_per_team)
    then begin
      charge th (c.Machine.alloc_shared_main + size_tax);
      let addr = team.shared_sp in
      team.shared_sp <- team.shared_sp + size8;
      if team.shared_sp > team.shared_high then team.shared_high <- team.shared_sp;
      team.uncoalesced <- (addr, addr + size8) :: team.uncoalesced;
      P { sp = Sshared team.team_uid; addr }
    end
    else begin
      (* budget miss (real or injected): graceful device-heap fallback *)
      count_shared_fallback t;
      charge th (c.Machine.alloc_shared_parallel + size_tax);
      P (device_heap_alloc t team th size)
    end
  end
  else begin
    (* per-thread allocation in a parallel context: contended global heap *)
    charge th (c.Machine.alloc_shared_parallel + size_tax);
    P (device_heap_alloc t team th size)
  end

let free_shared_storage t team th ptr size =
  let c = costs t in
  charge th c.Machine.free_shared;
  match ptr with
  | P { sp = Sshared uid; addr } when uid = team.team_uid ->
    let size8 = Support.Util.round_up_to (max 8 size) ~multiple:8 in
    (* LIFO pop when possible; otherwise just account *)
    if addr + size8 = team.shared_sp then team.shared_sp <- addr
  | P ({ sp = Sglobal; _ } as p) -> device_heap_free t th p.addr size
  | P { sp = Slocal _; _ } -> ()  (* legacy SPMD fast path: plain alloca *)
  | _ -> ()

(* Legacy push: one aggregated allocation.  In a sequential main region it
   behaves like alloc_shared; in a parallel context the warp-coalesced
   implementation amortizes the runtime call across the warp and still
   places data in shared memory when it fits. *)
let legacy_push t team th size =
  let c = costs t in
  let size8 = Support.Util.round_up_to (max 8 size) ~multiple:8 in
  let fits =
    shared_budget_allows t
      (team.shared_sp + size8 <= t.machine.Machine.shared_bytes_per_team)
  in
  if fits then begin
    let amortized =
      if th.level > 0 || team.exec_spmd then max 16 (c.Machine.push_stack / 4)
      else c.Machine.push_stack
    in
    charge th amortized;
    let addr = team.shared_sp in
    team.shared_sp <- team.shared_sp + size8;
    if team.shared_sp > team.shared_high then team.shared_high <- team.shared_sp;
    P { sp = Sshared team.team_uid; addr }
  end
  else begin
    count_shared_fallback t;
    charge th c.Machine.push_stack;
    P (device_heap_alloc t team th size)
  end

let trace_value t rv = t.trace <- rv :: t.trace

let math1 name x =
  match name with
  | "__math_sqrt" -> sqrt x
  | "__math_sin" -> sin x
  | "__math_cos" -> cos x
  | "__math_exp" -> exp x
  | "__math_log" -> log x
  | "__math_fabs" -> Float.abs x
  | _ -> error "unknown math builtin %s" name

(* Execute a device runtime call on a device thread. *)
let device_runtime_call t team th name (args : Rvalue.t list) : rt_result =
  let c = costs t in
  t.stats.runtime_calls <- t.stats.runtime_calls + 1;
  match (name, args) with
  | "__kmpc_target_init", [ _mode ] ->
    let cost =
      if team.is_cuda then c.Machine.target_init_cuda
      else if team.exec_spmd then c.Machine.target_init_spmd
      else c.Machine.target_init_generic
    in
    charge th cost;
    Done (I (if (not team.exec_spmd) && is_main_thread th then -1L else Int64.of_int th.tid))
  | "__kmpc_target_deinit", [ _mode ] ->
    charge th c.Machine.target_deinit;
    if not team.exec_spmd then begin
      (* main thread terminates the worker state machine *)
      team.terminating <- true;
      Array.iter
        (fun w ->
          if w.tid > 0 && w.status = Wait_work then begin
            w.status <- Runnable;
            w.clock <- max w.clock (th.clock + c.Machine.worker_resume);
            (* null fn pointer / id -2: exit the state machine *)
            w.wake_value <- (if w.wait_wants_id then I (-2L) else I 0L)
          end)
        team.threads
    end;
    Done Undef
  | "__kmpc_parallel_51", [ fnv; idv; argsv; numv ] -> (
    let fname =
      match fnv with
      | Fn f -> f
      | v when is_null v -> ""
      | _ -> error "parallel_51: bad function operand"
    in
    let resolve_fn () =
      match find_func t fname with
      | Some f -> f
      | None -> error "parallel_51: unknown function %s" fname
    in
    if th.level > 0 then begin
      (* nested parallelism executes sequentially on the encountering thread *)
      charge th c.Machine.call;
      th.level <- th.level + 1;
      push_frame t th ~kind:Parallel_body_nested (resolve_fn ()) [| argsv |];
      Done Undef
    end
    else if team.exec_spmd then begin
      (* SPMD: every thread runs the region directly; implicit barrier at end *)
      charge th c.Machine.call;
      th.level <- th.level + 1;
      push_frame t th ~kind:Parallel_body_spmd (resolve_fn ()) [| argsv |];
      Done Undef
    end
    else begin
      (* generic mode level 0: publish to the worker state machine *)
      publish_work t team th ~fn:fname ~id:(as_int idv) ~args:argsv
        ~requested:(Int64.to_int (as_int numv));
      th.level <- th.level + 1;
      push_frame t th ~kind:Parallel_body_generic (resolve_fn ()) [| argsv |];
      Done Undef
    end)
  | "__kmpc_worker_wait", [] | "__kmpc_worker_wait_id", [] -> (
    let want_id = String.equal name "__kmpc_worker_wait_id" in
    if team.terminating then
      Done (if want_id then I (-2L) else I 0L)
    else
      match team.work with
      | Some (Either.Left w) when w.wgen > th.last_work_gen && th.tid < w.wactive ->
        th.last_work_gen <- w.wgen;
        charge th c.Machine.worker_resume;
        th.level <- 1;  (* the worker is now inside the parallel region *)
        Done (if want_id then I w.wid else Fn w.wfn)
      | _ ->
        th.status <- Wait_work;
        th.wait_wants_id <- want_id;
        Blocked)
  | "__kmpc_get_parallel_args", [] -> (
    match team.work with
    | Some (Either.Left w) -> Done w.wargs
    | _ -> error "get_parallel_args outside a region")
  | "__kmpc_get_parallel_id", [] -> (
    match team.work with
    | Some (Either.Left w) -> Done (I w.wid)
    | _ -> error "get_parallel_id outside a region")
  | "__kmpc_get_parallel_fn", [] -> (
    match team.work with
    | Some (Either.Left w) -> Done (Fn w.wfn)
    | _ -> error "get_parallel_fn outside a region")
  | "__kmpc_worker_done", [] ->
    charge th c.Machine.worker_done;
    th.level <- 0;
    team.join_pending <- team.join_pending - 1;
    if team.join_pending <= 0 then finish_join t team;
    Done Undef
  | "__kmpc_alloc_shared", [ size ] ->
    Done (alloc_shared_storage t team th (Int64.to_int (as_int size)))
  | "__kmpc_free_shared", [ ptr; size ] ->
    free_shared_storage t team th ptr (Int64.to_int (as_int size));
    Done Undef
  | "__kmpc_data_sharing_push_stack", [ size; _use_shared ] ->
    Done (legacy_push t team th (Int64.to_int (as_int size)))
  | "__kmpc_data_sharing_pop_stack", [ ptr ] ->
    (match ptr with
    | P { sp = Sshared uid; addr } when uid = team.team_uid ->
      charge th c.Machine.pop_stack;
      if addr < team.shared_sp then team.shared_sp <- addr
    | P ({ sp = Sglobal; _ } as p) ->
      charge th c.Machine.pop_stack;
      (* we do not know the size; free a conservative 8 bytes *)
      device_heap_free t th p.addr 8
    | _ -> ());
    Done Undef
  | "__kmpc_is_spmd_exec_mode", [] ->
    charge th c.Machine.runtime_query;
    Done (I (if team.exec_spmd then 1L else 0L))
  | "__kmpc_parallel_level", [] ->
    charge th c.Machine.runtime_query;
    Done (of_int64 (Int64.of_int (if team.exec_spmd then max 1 th.level else th.level)))
  | "__gpu_thread_id", [] ->
    charge th c.Machine.alu;
    Done (of_int64 (Int64.of_int th.tid))
  | "__gpu_num_threads", [] ->
    charge th c.Machine.alu;
    let n =
      if team.exec_spmd then Array.length team.threads
      else
        match team.work with
        | Some (Either.Left w) when th.level > 0 -> w.wactive
        | _ -> Array.length team.threads
    in
    Done (of_int64 (Int64.of_int n))
  | "__gpu_team_id", [] ->
    charge th c.Machine.alu;
    Done (of_int64 (Int64.of_int team.team_idx))
  | "__gpu_num_teams", [] ->
    charge th c.Machine.alu;
    Done (of_int64 (Int64.of_int team.launch_teams))
  | "__kmpc_data_sharing_mode_check", [] ->
    charge th c.Machine.runtime_query_opaque;
    Done (I (if team.exec_spmd then 1L else 0L))
  | "omp_get_thread_num", [] ->
    charge th c.Machine.runtime_query_opaque;
    Done (of_int64 (Int64.of_int (if team.exec_spmd || th.level > 0 then th.tid else 0)))
  | "omp_get_num_threads", [] ->
    charge th c.Machine.runtime_query_opaque;
    let n =
      if team.exec_spmd then Array.length team.threads
      else
        match team.work with
        | Some (Either.Left w) when th.level > 0 -> w.wactive
        | _ -> Array.length team.threads
    in
    Done (of_int64 (Int64.of_int n))
  | "omp_get_team_num", [] ->
    charge th c.Machine.runtime_query_opaque;
    Done (of_int64 (Int64.of_int team.team_idx))
  | "omp_get_num_teams", [] ->
    charge th c.Machine.runtime_query_opaque;
    Done (of_int64 (Int64.of_int team.launch_teams))
  | "__kmpc_get_warp_size", [] ->
    charge th c.Machine.runtime_query;
    Done (of_int64 (Int64.of_int t.machine.Machine.warp_size))
  | "__kmpc_get_hardware_num_threads", [] ->
    charge th c.Machine.runtime_query;
    Done (of_int64 (Int64.of_int (Array.length team.threads)))
  | "__kmpc_barrier", [] ->
    ignore (barrier_enter t team th);
    Done Undef
  | "__devrt_trace", [ v ] ->
    charge th c.Machine.trace;
    trace_value t (I (as_int v));
    Done Undef
  | "__devrt_trace_f64", [ v ] ->
    charge th c.Machine.trace;
    trace_value t (F (as_float v));
    Done Undef
  | _, _ -> (
    match name with
    | "__math_pow" -> (
      charge th c.Machine.math_pow;
      match args with
      | [ x; y ] -> Done (F (Float.pow (as_float x) (as_float y)))
      | _ -> error "pow arity")
    | "__math_fmin" -> (
      charge th c.Machine.alu;
      match args with
      | [ x; y ] -> Done (F (Float.min (as_float x) (as_float y)))
      | _ -> error "fmin arity")
    | "__math_fmax" -> (
      charge th c.Machine.alu;
      match args with
      | [ x; y ] -> Done (F (Float.max (as_float x) (as_float y)))
      | _ -> error "fmax arity")
    | "__math_sqrtf" -> (
      charge th c.Machine.math_sqrt;
      match args with
      | [ x ] -> Done (F (to_f32 (sqrt (as_float x))))
      | _ -> error "sqrtf arity")
    | "__math_sqrt" ->
      charge th c.Machine.math_sqrt;
      (match args with [ x ] -> Done (F (math1 name (as_float x))) | _ -> error "arity")
    | "__math_sin" | "__math_cos" | "__math_exp" | "__math_log" ->
      charge th c.Machine.math_trig;
      (match args with [ x ] -> Done (F (math1 name (as_float x))) | _ -> error "arity")
    | "__math_fabs" ->
      charge th c.Machine.alu;
      (match args with [ x ] -> Done (F (math1 name (as_float x))) | _ -> error "arity")
    | _ -> error "unimplemented runtime function %s" name)

(* Host-side subset of the runtime: math, tracing, and trivial queries.
   Synchronization primitives are meaningless on the single host thread. *)
let host_runtime_call t th name (args : Rvalue.t list) : Rvalue.t =
  ignore th;
  match (name, args) with
  | "__devrt_trace", [ v ] ->
    trace_value t (I (as_int v));
    Undef
  | "__devrt_trace_f64", [ v ] ->
    trace_value t (F (as_float v));
    Undef
  | "__math_pow", [ x; y ] -> F (Float.pow (as_float x) (as_float y))
  | "__math_fmin", [ x; y ] -> F (Float.min (as_float x) (as_float y))
  | "__math_fmax", [ x; y ] -> F (Float.max (as_float x) (as_float y))
  | "__math_sqrtf", [ x ] -> F (to_f32 (sqrt (as_float x)))
  | ("__math_sqrt" | "__math_sin" | "__math_cos" | "__math_exp" | "__math_log"
    | "__math_fabs"), [ x ] ->
    F (math1 name (as_float x))
  | "omp_get_thread_num", [] | "__gpu_thread_id", [] | "__gpu_team_id", []
  | "omp_get_team_num", [] ->
    I 0L
  | "omp_get_num_threads", [] | "__gpu_num_threads", [] | "__gpu_num_teams", []
  | "omp_get_num_teams", [] | "__kmpc_parallel_level", [] ->
    I 1L
  | "__kmpc_is_spmd_exec_mode", [] | "__kmpc_data_sharing_mode_check", [] -> I 0L
  | "__kmpc_barrier", [] -> Undef
  | "__kmpc_alloc_shared", [ size ] ->
    let p, _ = Mem.heap_alloc t.mem (Int64.to_int (as_int size)) in
    P p
  | "__kmpc_free_shared", [ ptr; size ] ->
    (match ptr with
    | P { sp = Sglobal; addr } -> Mem.heap_free_block t.mem addr (Int64.to_int (as_int size))
    | _ -> ());
    Undef
  | _ -> error "runtime call %s is not available on the host" name

(* mutable hook filled in below to break the recursion with kernel launch *)
let launch_hook :
    (t -> Func.t -> Rvalue.t list -> unit) ref =
  ref (fun _ _ _ -> error "launch hook not installed")

(* ------------------------------------------------------------------ *)
(* Instruction stepping                                                *)
(* ------------------------------------------------------------------ *)

(* [Mem.load_bytes] and [Mem.store_bytes], with the two common cases — the
   global arena, and the thread's own local arena while it is the one in
   Mem's cache — answered here without a call. *)
let[@inline] load_arena t th code =
  let m = t.mem in
  if code = 0 then m.Mem.global
  else if code = (th.gid lsl 2) lor 2 && m.Mem.local_key = th.gid then m.Mem.local_hit.Mem.ab
  else Mem.load_bytes m ~current:th.gid code

let[@inline] store_arena t th code addr size =
  let m = t.mem in
  if code = (th.gid lsl 2) lor 2 && m.Mem.local_key = th.gid then begin
    let a = m.Mem.local_hit in
    if addr + size > a.Mem.ahigh then a.Mem.ahigh <- addr + size;
    a.Mem.ab
  end
  else Mem.store_bytes m ~current:th.gid code addr size

let[@inline] check_bounds b addr size what =
  if addr < 0 || addr + size > Bytes.length b then Mem.check_bounds b addr size what

(* Load a [ty] of [size] bytes at (space [code], [addr]) into slot [s]. *)
let load_at t th s code addr (ty : Types.t) size =
  let b = load_arena t th code in
  check_bounds b addr size "load";
  match ty with
  | Types.I1 | Types.I8 ->
    set_int th s (truncate_to ty (Int64.of_int (Char.code (Bytes.unsafe_get b addr))))
  | Types.I32 -> set_int th s (Int64.of_int32 (Bytes.get_int32_le b addr))
  | Types.I64 -> set_int th s (Bytes.get_int64_le b addr)
  | Types.F32 -> set_flt th s (Int32.float_of_bits (Bytes.get_int32_le b addr))
  | Types.F64 -> set_flt th s (Int64.float_of_bits (Bytes.get_int64_le b addr))
  | Types.Ptr _ ->
    (* Mem.decode_ptr, straight to a space code *)
    let v = Bytes.get_int64_le b addr in
    let tag = Int64.to_int (Int64.shift_right_logical v 62) in
    let owner = Int64.to_int (Int64.logand (Int64.shift_right_logical v 40) 0x3FFFFFL) in
    let a = Int64.to_int (Int64.logand v 0xFFFFFFFFFFL) in
    let code =
      match tag with
      | 0 -> 0
      | 1 -> (owner lsl 2) lor 1
      | 2 -> ((owner - 1) lsl 2) lor 2
      | _ -> error "corrupt pointer bits %Lx" v
    in
    set_ptr th s code a
  | Types.Void | Types.Arr _ | Types.Fn _ -> error "load of type %s" (Types.to_string ty)

(* Store operand [v] as a [ty] of [size] bytes at (space [code], [addr]);
   values that do not fit the type take [Mem.write]'s conversions and
   errors. *)
let store_at t th fr code addr (ty : Types.t) size v =
  match ty with
  | (Types.I1 | Types.I8 | Types.I32 | Types.I64) when is_int th fr v -> (
    let x = int_of th fr v in
    let b = store_arena t th code addr size in
    check_bounds b addr size "store";
    match ty with
    | Types.I32 -> Bytes.set_int32_le b addr (Int64.to_int32 x)
    | Types.I64 -> Bytes.set_int64_le b addr x
    | _ -> Bytes.unsafe_set b addr (Char.unsafe_chr (Int64.to_int (Int64.logand x 0xFFL))))
  | (Types.F32 | Types.F64) when is_flt th fr v ->
    let f = flt_of th fr v in
    let b = store_arena t th code addr size in
    check_bounds b addr size "store";
    if size = 4 then Bytes.set_int32_le b addr (Int32.bits_of_float f)
    else Bytes.set_int64_le b addr (Int64.bits_of_float f)
  | Types.Ptr _ when is_ptr th fr v ->
    let bits = encode_code (ptr_code t th fr v) (ptr_addr th fr v) in
    let b = store_arena t th code addr size in
    check_bounds b addr size "store";
    Bytes.set_int64_le b addr bits
  | _ ->
    Mem.write t.mem ~current:th.gid
      { sp = Mem.space_of_code code; addr }
      ty (ev t th fr v)

let load_via t th fr dst ty size code addr =
  charge th (access_cost t code addr);
  count_load t code;
  load_at t th (fr.base + dst) code addr ty size

let store_via t th fr ty size v code addr =
  charge th (access_cost t code addr);
  count_store t code;
  store_at t th fr code addr ty size v

(* A direct call to module function [f] (a device-side call, or the host's
   launch of a kernel). *)
let call_defined t (team_opt : team option) th ~ret (f : Func.t) args =
  if Func.is_kernel f && Option.is_none team_opt then !launch_hook t f args
  else if not (Func.is_declaration f) then begin
    charge th (costs t).Machine.call;
    push_frame t th ~ret_reg:ret f (Array.of_list args)
  end
  else if Func.is_kernel f then error "kernel @%s launched from device code" f.Func.name
  else error "call to external function @%s" f.Func.name

let call_runtime t (team_opt : team option) th ~ret name args =
  match team_opt with
  | Some team -> (
    match device_runtime_call t team th name args with
    | Done rv -> if ret >= 0 then set_value th ((List.hd th.stack).base + ret) rv
    | Blocked -> th.blocked_reg <- ret)
  | None ->
    let rv = host_runtime_call t th name args in
    if ret >= 0 then set_value th ((List.hd th.stack).base + ret) rv

(* A call by name, as an indirect call resolves it. *)
let call_named t team_opt th ~ret name args =
  match Devrt.Registry.lookup name with
  | Some _ -> call_runtime t team_opt th ~ret name args
  | None -> (
    match find_func t name with
    | Some f -> call_defined t team_opt th ~ret f args
    | None -> error "call to unknown function @%s" name)

(* Move the argument operands of [caller] into the parameter slots of the
   frame just pushed, left to right. *)
let rec move_args t th caller callee i = function
  | [] -> ()
  | op :: rest ->
    move t th caller op (callee.base + callee.plan.bound + i);
    move_args t th caller callee (i + 1) rest

(* left to right *)
let rec eval_args t th fr = function
  | [] -> []
  | op :: rest ->
    let v = ev t th fr op in
    v :: eval_args t th fr rest

(* Execute [i] of frame [fr]; [fr.pc] is already past it.  Returns [false]
   when the frame or the thread's status may have changed (a call), so the
   caller must look at the thread's stack again. *)
let exec_instr t (team_opt : team option) th fr (i : instr) =
  let st = t.stats in
  st.instructions <- st.instructions + 1;
  t.fuel <- t.fuel - 1;
  if t.fuel <= 0 then
    sim_error
      (Fault.Ompgpu_error.Timeout { seconds = 0. })
      "simulation fuel exhausted (infinite loop?)";
  if t.armed && Fault.Injector.fire t.injector Fault.Injector.Sim_trap then
    sim_error Fault.Ompgpu_error.Sim_trap
      "injected trap in @%s (thread %d)" fr.plan.func.Func.name th.gid;
  let c = costs t in
  match i with
  | Ibin { op; ty; cost; dst; a; b } ->
    charge th cost;
    if is_int th fr b && is_int th fr a then
      set_int th (fr.base + dst) (int_bin op ty (int_of th fr a) (int_of th fr b))
    else set_value th (fr.base + dst) (exec_bin op ty (ev t th fr a) (ev t th fr b));
    true
  | Fbin { op; ty; f32; cost; dst; a; b } ->
    charge th cost;
    if is_flt th fr b && is_flt th fr a then
      set_flt th (fr.base + dst) (float_bin op ~f32 (flt_of th fr a) (flt_of th fr b))
    else set_value th (fr.base + dst) (exec_bin op ty (ev t th fr a) (ev t th fr b));
    true
  | Load { dst; ty; size; ptr } ->
    if is_ptr th fr ptr then
      load_via t th fr dst ty size (ptr_code t th fr ptr) (ptr_addr th fr ptr)
    else begin
      let p = as_ptr (ev t th fr ptr) in
      load_via t th fr dst ty size (Mem.code_of_space p.sp) p.addr
    end;
    true
  | Store { ty; size; v; ptr } ->
    if is_ptr th fr ptr then
      store_via t th fr ty size v (ptr_code t th fr ptr) (ptr_addr th fr ptr)
    else begin
      let p = as_ptr (ev t th fr ptr) in
      store_via t th fr ty size v (Mem.code_of_space p.sp) p.addr
    end;
    true
  | Gep { dst; base; off } ->
    charge th c.Machine.alu;
    if is_ptr th fr base && is_int th fr off then
      set_ptr th (fr.base + dst) (ptr_code t th fr base)
        (ptr_addr th fr base + Int64.to_int (int_of th fr off))
    else begin
      let p = as_ptr (ev t th fr base) in
      let o = Int64.to_int (as_int (ev t th fr off)) in
      set_ptr th (fr.base + dst) (Mem.code_of_space p.sp) (p.addr + o)
    end;
    true
  | Icmp { cc; ty; ptr; dst; a; b } ->
    charge th c.Machine.alu;
    (if (not ptr) && is_int th fr b && is_int th fr a then
       set_int th (fr.base + dst) (if int_cmp cc (int_of th fr a) (int_of th fr b) then 1L else 0L)
     else if ptr && is_ptr th fr b && is_ptr th fr a then
       let x = encode_code (ptr_code t th fr a) (ptr_addr th fr a) in
       let y = encode_code (ptr_code t th fr b) (ptr_addr th fr b) in
       set_int th (fr.base + dst) (if int_cmp cc x y then 1L else 0L)
     else set_value th (fr.base + dst) (exec_icmp cc ty (ev t th fr a) (ev t th fr b)));
    true
  | Fcmp { cc; dst; a; b } ->
    charge th c.Machine.alu;
    if is_flt th fr b && is_flt th fr a then
      set_int th (fr.base + dst)
        (if float_cmp cc (flt_of th fr a) (flt_of th fr b) then 1L else 0L)
    else set_value th (fr.base + dst) (exec_fcmp cc (ev t th fr a) (ev t th fr b));
    true
  | Cast { op; ty; dst; v } ->
    charge th c.Machine.cast;
    let s = fr.base + dst in
    (match op with
    | (Instr.Zext | Instr.Sext | Instr.Trunc) when is_int th fr v ->
      set_int th s (truncate_to ty (int_of th fr v))
    | Instr.Sitofp when is_int th fr v ->
      let f = Int64.to_float (int_of th fr v) in
      set_flt th s (if Types.equal ty Types.F32 then to_f32 f else f)
    | Instr.Fptosi when is_flt th fr v ->
      set_int th s (truncate_to ty (Int64.of_float (flt_of th fr v)))
    | Instr.Fpext when is_flt th fr v -> set_flt th s (flt_of th fr v)
    | Instr.Fptrunc when is_flt th fr v -> set_flt th s (to_f32 (flt_of th fr v))
    | Instr.Spacecast -> move t th fr v s
    | _ -> set_value th s (exec_cast op ty (ev t th fr v)));
    true
  | Select { dst; c = cv; a; b } ->
    charge th c.Machine.alu;
    let cond = if is_int th fr cv then int_of th fr cv else as_int (ev t th fr cv) in
    move t th fr (if cond <> 0L then a else b) (fr.base + dst);
    true
  | Alloca { dst; size } ->
    charge th c.Machine.alu;
    let addr = th.local_sp in
    if addr + size > t.machine.Machine.local_bytes_per_thread then
      error "thread %d local stack overflow" th.gid;
    th.local_sp <- th.local_sp + size;
    set_ptr th (fr.base + dst) ((th.gid lsl 2) lor 2) addr;
    true
  | Atomic { op; ty; dst; ptr; v } ->
    let p = as_ptr (ev t th fr ptr) in
    charge th
      (match p.sp with
      | Sglobal -> c.Machine.atomic_global
      | Sshared _ -> c.Machine.atomic_shared
      | Slocal _ -> c.Machine.local_access);
    count_atomic t p;
    let old = Mem.read t.mem ~current:th.gid p ty in
    let next =
      match op with
      | Instr.A_add -> exec_bin Instr.Add ty old (ev t th fr v)
      | Instr.A_fadd -> exec_bin Instr.Fadd ty old (ev t th fr v)
      | Instr.A_min ->
        if Types.is_float ty then F (Float.min (as_float old) (as_float (ev t th fr v)))
        else I (min (as_int old) (as_int (ev t th fr v)))
      | Instr.A_max ->
        if Types.is_float ty then F (Float.max (as_float old) (as_float (ev t th fr v)))
        else I (max (as_int old) (as_int (ev t th fr v)))
      | Instr.A_exchange -> ev t th fr v
      | Instr.A_cas -> ev t th fr v
    in
    Mem.write t.mem ~current:th.gid p ty next;
    set_value th (fr.base + dst) old;
    true
  | Call { ret; callee = Defined f; args; exact = true }
    when (not (Func.is_declaration f)) && not (Func.is_kernel f && Option.is_none team_opt) ->
    (* a device-side call of a defined function: the arguments go from our
       slots to the callee's without being boxed *)
    charge th c.Machine.call;
    push_frame t th ~ret_reg:ret f [||];
    move_args t th fr (List.hd th.stack) 0 args;
    false
  | Call { ret; callee; args; exact = _ } ->
    let args = eval_args t th fr args in
    (match callee with
    | Runtime name -> call_runtime t team_opt th ~ret name args
    | Defined f -> call_defined t team_opt th ~ret f args
    | Unknown name -> error "call to unknown function @%s" name
    | Through fv -> (
      charge th c.Machine.indirect_call;
      st.indirect_calls <- st.indirect_calls + 1;
      match ev t th fr fv with
      | Fn name -> call_named t team_opt th ~ret name args
      | v -> error "indirect call through non-function value %s" (Fmt.str "%a" pp v)));
    false

let goto fr k =
  if k < 0 then
    Support.Util.failf "Func.find_block: no block %s in %s"
      fr.plan.missing.(-1 - k) fr.plan.func.Func.name
  else begin
    fr.blk <- Array.unsafe_get fr.plan.blocks k;
    fr.pc <- 0
  end

(* Execute the terminator of [fr]'s block.  Returns [true] when execution
   continues in [fr]. *)
let exec_term t th fr =
  let c = costs t in
  match fr.blk.term with
  | Br k ->
    charge th c.Machine.alu;
    goto fr k;
    true
  | Cbr (v, k1, k2) ->
    charge th c.Machine.alu;
    let cond = if is_int th fr v then int_of th fr v else as_int (ev t th fr v) in
    let target = if cond <> 0L then k1 else k2 in
    note_branch t th fr ~target;
    goto fr target;
    true
  | Switch (v, cases, default) ->
    charge th c.Machine.alu;
    let x = if is_int th fr v then int_of th fr v else as_int (ev t th fr v) in
    let rec pick = function
      | [] -> default
      | (y, k) :: rest -> if Int64.equal x y then k else pick rest
    in
    let target = pick cases in
    note_branch t th fr ~target;
    goto fr target;
    true
  | Ret v ->
    Option.iter (check_readable th fr) v;
    if not (pop_frame t t.cur_team th v) then th.status <- Finished;
    false
  | Unreachable -> error "executed unreachable in @%s" fr.plan.func.Func.name

(* Run [th] until it blocks or finishes. *)
let run_thread t (team_opt : team option) th =
  (* deliver the result of a call the thread was parked in *)
  if th.blocked_reg >= 0 && th.status = Runnable then begin
    set_value th ((List.hd th.stack).base + th.blocked_reg) th.wake_value;
    th.blocked_reg <- -1
  end;
  while th.status = Runnable do
    match th.stack with
    | [] -> th.status <- Finished
    | fr :: _ ->
      (* stay in this frame until a call or a return leaves it *)
      let continue_ = ref true in
      while !continue_ do
        let pc = fr.pc in
        let code = fr.blk.code in
        if pc < Array.length code then begin
          fr.pc <- pc + 1;
          continue_ := exec_instr t team_opt th fr (Array.unsafe_get code pc)
        end
        else continue_ := exec_term t th fr
      done
  done

(* ------------------------------------------------------------------ *)
(* Team simulation                                                     *)
(* ------------------------------------------------------------------ *)

(* Diagnose a stuck team: no thread runnable, yet not all finished.  The
   prime suspect is barrier divergence — some threads parked in a barrier
   whose remaining arrivals can never come because their teammates finished
   or parked elsewhere.  Report the offending barrier site(s) with arrival
   accounting so the user can find the divergent branch. *)
let deadlock_diagnosis team =
  let count p = Array.fold_left (fun n th -> if p th then n + 1 else n) 0 team.threads in
  let in_barrier = count (fun th -> th.status = In_barrier) in
  if in_barrier > 0 then begin
    let sites = Hashtbl.create 4 in
    Array.iter
      (fun th ->
        if th.status = In_barrier then begin
          let site = if th.barrier_site = "" then "<unknown>" else th.barrier_site in
          let n = match Hashtbl.find_opt sites site with Some n -> n | None -> 0 in
          Hashtbl.replace sites site (n + 1)
        end)
      team.threads;
    let site_list =
      List.sort compare (Hashtbl.fold (fun site n acc -> (site, n) :: acc) sites [])
    in
    let barrier = String.concat ", " (List.map fst site_list) in
    let detail =
      String.concat "; "
        (List.map (fun (site, n) -> Printf.sprintf "%d at %s" n site) site_list)
    in
    sim_error
      (Fault.Ompgpu_error.Deadlock { barrier })
      "barrier divergence in team %d: %s waiting for %d arrival(s), but %d \
       teammate(s) finished and %d parked elsewhere — a barrier on a \
       divergent path is never released"
      team.team_idx detail (barrier_expected team)
      (count (fun th -> th.status = Finished))
      (count (fun th -> th.status = Wait_work || th.status = Wait_join))
  end
  else
    sim_error
      (Fault.Ompgpu_error.Deadlock { barrier = "<worker-state-machine>" })
      "team %d: no runnable thread (%d waiting for work, %d waiting to join, \
       %d finished) — the worker state machine cannot make progress"
      team.team_idx
      (count (fun th -> th.status = Wait_work))
      (count (fun th -> th.status = Wait_join))
      (count (fun th -> th.status = Finished))

let run_team t team =
  let prev = t.cur_team in
  t.cur_team <- Some team;
  let threads = team.threads in
  let guard = ref 0 in
  let running = ref true in
  while !running do
    (* pick the runnable thread with the smallest clock (the first on ties);
       stop once every thread has finished *)
    let best = ref (-1) and all_done = ref true in
    for k = 0 to Array.length threads - 1 do
      let th = threads.(k) in
      if th.status <> Finished then all_done := false;
      if th.status = Runnable && (!best < 0 || threads.(!best).clock > th.clock) then best := k
    done;
    if !all_done then running := false
    else begin
      incr guard;
      if !guard > 100_000_000 then
        sim_error
          (Fault.Ompgpu_error.Deadlock { barrier = "<scheduler>" })
          "team %d scheduling did not converge after %d steps" team.team_idx !guard;
      if !best >= 0 then run_thread t (Some team) threads.(!best)
      else begin
        (* nobody runnable: every non-finished thread is parked *)
        let parked_workers = Array.exists (fun th -> th.status = Wait_work) threads in
        if parked_workers && team.terminating then
          Array.iter (fun th -> if th.status = Wait_work then th.status <- Finished) threads
        else deadlock_diagnosis team
      end
    end
  done;
  t.cur_team <- prev

(* ------------------------------------------------------------------ *)
(* Kernel launch                                                       *)
(* ------------------------------------------------------------------ *)

(* Latency hiding degrades as register pressure reduces the number of
   resident warps per SM: time scales with (max_warps / active_warps)^0.75,
   a standard throughput approximation.  This is what turns the legacy
   builds' register bloat (Fig. 10) into their slowdown (Fig. 11). *)
let occupancy_factor machine regs =
  let regfile = machine.Machine.registers_per_sm in
  let max_warps = float_of_int machine.Machine.max_warps_per_sm in
  let active =
    Float.max 1.0
      (Float.min max_warps (float_of_int regfile /. (float_of_int (max 16 regs) *. 32.0)))
  in
  Float.pow (max_warps /. active) 0.75

let launch_kernel t (kernel : Func.t) (args : Rvalue.t list) =
  let info =
    match kernel.Func.kernel with
    | Some k -> k
    | None -> error "@%s is not a kernel" kernel.Func.name
  in
  let nteams =
    match info.Func.num_teams with Some n -> n | None -> t.machine.Machine.default_teams
  in
  let nthreads =
    min t.machine.Machine.max_threads_per_team
      (match info.Func.num_threads with
      | Some n -> n
      | None -> t.machine.Machine.default_threads)
  in
  let stats =
    fresh_stats ~kernel_name:kernel.Func.name
      ~registers:(Regalloc.estimate t.m kernel)
      ~teams:nteams ~threads_per_team:nthreads
  in
  t.kernel_stats <- stats :: t.kernel_stats;
  t.stats <- stats;
  (* track the heap high-water mark of this launch alone *)
  t.mem.Mem.heap_high_water <- t.mem.Mem.heap_in_use;
  let is_spmd = info.Func.exec_mode = Func.Spmd in
  let is_cuda = Func.has_attr kernel Func.Cuda_kernel in
  let max_team_shared = ref 0 in
  for team_idx = 0 to nteams - 1 do
    let team_uid = Support.Util.Id_gen.fresh t.team_uid_gen in
    let threads =
      Array.init nthreads (fun tid ->
          make_thread ~gid:((team_uid * t.machine.Machine.max_threads_per_team) + tid) ~tid)
    in
    let team =
      {
        team_idx;
        team_uid;
        threads;
        shared_sp = t.mem.Mem.static_shared_size;
        shared_high = t.mem.Mem.static_shared_size;
        work = None;
        work_gen = 0;
        join_pending = 0;
        terminating = false;
        barrier_waiting = [];
        exec_spmd = is_spmd;
        is_cuda;
        uncoalesced = [];
        branch_first = Hashtbl.create 64;
        launch_teams = nteams;
        launch_threads = nthreads;
      }
    in
    Array.iter (fun th -> push_frame t th kernel (Array.of_list args)) threads;
    run_team t team;
    let team_time = Array.fold_left (fun acc th -> max acc th.clock) 0 threads in
    stats.team_cycles_total <- stats.team_cycles_total + team_time;
    if team.shared_high > !max_team_shared then max_team_shared := team.shared_high;
    (* release per-team memory arenas (recycled via the scratch if any) *)
    Mem.release_shared t.mem team_uid;
    Array.iter (fun th -> Mem.release_local t.mem th.gid) threads
  done;
  stats.shared_bytes <- !max_team_shared;
  (* keep the larger of the concurrency-scaled footprint (recorded at the
     allocation sites) and the arena's own high-water mark *)
  stats.heap_high_water <- max stats.heap_high_water t.mem.Mem.heap_high_water;
  let concurrent = max 1 (min nteams t.machine.Machine.num_sms) in
  stats.cycles <-
    int_of_float
      (float_of_int stats.team_cycles_total /. float_of_int concurrent
      *. occupancy_factor t.machine stats.registers)

let () = launch_hook := launch_kernel

(* ------------------------------------------------------------------ *)
(* Host execution                                                      *)
(* ------------------------------------------------------------------ *)

(* The host runs as a single-thread pseudo-team so that stray runtime calls
   (tracing, math) behave; kernels are launched on direct calls to kernel
   functions. *)
let run_host ?(entry = "main") t =
  let f = Irmod.find_func_exn t.m entry in
  let host_thread = make_thread ~gid:(-1) ~tid:0 in
  push_frame t host_thread f [||];
  (* host executes outside any team; kernel launches install their own *)
  let continue_ = ref true in
  while !continue_ do
    run_thread t None host_thread;
    match host_thread.status with
    | Finished -> continue_ := false
    | Runnable -> ()
    | _ ->
      sim_error
        (Fault.Ompgpu_error.Deadlock { barrier = "<host>" })
        "host thread blocked on a device synchronization primitive"
  done;
  ()

(* Total modeled GPU kernel time of all launches (the nvprof metric). *)
let total_kernel_cycles t =
  List.fold_left (fun acc s -> acc + s.cycles) 0 t.kernel_stats

let trace_values t = List.rev t.trace

let max_shared_bytes t =
  List.fold_left (fun acc s -> max acc s.shared_bytes) 0 t.kernel_stats

let max_registers t = List.fold_left (fun acc s -> max acc s.registers) 0 t.kernel_stats
