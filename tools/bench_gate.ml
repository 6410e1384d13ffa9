(* bench_gate: the CI benchmark-regression gate.

     bench_gate BASELINE.json NEW.json [--threshold PCT] [--min-speedup X]
     bench_gate --perf PERF.json --min-speedup X [--max-sim-alloc-mwords W]

   Compare mode: diffs two BENCH_observe.json files (the committed
   baseline vs a fresh run) and fails — exit 1 — when any per-app
   cost-model counter regresses by more than the threshold (default 20%).
   Only deterministic simulator counters are gated: per-app barriers and
   the store counts summed over kernel launches (global + shared +
   local).  Both files must carry a schema-stamped "sched" section whose
   pool executed every submitted job, and "corpus", "fleet", "tiers" and
   "storage" sections that each recorded byte_identical=true (daemon,
   sharded-router, post-upgrade tiered, and governed-cache answers
   matched the expected in-process compilation bit for bit);
   with [--min-speedup], the
   *committed baseline's* recorded sched.speedup must clear the bar — a
   regression there means someone committed a benchmark file from a run
   where parallel compilation lost to sequential.

   Perf mode (--perf): validates a single perf.json from `make perf`
   (tools/perf_report.ml) — schema, sched section, no lost or phantom
   pool jobs — and gates its freshly measured sched.speedup against
   [--min-speedup].  This is the only place a fresh wall-clock ratio is
   gated, and it is the CI perf job's contract: parallel compilation of
   the standard batch must beat sequential (docs/PERF.md).  With
   [--max-sim-alloc-mwords], the minor-heap words the simulate layer
   allocated over the instrumented batch (perf.json
   layers.simulate.minor_words, in millions) must not exceed the bound:
   a deterministic counter of the simulator's inner loop, so it ratchets
   like the cost-model counters do. *)

let threshold = ref 20.0
let min_speedup : float option ref = ref None
let perf_path : string option ref = ref None
let max_sim_alloc : float option ref = ref None

let die fmt = Fmt.kstr (fun s -> prerr_endline ("bench_gate: " ^ s); exit 2) fmt

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> die "%s" msg
  | s -> (
    match Observe.Json.of_string s with
    | Ok j -> j
    | Error msg -> die "%s: %s" path msg)

(* Unversioned payloads are rejected outright: a schema-less file predates
   the stamp (regenerate it) and a future schema may change counter
   semantics under the same member names. *)
let require_schema path j =
  match Option.bind (Observe.Json.member "schema" j) Observe.Json.to_int with
  | Some v when v = Observe.Json.schema_version -> ()
  | Some v ->
    die "%s: unsupported schema %d (this gate reads schema %d)" path v
      Observe.Json.schema_version
  | None ->
    die
      "%s: unversioned payload (no \"schema\" member); regenerate it with a \
       current bench/main.exe"
      path

(* The corpus throughput section (bench/main.exe, `make conformance`)
   must be present and itself schema-stamped; its compiles/sec numbers
   are wall-clock and never gated, but byte-identity of daemon answers
   with in-process compilation is machine-independent and must hold. *)
let require_corpus path j =
  match Observe.Json.member "corpus" j with
  | None ->
    die
      "%s: no \"corpus\" member (daemon throughput section); regenerate it \
       with a current bench/main.exe or `make conformance`"
      path
  | Some c -> (
    require_schema (path ^ ": corpus") c;
    let to_bool = function Observe.Json.Bool b -> Some b | _ -> None in
    match Option.bind (Observe.Json.member "byte_identical" c) to_bool with
    | Some true -> ()
    | Some false ->
      die "%s: corpus section recorded byte_identical=false (daemon answers \
           diverged from in-process compilation)"
        path
    | None -> die "%s: corpus section without \"byte_identical\"" path)

(* The fleet section (bench/main.exe) must be present and itself
   schema-stamped: requests/sec per shard count and the failover p99 are
   wall-clock and never gated, but a fleet answer diverging from
   in-process compilation — anywhere in the shard-scaling runs or the
   shard-kill failover run — is a routing bug, not a perf number. *)
let require_fleet path j =
  match Observe.Json.member "fleet" j with
  | None ->
    die
      "%s: no \"fleet\" member (sharded-router section); regenerate it with \
       a current bench/main.exe"
      path
  | Some f -> (
    require_schema (path ^ ": fleet") f;
    let to_bool = function Observe.Json.Bool b -> Some b | _ -> None in
    match Option.bind (Observe.Json.member "byte_identical" f) to_bool with
    | Some true -> ()
    | Some false ->
      die "%s: fleet section recorded byte_identical=false (routed answers \
           diverged from in-process compilation)"
        path
    | None -> die "%s: fleet section without \"byte_identical\"" path)

(* The tiers section (bench/main.exe, `make conformance TIERED=1`) must
   be present and itself schema-stamped: the cold p50 per tier and the
   upgrade throughput are wall-clock and never gated, but a tiered
   daemon whose post-drain answers diverge from one-shot full-pipeline
   compilation has broken the tier-upgrade atomicity contract — that is
   a correctness bug, not a perf number. *)
let require_tiers path j =
  match Observe.Json.member "tiers" j with
  | None ->
    die
      "%s: no \"tiers\" member (tiered-compilation section); regenerate it \
       with a current bench/main.exe"
      path
  | Some t -> (
    require_schema (path ^ ": tiers") t;
    let to_bool = function Observe.Json.Bool b -> Some b | _ -> None in
    match Option.bind (Observe.Json.member "byte_identical" t) to_bool with
    | Some true -> ()
    | Some false ->
      die "%s: tiers section recorded byte_identical=false (post-upgrade \
           answers diverged from one-shot full-pipeline compilation)"
        path
    | None -> die "%s: tiers section without \"byte_identical\"" path)

(* The storage section (bench/main.exe) must be present and itself
   schema-stamped: eviction counts, cache footprints and the pressured
   wall time are machine-local and never gated, but a governed cache
   that served different bytes under eviction pressure — or a disk-full
   store that leaked past the breaker — is a correctness bug, not a
   perf number. *)
let require_storage path j =
  match Observe.Json.member "storage" j with
  | None ->
    die
      "%s: no \"storage\" member (storage-governance section); regenerate \
       it with a current bench/main.exe"
      path
  | Some s -> (
    require_schema (path ^ ": storage") s;
    let to_bool = function Observe.Json.Bool b -> Some b | _ -> None in
    match Option.bind (Observe.Json.member "byte_identical" s) to_bool with
    | Some true -> ()
    | Some false ->
      die "%s: storage section recorded byte_identical=false (governed \
           caches diverged from ungoverned compilation, or the disk-full \
           breaker failed to hold)"
        path
    | None -> die "%s: storage section without \"byte_identical\"" path)

(* The scheduler section (bench/main.exe, `make perf`) must be present,
   itself schema-stamped, and internally consistent: a pool that executed
   fewer jobs than were submitted lost futures, one that executed more
   invented them — either way the speedup number is meaningless.  Returns
   the recorded speedup for the optional --min-speedup gate. *)
let require_sched path j =
  match Observe.Json.member "sched" j with
  | None ->
    die
      "%s: no \"sched\" member (scheduler section); regenerate it with a \
       current bench/main.exe or `make perf`"
      path
  | Some s -> (
    require_schema (path ^ ": sched") s;
    let pool =
      match Observe.Json.member "pool" s with
      | Some p -> p
      | None -> die "%s: sched section without \"pool\"" path
    in
    let pool_int k =
      match Option.bind (Observe.Json.member k pool) Observe.Json.to_int with
      | Some n -> n
      | None -> die "%s: sched.pool without counter %S" path k
    in
    let submitted = pool_int "submitted" and executed = pool_int "executed" in
    if submitted <> executed then
      die
        "%s: sched.pool submitted=%d but executed=%d (lost or phantom jobs; \
         the speedup number is meaningless)"
        path submitted executed;
    let to_float = function
      | Observe.Json.Float f -> Some f
      | Observe.Json.Int n -> Some (float_of_int n)
      | _ -> None
    in
    match Option.bind (Observe.Json.member "speedup" s) to_float with
    | Some sp -> sp
    | None -> die "%s: sched section without \"speedup\"" path)

let gate_speedup path speedup =
  match !min_speedup with
  | None -> ()
  | Some bar ->
    if speedup > bar then
      Fmt.pr "bench_gate: %s sched.speedup %.3f > %.3f OK@." path speedup bar
    else begin
      Fmt.pr
        "bench_gate: %s sched.speedup %.3f <= %.3f — parallel compilation \
         does not beat sequential@."
        path speedup bar;
      exit 1
    end

let gate_sim_alloc path j =
  match !max_sim_alloc with
  | None -> ()
  | Some bound -> (
    let words =
      Option.bind (Observe.Json.member "layers" j) (fun l ->
          Option.bind (Observe.Json.member "simulate" l) (fun s ->
              match Observe.Json.member "minor_words" s with
              | Some (Observe.Json.Float f) -> Some f
              | Some (Observe.Json.Int n) -> Some (float_of_int n)
              | _ -> None))
    in
    match words with
    | None -> die "%s: no layers.simulate.minor_words (regenerate with `make perf`)" path
    | Some w ->
      let mw = w /. 1e6 in
      if mw <= bound then
        Fmt.pr "bench_gate: %s simulate allocated %.2fM words <= %.2fM OK@." path mw bound
      else begin
        Fmt.pr "bench_gate: %s simulate allocated %.2fM words > %.2fM — the simulator \
                allocates more than the ratchet allows@."
          path mw bound;
        exit 1
      end)

let measurements j =
  match Option.bind (Observe.Json.member "measurements" j) Observe.Json.to_list with
  | Some ms -> ms
  | None -> die "no \"measurements\" member"

let str_member k j =
  match Option.bind (Observe.Json.member k j) Observe.Json.to_str with
  | Some s -> s
  | None -> die "measurement without %S" k

let int_member k j =
  match Option.bind (Observe.Json.member k j) Observe.Json.to_int with
  | Some n -> n
  | None -> die "measurement without counter %S" k

(* the gated counters for one measurement: name -> value *)
let counters m =
  let kernels =
    Option.value ~default:[]
      (Option.bind (Observe.Json.member "kernels" m) Observe.Json.to_list)
  in
  let sum key = List.fold_left (fun acc k -> acc + int_member key k) 0 kernels in
  [
    ("barriers", int_member "barriers" m);
    ("stores_global", sum "stores_global");
    ("stores_shared", sum "stores_shared");
    ("stores_local", sum "stores_local");
  ]

let () =
  let positional = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t > 0.0 ->
        threshold := t;
        parse rest
      | _ -> die "--threshold expects a positive number")
    | "--min-speedup" :: v :: rest -> (
      match float_of_string_opt v with
      | Some t when t > 0.0 ->
        min_speedup := Some t;
        parse rest
      | _ -> die "--min-speedup expects a positive number")
    | "--max-sim-alloc-mwords" :: v :: rest -> (
      match float_of_string_opt v with
      | Some w when w > 0.0 ->
        max_sim_alloc := Some w;
        parse rest
      | _ -> die "--max-sim-alloc-mwords expects a positive number")
    | "--perf" :: p :: rest ->
      perf_path := Some p;
      parse rest
    | a :: rest ->
      positional := a :: !positional;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !perf_path with
  | Some path ->
    if !positional <> [] then
      die "--perf takes no positional arguments";
    let j = load path in
    require_schema path j;
    let speedup = require_sched path j in
    (if !min_speedup = None then min_speedup := Some 1.0);
    gate_speedup path speedup;
    gate_sim_alloc path j;
    Fmt.pr "bench_gate: %s OK@." path;
    exit 0
  | None -> ());
  if !max_sim_alloc <> None then die "--max-sim-alloc-mwords applies to --perf only";
  let baseline_path, new_path =
    match List.rev !positional with
    | [ b; n ] -> (b, n)
    | _ ->
      prerr_endline
        "usage: bench_gate BASELINE.json NEW.json [--threshold PCT] \
         [--min-speedup X]\n\
        \       bench_gate --perf PERF.json [--min-speedup X] \
         [--max-sim-alloc-mwords W]";
      exit 2
  in
  let base_json = load baseline_path in
  let next_json = load new_path in
  require_schema baseline_path base_json;
  require_schema new_path next_json;
  require_corpus baseline_path base_json;
  require_corpus new_path next_json;
  require_fleet baseline_path base_json;
  require_fleet new_path next_json;
  require_tiers baseline_path base_json;
  require_tiers new_path next_json;
  require_storage baseline_path base_json;
  require_storage new_path next_json;
  let base_speedup = require_sched baseline_path base_json in
  ignore (require_sched new_path next_json);
  gate_speedup baseline_path base_speedup;
  let base = measurements base_json in
  let next = measurements next_json in
  let find_app app ms =
    List.find_opt (fun m -> String.equal (str_member "app" m) app) ms
  in
  let failures = ref 0 in
  Fmt.pr "bench_gate: %s vs %s (threshold %+.0f%%)@." baseline_path new_path
    !threshold;
  Fmt.pr "%-10s %-14s %12s %12s %9s@." "app" "counter" "baseline" "new" "delta";
  List.iter
    (fun bm ->
      let app = str_member "app" bm in
      match find_app app next with
      | None ->
        Fmt.pr "%-10s MISSING from %s@." app new_path;
        incr failures
      | Some nm ->
        List.iter2
          (fun (name, bv) (name', nv) ->
            assert (String.equal name name');
            let delta =
              if bv = 0 then if nv = 0 then 0.0 else infinity
              else 100.0 *. float_of_int (nv - bv) /. float_of_int bv
            in
            let verdict = if delta > !threshold then "FAIL" else "" in
            if delta > !threshold then incr failures;
            if delta <> 0.0 || verdict <> "" then
              Fmt.pr "%-10s %-14s %12d %12d %+8.1f%% %s@." app name bv nv delta
                verdict)
          (counters bm) (counters nm))
    base;
  if !failures > 0 then begin
    Fmt.pr "bench_gate: %d counter regression(s) above %+.0f%%@." !failures
      !threshold;
    exit 1
  end
  else Fmt.pr "bench_gate: OK (no counter regression above %+.0f%%)@." !threshold
