(* The fault-injection harness, the structured error taxonomy and the
   hang/deadlock detectors (docs/ROBUSTNESS.md).

   The matrix tests exercise every injection site in each supervision mode —
   fail-fast, bounded retry, graceful fallback — through the public driver
   surfaces (Harness.Runner batches, the scheduler pool, the disk cache),
   asserting that faults always settle into structured outcomes and that
   injected runs are replayable from their seed alone. *)

module E = Fault.Ompgpu_error
module Inj = Fault.Injector

let machine = Gpusim.Machine.test_machine
let scale = Proxyapps.App.Tiny
let rsbench () = Proxyapps.Apps.find_exn "rsbench"

let inject site ?(rate = 1.0) ?(seed = 0) config =
  Harness.Config.with_inject [ { Inj.site; rate; seed } ] config

let outcome_kind (m : Harness.Runner.measurement) =
  match m.Harness.Runner.outcome with
  | Harness.Runner.Ok _ -> None
  | Harness.Runner.Err e -> Some e.E.kind

(* ------------------------------------------------------------------ *)
(* Taxonomy                                                            *)
(* ------------------------------------------------------------------ *)

let all_kinds =
  [
    (E.Lex, 10); (E.Parse, 11); (E.Codegen, 12); (E.Verify, 13);
    (E.Pass_crash { pass = "p"; round = 0 }, 14); (E.Sim_trap, 20);
    (E.Oom, 21); (E.Shared_budget_exceeded, 22);
    (E.Deadlock { barrier = "f/b" }, 23); (E.Timeout { seconds = 1. }, 24);
    (E.Cache_corrupt, 30); (E.Internal, 70);
  ]

let test_exit_codes () =
  (* the exit codes are API: CI's fault matrix and scripts match on them *)
  List.iter
    (fun (kind, expect) ->
      let e = E.make kind ~phase:E.Driver "x" in
      Alcotest.(check int) (E.kind_name kind ^ " exit code") expect (E.exit_code e))
    all_kinds

let test_transient () =
  List.iter
    (fun (kind, _) ->
      let e = E.make kind ~phase:E.Driver "x" in
      let expect =
        match kind with E.Timeout _ | E.Oom -> true | _ -> false
      in
      Alcotest.(check bool) (E.kind_name kind ^ " transient") expect (E.is_transient e))
    all_kinds

let test_to_string_stable () =
  let e =
    E.make (E.Deadlock { barrier = "main/then0" }) ~phase:E.Simulating
      ~loc:(Support.Loc.make ~file:"a.c" ~line:3 ~col:7) "stuck"
  in
  Alcotest.(check string) "rendering"
    "simulating error[deadlock] (barrier main/then0) at a.c:3:7: stuck"
    (E.to_string e);
  (* the backtrace never leaks into the stable rendering *)
  let e = { e with E.backtrace = Some "Raised at ..." } in
  Alcotest.(check bool) "no backtrace in to_string" false
    (String.length (E.to_string e) > String.length (E.to_string { e with E.backtrace = None }))

let test_to_json_fields () =
  let e = E.make E.Sim_trap ~phase:E.Simulating ~backtrace:"BT" "boom" in
  let j = E.to_json e in
  let str k = Option.bind (Observe.Json.member k j) Observe.Json.to_str in
  let num k = Option.bind (Observe.Json.member k j) Observe.Json.to_int in
  Alcotest.(check (option string)) "kind" (Some "sim-trap") (str "kind");
  Alcotest.(check (option string)) "phase" (Some "simulating") (str "phase");
  Alcotest.(check (option int)) "exit_code" (Some 20) (num "exit_code");
  Alcotest.(check (option string)) "message" (Some "boom") (str "message");
  Alcotest.(check (option string)) "backtrace" (Some "BT") (str "backtrace")

let test_classify_backtrace () =
  Printexc.record_backtrace true;
  let e =
    try failwith "kaboom"
    with ex -> Harness.Errors.classify ~phase:E.Driver ex (Printexc.get_raw_backtrace ())
  in
  Alcotest.(check string) "kind" "internal" (E.kind_name e.E.kind);
  Alcotest.(check int) "exit code" 70 (E.exit_code e);
  Alcotest.(check bool) "backtrace captured" true (e.E.backtrace <> None)

(* ------------------------------------------------------------------ *)
(* Injector determinism                                                *)
(* ------------------------------------------------------------------ *)

let coins t site n = List.init n (fun _ -> Inj.fire t site)

let test_parse_spec () =
  (match Inj.parse_spec "mem-alloc" with
  | Ok { Inj.site = Inj.Mem_alloc; rate; seed } ->
    Alcotest.(check (float 0.)) "default rate" 1.0 rate;
    Alcotest.(check int) "default seed" 0 seed
  | _ -> Alcotest.fail "mem-alloc should parse");
  (match Inj.parse_spec "pool-stall:0.25:42" with
  | Ok { Inj.site = Inj.Pool_stall; rate; seed } ->
    Alcotest.(check (float 0.)) "rate" 0.25 rate;
    Alcotest.(check int) "seed" 42 seed
  | _ -> Alcotest.fail "full spec should parse");
  List.iter
    (fun bad ->
      match Inj.parse_spec bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error _ -> ())
    [ "bogus-site"; "mem-alloc:xx"; "mem-alloc:0.5:zz"; "" ]

let test_injector_replay () =
  let spec = { Inj.site = Inj.Sim_trap; rate = 0.5; seed = 9 } in
  let a = Inj.create [ spec ] and b = Inj.create [ spec ] in
  Alcotest.(check (list bool)) "same seed, same coins"
    (coins a Inj.Sim_trap 128) (coins b Inj.Sim_trap 128);
  Alcotest.(check bool) "unarmed site never fires" false
    (List.mem true (coins a Inj.Mem_alloc 64))

let test_derive () =
  let base = Inj.create [ { Inj.site = Inj.Sim_trap; rate = 0.5; seed = 9 } ] in
  let seq tag = coins (Inj.derive base tag) Inj.Sim_trap 128 in
  Alcotest.(check (list bool)) "same tag, same coins" (seq "job-a#0") (seq "job-a#0");
  Alcotest.(check bool) "fresh tag, fresh coins" false (seq "job-a#0" = seq "job-a#1");
  Alcotest.(check bool) "derive of none stays none" true
    (Inj.is_none (Inj.derive Inj.none "x"))

let test_fingerprint () =
  Alcotest.(check string) "none" "" (Inj.fingerprint Inj.none);
  let a =
    Inj.create
      [ { Inj.site = Inj.Sim_trap; rate = 1.0; seed = 0 };
        { Inj.site = Inj.Mem_alloc; rate = 0.5; seed = 3 } ]
  and b =
    Inj.create
      [ { Inj.site = Inj.Mem_alloc; rate = 0.5; seed = 3 };
        { Inj.site = Inj.Sim_trap; rate = 1.0; seed = 0 } ]
  in
  Alcotest.(check string) "order-independent" (Inj.fingerprint a) (Inj.fingerprint b);
  Alcotest.(check bool) "non-empty" true (Inj.fingerprint a <> "")

(* ------------------------------------------------------------------ *)
(* The fault matrix: site x supervision mode, through the runner       *)
(* ------------------------------------------------------------------ *)

let test_fail_fast_kinds () =
  (* rate-1.0 injection settles as the site's taxonomy kind, never an
     exception out of the runner *)
  let app = rsbench () in
  let expect site config kind_name =
    let m = Harness.Runner.run ~machine ~scale app (inject site config) in
    match outcome_kind m with
    | Some k -> Alcotest.(check string) (Inj.site_name site) kind_name (E.kind_name k)
    | None -> Alcotest.failf "%s: expected an Err outcome" (Inj.site_name site)
  in
  expect Inj.Mem_alloc Harness.Config.no_opt "oom";
  expect Inj.Sim_trap Harness.Config.no_opt "sim-trap";
  expect Inj.Pass_crash Harness.Config.dev0 "pass-crash"

let test_injection_joins_cache_key () =
  let app = rsbench () in
  let clean = Harness.Config.no_opt in
  let injected = inject Inj.Sim_trap clean in
  Alcotest.(check bool) "injected and clean runs never share a cache entry" false
    (Harness.Runner.cache_key ~machine ~scale app clean
    = Harness.Runner.cache_key ~machine ~scale
        ~inject:(Inj.fingerprint (Inj.create injected.Harness.Config.inject))
        app injected)

let test_retry_recovers () =
  (* rate 0.0002 / seed 8 is a probed (deterministic) schedule: attempt 0
     fires an allocation fault, attempt 1 draws fresh coins and runs clean —
     exactly the transient profile bounded retry exists for *)
  let app = rsbench () in
  let config = inject Inj.Mem_alloc ~rate:0.0002 ~seed:8 Harness.Config.no_opt in
  let once = Harness.Runner.run ~machine ~scale app config in
  Alcotest.(check (option string)) "attempt 0 fails transiently" (Some "oom")
    (Option.map E.kind_name (outcome_kind once));
  let no_retry = Harness.Runner.run_batch ~machine ~scale [ (app, config) ] in
  Alcotest.(check bool) "retries=0 keeps the failure" true
    (outcome_kind (List.hd no_retry) <> None);
  let retried =
    Harness.Runner.run_batch ~machine ~scale ~retries:1 ~backoff_s:0.001
      [ (app, config) ]
  in
  Alcotest.(check (option string)) "one retry recovers" None
    (Option.map E.kind_name (outcome_kind (List.hd retried)))

let test_injected_batch_byte_stable () =
  (* two same-seed injected batches render byte-identically — the replay
     guarantee the CI fault matrix asserts end-to-end on mompc *)
  let app = rsbench () in
  let jobs =
    [ (app, inject Inj.Sim_trap ~rate:0.001 ~seed:7 Harness.Config.no_opt);
      (app, inject Inj.Mem_alloc ~rate:0.0002 ~seed:8 Harness.Config.no_opt) ]
  in
  let json ms =
    String.concat "\n"
      (List.map
         (fun m -> Observe.Json.to_string (Harness.Runner.json_of_measurement m))
         ms)
  in
  (* backtraces are raise-path- and domain-dependent by nature, so the
     cross-schedule guarantee covers the stable rendering (what CI diffs),
     not the json backtrace field *)
  let stable ms =
    String.concat "\n"
      (List.map
         (fun (m : Harness.Runner.measurement) ->
           m.Harness.Runner.app ^ "/" ^ m.Harness.Runner.config.Harness.Config.label
           ^ ": "
           ^
           match m.Harness.Runner.outcome with
           | Harness.Runner.Ok x -> string_of_int x.Harness.Runner.cycles
           | Harness.Runner.Err e -> E.to_string e)
         ms)
  in
  let a = Harness.Runner.run_batch ~machine ~scale jobs in
  let b = Harness.Runner.run_batch ~machine ~scale jobs in
  let c =
    Sched.Pool.with_pool ~domains:2 (fun pool ->
        Harness.Runner.run_batch ~machine ~scale ~pool jobs)
  in
  Alcotest.(check string) "replayed batch identical" (json a) (json b);
  Alcotest.(check string) "parallel injected batch identical" (stable a) (stable c)

(* ------------------------------------------------------------------ *)
(* Shared-memory exhaustion: graceful fallback, not abort              *)
(* ------------------------------------------------------------------ *)

let fallback_src =
  {|
long A[8];
long B[4];
static void bump(long* p) { p[0] = p[0] + 1; }
int main() {
  #pragma omp target teams distribute num_teams(2) thread_limit(4)
  for (int i = 0; i < 8; i++) {
    long v = (long)i;
    bump(&v);
    #pragma omp atomic
    B[0] += v;
    A[i] = v;
  }
  for (int k = 0; k < 8; k++) { trace(A[k]); }
  trace(B[0]);
  return 0;
}
|}

let run_with injector src =
  let m = Helpers.compile src in
  let sim = Gpusim.Interp.create ~injector machine m in
  Gpusim.Interp.run_host sim;
  sim

let total_fallbacks (sim : Gpusim.Interp.t) =
  List.fold_left
    (fun acc (s : Gpusim.Interp.launch_stats) -> acc + s.Gpusim.Interp.shared_fallbacks)
    0 sim.Gpusim.Interp.kernel_stats

let test_shared_budget_fallback () =
  let clean = run_with Inj.none fallback_src in
  let injected =
    run_with (Inj.create [ { Inj.site = Inj.Shared_budget; rate = 1.0; seed = 0 } ])
      fallback_src
  in
  Alcotest.(check bool) "clean run never falls back" true (total_fallbacks clean = 0);
  Alcotest.(check bool) "exhaustion is served from the heap" true
    (total_fallbacks injected > 0);
  (* the fallback path is semantics-preserving: same observable trace *)
  Alcotest.(check (list string)) "trace preserved"
    (List.map (Fmt.str "%a" Gpusim.Rvalue.pp) (Gpusim.Interp.trace_values clean))
    (List.map (Fmt.str "%a" Gpusim.Rvalue.pp) (Gpusim.Interp.trace_values injected))

(* ------------------------------------------------------------------ *)
(* Hang/deadlock detection                                             *)
(* ------------------------------------------------------------------ *)

let divergent_barrier_src =
  {|
long A[8];
int main() {
  #pragma omp target teams distribute num_teams(1) thread_limit(4)
  for (int i = 0; i < 1; i++) {
    #pragma omp parallel
    {
      if (omp_get_thread_num() < 2) {
        #pragma omp barrier
      }
      A[omp_get_thread_num()] = 1;
    }
  }
  return 0;
}
|}

let test_divergent_barrier_flagged () =
  match run_with Inj.none divergent_barrier_src with
  | exception E.Error { E.kind = E.Deadlock { barrier }; message; _ } ->
    (* the diagnosis names the func/block site the stuck threads park at *)
    Alcotest.(check bool) "barrier site named" true (String.contains barrier '/');
    Alcotest.(check bool) "diagnosis mentions divergence" true
      (String.length message > 0)
  | exception e -> Alcotest.failf "expected a Deadlock error, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "divergent barrier must be flagged as a deadlock"

let test_deadlock_distinct_from_fuel () =
  (* fuel exhaustion (a hang, possibly productive) and barrier divergence
     (provably stuck) are different kinds with different exit codes *)
  let m = Helpers.compile "int main() { int x = 1; while (x) { x = 1; } return 0; }" in
  let sim = Gpusim.Interp.create ~fuel:10_000 machine m in
  match Gpusim.Interp.run_host sim with
  | exception E.Error e ->
    Alcotest.(check string) "fuel is a timeout" "timeout" (E.kind_name e.E.kind);
    Alcotest.(check int) "timeout exit code" 24 (E.exit_code e)
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_experiment_kernels_deadlock_free () =
  (* every experiment configuration of every proxy app — including all the
     SPMD-mode builds — must run to completion: no barrier divergence *)
  List.iter
    (fun app ->
      List.iter
        (fun config ->
          let m = Harness.Runner.run ~machine ~scale app config in
          match m.Harness.Runner.outcome with
          | Harness.Runner.Err { E.kind = E.Deadlock _; _ } ->
            Alcotest.failf "%s/%s deadlocked" app.Proxyapps.App.name
              config.Harness.Config.label
          | _ -> ())
        (Harness.Config.fig11_configs app.Proxyapps.App.name))
    Proxyapps.Apps.all

(* ------------------------------------------------------------------ *)
(* Pool supervision: watchdog, bounded retry, containment              *)
(* ------------------------------------------------------------------ *)

let test_pool_watchdog () =
  let results =
    Sched.Pool.with_pool ~domains:2 (fun pool ->
        Sched.Pool.map_list_guarded pool ~watchdog_s:0.05
          (fun ~attempt:_ x ->
            if x = 1 then Unix.sleepf 0.4;
            x * 10)
          [ 0; 1; 2 ])
  in
  (match results with
  | [ Ok 0; Error (E.Error e, _); Ok 20 ] ->
    Alcotest.(check string) "hung job settles as timeout" "timeout" (E.kind_name e.E.kind);
    Alcotest.(check string) "scheduling phase" "scheduling" (E.phase_name e.E.phase)
  | _ -> Alcotest.fail "expected [Ok 0; Error timeout; Ok 20]");
  ()

let test_pool_retry_fresh_attempt () =
  let attempts = Atomic.make 0 in
  let results =
    Sched.Pool.with_pool ~domains:1 (fun pool ->
        Sched.Pool.map_list_guarded pool ~retries:2 ~backoff_s:0.001
          (fun ~attempt x ->
            Atomic.incr attempts;
            if attempt = 0 then
              E.raise_error (E.Timeout { seconds = 0. }) ~phase:E.Scheduling
                "transient glitch"
            else x + attempt)
          [ 100 ])
  in
  (match results with
  | [ Ok v ] -> Alcotest.(check int) "second attempt succeeds" 101 v
  | _ -> Alcotest.fail "retry should recover the job");
  Alcotest.(check int) "exactly two attempts" 2 (Atomic.get attempts)

let test_pool_containment () =
  (* a deterministic failure is not retried and never escapes the batch *)
  let attempts = Atomic.make 0 in
  let results =
    Sched.Pool.with_pool ~domains:2 (fun pool ->
        Sched.Pool.map_list_guarded pool ~retries:3 ~backoff_s:0.001
          (fun ~attempt:_ x ->
            if x = 1 then begin
              Atomic.incr attempts;
              failwith "deterministic bug"
            end;
            x)
          [ 0; 1; 2 ])
  in
  (match results with
  | [ Ok 0; Error (Failure msg, _); Ok 2 ] ->
    Alcotest.(check string) "original exception preserved" "deterministic bug" msg
  | _ -> Alcotest.fail "expected the failure contained in slot 1");
  Alcotest.(check int) "deterministic failures are not retried" 1 (Atomic.get attempts)

(* ------------------------------------------------------------------ *)
(* Disk-cache integrity                                                *)
(* ------------------------------------------------------------------ *)

let with_tmp_dir f =
  let dir = Filename.temp_file "fault-cache" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let test_cache_corruption_quarantined () =
  with_tmp_dir (fun dir ->
      let reported = ref [] in
      let injector = Inj.create [ { Inj.site = Inj.Cache_corrupt; rate = 1.0; seed = 0 } ] in
      let cache =
        Sched.Disk_cache.create ~injector
          ~on_corrupt:(fun ~key ~path:_ -> reported := key :: !reported)
          ~dir ()
      in
      Sched.Disk_cache.store cache ~key:"k1" ~data:"precious payload";
      (* the injected bit-flip makes the entry fail digest verification: the
         cache must treat it as a miss and quarantine it, never serve it *)
      Alcotest.(check (option string)) "corrupt entry is a miss" None
        (Sched.Disk_cache.find cache ~key:"k1");
      Alcotest.(check int) "counted" 1 (Sched.Disk_cache.corrupt cache);
      Alcotest.(check (list string)) "reported" [ "k1" ] !reported;
      Alcotest.(check bool) "entry moved to quarantine/" true
        (Sys.file_exists (Filename.concat (Filename.concat dir "quarantine") "k1"));
      (* after the miss the caller recomputes and stores again; a clean cache
         over the same dir serves it *)
      let clean = Sched.Disk_cache.create ~dir () in
      Sched.Disk_cache.store clean ~key:"k1" ~data:"precious payload";
      Alcotest.(check (option string)) "clean store round-trips"
        (Some "precious payload")
        (Sched.Disk_cache.find clean ~key:"k1"))

let test_cache_external_corruption () =
  (* corruption from outside the process (torn write, disk fault) is caught
     by the same digest check *)
  with_tmp_dir (fun dir ->
      let cache = Sched.Disk_cache.create ~dir () in
      Sched.Disk_cache.store cache ~key:"k2" ~data:"0123456789";
      let path = Filename.concat dir "k2" in
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let bytes = really_input_string ic n in
      close_in ic;
      let mangled = Bytes.of_string bytes in
      Bytes.set mangled (n - 1) (Char.chr (Char.code (Bytes.get mangled (n - 1)) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc mangled;
      close_out oc;
      Alcotest.(check (option string)) "mangled entry is a miss" None
        (Sched.Disk_cache.find cache ~key:"k2");
      Alcotest.(check int) "counted" 1 (Sched.Disk_cache.corrupt cache))

let suite =
  [
    Alcotest.test_case "taxonomy exit codes" `Quick test_exit_codes;
    Alcotest.test_case "taxonomy transience" `Quick test_transient;
    Alcotest.test_case "stable rendering" `Quick test_to_string_stable;
    Alcotest.test_case "error json shape" `Quick test_to_json_fields;
    Alcotest.test_case "classify captures backtrace" `Quick test_classify_backtrace;
    Alcotest.test_case "spec parsing" `Quick test_parse_spec;
    Alcotest.test_case "injector replay" `Quick test_injector_replay;
    Alcotest.test_case "per-tag derivation" `Quick test_derive;
    Alcotest.test_case "fingerprint" `Quick test_fingerprint;
    Alcotest.test_case "fail-fast matrix" `Quick test_fail_fast_kinds;
    Alcotest.test_case "injection joins cache key" `Quick test_injection_joins_cache_key;
    Alcotest.test_case "bounded retry recovers" `Quick test_retry_recovers;
    Alcotest.test_case "injected batch byte-stable" `Quick test_injected_batch_byte_stable;
    Alcotest.test_case "shared-budget heap fallback" `Quick test_shared_budget_fallback;
    Alcotest.test_case "divergent barrier flagged" `Quick test_divergent_barrier_flagged;
    Alcotest.test_case "deadlock distinct from fuel" `Quick test_deadlock_distinct_from_fuel;
    Alcotest.test_case "experiment kernels deadlock-free" `Quick
      test_experiment_kernels_deadlock_free;
    Alcotest.test_case "pool watchdog" `Quick test_pool_watchdog;
    Alcotest.test_case "pool retry draws fresh attempt" `Quick test_pool_retry_fresh_attempt;
    Alcotest.test_case "pool containment" `Quick test_pool_containment;
    Alcotest.test_case "cache corruption quarantined" `Quick test_cache_corruption_quarantined;
    Alcotest.test_case "cache external corruption" `Quick test_cache_external_corruption;
  ]
