(* Storage governance (ISSUE 10).

   What this suite pins: the in-memory result cache's LRU bounds (entry
   and byte caps, eviction order, re-insert-on-replace so a tier upgrade
   survives mid-flight eviction), the disk cache's startup scrub + byte
   ledger + quota eviction + ENOSPC write breaker (trip, skip, re-probe,
   recover), the hotness table's decay-on-overflow and its persistent
   profile, the journal's mid-life size-cap rotation, and the daemon-level
   composition of all of it: injected disk-full under concurrent traffic
   is never client-visible, and a tiered daemon restarted over the same
   --state-dir boots already knowing its hot keys. *)

module J = Observe.Json
module E = Fault.Ompgpu_error
module A = Ompgpu_api

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let tiny = Proxyapps.App.Tiny
let app_source name = (Proxyapps.Apps.find_exn name).Proxyapps.App.omp_source tiny

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mompst-%d-%d.sock" (Unix.getpid ()) !n)

let temp_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let write_file path contents =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc contents)

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected service error: %s" (E.to_string e)

let with_server ?(domains = 2) ?(capacity = 8) ?cache_dir ?state_dir
    ?(injector = Fault.Injector.none) ?(tiered = false) ?cache_max_entries
    ?cache_max_bytes ?journal_max_bytes f =
  let socket_path = fresh_socket () in
  let server =
    Service.Server.create
      {
        Service.Server.socket_path;
        domains;
        capacity;
        watchdog_s = None;
        cache_dir;
        state_dir;
        injector;
        drain_deadline_s = 5.0;
        tiered;
        cache_max_entries;
        cache_max_bytes;
        journal_max_bytes;
      }
  in
  let thread = Thread.create Service.Server.serve_forever server in
  Fun.protect
    ~finally:(fun () ->
      Service.Server.stop server;
      Thread.join thread)
    (fun () -> f socket_path)

let inject spec =
  match Fault.Injector.parse_spec spec with
  | Ok s -> Fault.Injector.create [ s ]
  | Error m -> Alcotest.fail m

let storage_member stats path conv =
  let rec go doc = function
    | [] -> conv doc
    | k :: rest -> Option.bind (J.member k doc) (fun d -> go d rest)
  in
  Option.bind (J.member "storage" stats) (fun s -> go s path)

let storage_int stats path = storage_member stats path J.to_int

let storage_bool stats path =
  storage_member stats path (function J.Bool b -> Some b | _ -> None)

(* ------------------------------------------------------------------ *)
(* In-memory cache: LRU bounds                                         *)
(* ------------------------------------------------------------------ *)

let get c key = Sched.Cache.find_or_compute c ~key (fun () -> "v:" ^ key)

let test_cache_lru_entry_cap () =
  let c = Sched.Cache.create ~max_entries:3 () in
  ignore (get c "a");
  ignore (get c "b");
  ignore (get c "c");
  (* a request-path read refreshes recency: a is now the hottest *)
  ignore (get c "a");
  ignore (get c "d");
  Alcotest.(check int) "capped at 3 entries" 3 (Sched.Cache.length c);
  Alcotest.(check int) "one eviction" 1 (Sched.Cache.evictions c);
  Alcotest.(check (option string))
    "b — the least recently used — was the one evicted" None
    (Sched.Cache.peek c ~key:"b");
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        (k ^ " retained") (Some ("v:" ^ k))
        (Sched.Cache.peek c ~key:k))
    [ "a"; "c"; "d" ];
  (* peek is recency-neutral: peeking c then inserting must evict c (the
     LRU), not a *)
  ignore (Sched.Cache.peek c ~key:"c");
  ignore (get c "e");
  Alcotest.(check (option string))
    "peek did not refresh c" None
    (Sched.Cache.peek c ~key:"c")

let test_cache_byte_cap_invariant () =
  let cap = 64 in
  let c = Sched.Cache.create ~max_bytes:cap ~size_of:String.length () in
  (* deterministic varied-size insert storm: the byte invariant must hold
     after every single insert *)
  for i = 1 to 100 do
    let key = Printf.sprintf "k%d" i in
    let v = String.make (1 + (i * 7 mod 23)) 'x' in
    let got = Sched.Cache.find_or_compute c ~key (fun () -> v) in
    Alcotest.(check string) ("insert " ^ key ^ " returns its value") v got;
    if Sched.Cache.bytes c > cap then
      Alcotest.failf "byte cap violated after %s: %d > %d" key
        (Sched.Cache.bytes c) cap
  done;
  Alcotest.(check bool) "evictions happened" true (Sched.Cache.evictions c > 0);
  (* a single value over the whole cap is computed and returned but never
     retained *)
  let big = String.make (cap + 1) 'y' in
  let c2 = Sched.Cache.create ~max_bytes:cap ~size_of:String.length () in
  let got = Sched.Cache.find_or_compute c2 ~key:"big" (fun () -> big) in
  Alcotest.(check string) "oversized value still returned" big got;
  Alcotest.(check (option string))
    "oversized value not retained" None
    (Sched.Cache.peek c2 ~key:"big");
  Alcotest.(check int) "cache left empty" 0 (Sched.Cache.length c2)

let test_cache_replace_reinserts_after_eviction () =
  (* the tier-upgrade contract: promoting a key whose fast entry was
     evicted mid-upgrade re-inserts it, so the entry still converges to
     the full-pipeline bytes *)
  let c = Sched.Cache.create ~max_entries:1 () in
  ignore (Sched.Cache.find_or_compute c ~key:"a" (fun () -> "fast-a"));
  ignore (Sched.Cache.find_or_compute c ~key:"b" (fun () -> "fast-b"));
  Alcotest.(check (option string))
    "a evicted by b" None (Sched.Cache.peek c ~key:"a");
  Sched.Cache.replace c ~key:"a" "full-a";
  Alcotest.(check (option string))
    "replace re-inserted the promoted entry" (Some "full-a")
    (Sched.Cache.peek c ~key:"a");
  Alcotest.(check int) "cap still holds" 1 (Sched.Cache.length c)

(* ------------------------------------------------------------------ *)
(* Disk cache: scrub, ledger, quota, breaker                           *)
(* ------------------------------------------------------------------ *)

let test_disk_scrub_quarantines_and_ledgers () =
  let dir = temp_dir "scrub" in
  let c1 = Sched.Disk_cache.create ~dir () in
  Sched.Disk_cache.store c1 ~key:"good1" ~data:"payload one";
  Sched.Disk_cache.store c1 ~key:"good2" ~data:"payload two";
  Sched.Disk_cache.store c1 ~key:"bad" ~data:"payload three";
  (* corrupt one entry on disk behind the cache's back, and drop a
     foreign file (its name is outside the entry charset: not ours) *)
  write_file (Filename.concat dir "bad") "garbage, no header";
  write_file (Filename.concat dir "notes.txt") "not a cache entry";
  let quarantined = ref [] in
  let c2 =
    Sched.Disk_cache.create
      ~on_corrupt:(fun ~key ~path:_ -> quarantined := key :: !quarantined)
      ~dir ()
  in
  Alcotest.(check int) "scrub verified the two good entries" 2
    (Sched.Disk_cache.scrubbed c2);
  Alcotest.(check int) "scrub quarantined the corrupt one" 1
    (Sched.Disk_cache.corrupt c2);
  Alcotest.(check (list string)) "on_corrupt reported it" [ "bad" ] !quarantined;
  Alcotest.(check bool) "evidence preserved under quarantine/" true
    (Sys.file_exists (Filename.concat (Filename.concat dir "quarantine") "bad"));
  Alcotest.(check bool) "foreign file untouched" true
    (Sys.file_exists (Filename.concat dir "notes.txt"));
  (* the ledger starts exact: entry count and byte total match a stat
     walk over the surviving entries *)
  Alcotest.(check int) "ledger entries" 2 (Sched.Disk_cache.entries c2);
  let stat_sum =
    List.fold_left
      (fun acc name ->
        acc + (Unix.stat (Filename.concat dir name)).Unix.st_size)
      0 [ "good1"; "good2" ]
  in
  Alcotest.(check int) "ledger bytes match du over the entries" stat_sum
    (Sched.Disk_cache.bytes c2);
  Alcotest.(check (option string))
    "good entry still served" (Some "payload one")
    (Sched.Disk_cache.find c2 ~key:"good1");
  Alcotest.(check (option string))
    "corrupt entry is a miss" None
    (Sched.Disk_cache.find c2 ~key:"bad")

let test_disk_quota_evicts_oldest () =
  let dir = temp_dir "quota" in
  (* one encoded entry = 47-byte header + payload; 100-byte payloads and
     a 320-byte quota fit two entries, never three *)
  let payload n = String.make 100 (Char.chr (Char.code 'a' + n)) in
  let c = Sched.Disk_cache.create ~max_bytes:320 ~dir () in
  Sched.Disk_cache.store c ~key:"k0" ~data:(payload 0);
  Sched.Disk_cache.store c ~key:"k1" ~data:(payload 1);
  Alcotest.(check int) "two entries fit" 2 (Sched.Disk_cache.entries c);
  Sched.Disk_cache.store c ~key:"k2" ~data:(payload 2);
  Alcotest.(check int) "still two entries" 2 (Sched.Disk_cache.entries c);
  Alcotest.(check int) "one eviction" 1 (Sched.Disk_cache.evictions c);
  Alcotest.(check bool) "byte quota holds" true (Sched.Disk_cache.bytes c <= 320);
  Alcotest.(check (option string))
    "the oldest entry was the one evicted" None
    (Sched.Disk_cache.find c ~key:"k0");
  Alcotest.(check (option string))
    "the newest survives" (Some (payload 2))
    (Sched.Disk_cache.find c ~key:"k2");
  (* a re-created cache over the same directory converges to a smaller
     quota before serving *)
  let c2 = Sched.Disk_cache.create ~max_bytes:150 ~dir () in
  Alcotest.(check int) "shrunken quota converged at create" 1
    (Sched.Disk_cache.entries c2);
  Alcotest.(check bool) "shrunken byte quota holds" true
    (Sched.Disk_cache.bytes c2 <= 150);
  (* entry-count cap, same mechanism *)
  let dir2 = temp_dir "quota-n" in
  let c3 = Sched.Disk_cache.create ~max_entries:2 ~dir:dir2 () in
  List.iter
    (fun k -> Sched.Disk_cache.store c3 ~key:k ~data:"x")
    [ "a"; "b"; "c"; "d" ];
  Alcotest.(check int) "entry cap holds" 2 (Sched.Disk_cache.entries c3);
  Alcotest.(check int) "entry-cap evictions" 2 (Sched.Disk_cache.evictions c3)

let test_disk_full_injected_breaker () =
  let dir = temp_dir "enospc" in
  let c =
    Sched.Disk_cache.create ~injector:(inject "disk-full:1.0")
      ~failure_threshold:2 ~dir ()
  in
  Sched.Disk_cache.store c ~key:"k1" ~data:"x";
  Alcotest.(check bool) "one failure does not trip" false
    (Sched.Disk_cache.writes_disabled c);
  Sched.Disk_cache.store c ~key:"k2" ~data:"x";
  Alcotest.(check int) "both failures counted" 2
    (Sched.Disk_cache.store_failures c);
  Alcotest.(check int) "breaker tripped once" 1 (Sched.Disk_cache.breaker_trips c);
  Alcotest.(check bool) "writes disabled" true (Sched.Disk_cache.writes_disabled c);
  (* while open, stores are skipped outright: no new failures counted *)
  Sched.Disk_cache.store c ~key:"k3" ~data:"x";
  Alcotest.(check int) "skipped store not counted as a failure" 2
    (Sched.Disk_cache.store_failures c);
  Alcotest.(check int) "nothing ever reached the disk" 0
    (Sched.Disk_cache.entries c)

let test_disk_breaker_recovers () =
  (* real (non-injected) failures: the cache directory vanishes out from
     under the store — ENOENT-shaped, same never-raise contract — then
     comes back, and the post-cooldown probe store re-enables writes *)
  let dir = temp_dir "recover" in
  let c =
    Sched.Disk_cache.create ~failure_threshold:2 ~reprobe_after_s:0.05 ~dir ()
  in
  let hidden = dir ^ ".hidden" in
  Sys.rename dir hidden;
  Sched.Disk_cache.store c ~key:"k1" ~data:"x";
  Sched.Disk_cache.store c ~key:"k2" ~data:"x";
  Alcotest.(check int) "failures tripped the breaker" 1
    (Sched.Disk_cache.breaker_trips c);
  Alcotest.(check bool) "breaker open" true (Sched.Disk_cache.writes_disabled c);
  Sys.rename hidden dir;
  Thread.delay 0.06;
  Alcotest.(check bool) "cooldown elapsed: breaker half-open" false
    (Sched.Disk_cache.writes_disabled c);
  Sched.Disk_cache.store c ~key:"k3" ~data:"back";
  Alcotest.(check (option string))
    "probe store landed" (Some "back")
    (Sched.Disk_cache.find c ~key:"k3");
  Alcotest.(check bool) "writes re-enabled" false
    (Sched.Disk_cache.writes_disabled c);
  Alcotest.(check int) "exactly the two real failures counted" 2
    (Sched.Disk_cache.store_failures c)

(* ------------------------------------------------------------------ *)
(* Hotness: decay-on-overflow and the persistent profile               *)
(* ------------------------------------------------------------------ *)

let test_hitcount_decay_on_overflow () =
  let h = Observe.Hitcount.create ~max_keys:4 () in
  for _ = 1 to 8 do
    ignore (Observe.Hitcount.bump h "hot")
  done;
  for i = 1 to 6 do
    ignore (Observe.Hitcount.bump h (Printf.sprintf "oneoff%d" i))
  done;
  Alcotest.(check bool) "bounded at the cap" true
    (Observe.Hitcount.distinct h <= 4);
  Alcotest.(check bool) "decay passes ran" true (Observe.Hitcount.decays h > 0);
  (match Observe.Hitcount.top ~n:1 h with
  | [ (k, _) ] -> Alcotest.(check string) "the hot key survives decay" "hot" k
  | _ -> Alcotest.fail "top returned no keys");
  Alcotest.(check bool) "hot key keeps a multi-bump count" true
    (Observe.Hitcount.count h "hot" > 1)

let test_hitcount_profile_roundtrip () =
  let dir = temp_dir "profile" in
  let path = Filename.concat dir "hotness.json" in
  let h = Observe.Hitcount.create () in
  List.iter
    (fun (k, n) ->
      for _ = 1 to n do
        ignore (Observe.Hitcount.bump h k)
      done)
    [ ("hot", 5); ("warm", 3); ("cold", 1) ];
  Alcotest.(check bool) "save succeeds" true (Observe.Hitcount.save h ~path);
  let h2 = Observe.Hitcount.create () in
  Alcotest.(check int) "restore reports the key count" 3
    (Observe.Hitcount.load_into h2 ~path);
  List.iter
    (fun (k, n) ->
      Alcotest.(check int) ("restored count: " ^ k) n
        (Observe.Hitcount.count h2 k))
    [ ("hot", 5); ("warm", 3); ("cold", 1) ];
  Alcotest.(check (list (pair string int)))
    "hottest-first order survives the round trip"
    (Observe.Hitcount.top h) (Observe.Hitcount.top h2);
  (* merge semantics: loading on top of live counts adds *)
  Alcotest.(check int) "second restore merges" 3
    (Observe.Hitcount.load_into h2 ~path);
  Alcotest.(check int) "counts added" 10 (Observe.Hitcount.count h2 "hot");
  (* a missing, garbage or wrong-version profile restores nothing *)
  let h3 = Observe.Hitcount.create () in
  Alcotest.(check int) "missing profile: cold boot" 0
    (Observe.Hitcount.load_into h3 ~path:(Filename.concat dir "absent.json"));
  write_file path "{not json";
  Alcotest.(check int) "garbage profile: cold boot" 0
    (Observe.Hitcount.load_into h3 ~path);
  write_file path {|{"schema":2,"hv":999,"counts":{"hot":5}}|};
  Alcotest.(check int) "unknown profile version: cold boot" 0
    (Observe.Hitcount.load_into h3 ~path)

(* ------------------------------------------------------------------ *)
(* Journal: mid-life size-cap rotation                                 *)
(* ------------------------------------------------------------------ *)

let test_journal_midlife_rotation () =
  let dir = temp_dir "rotate" in
  let rotations_seen = ref 0 in
  let j, recovery =
    Service.Journal.open_ ~max_bytes:512
      ~on_rotate:(fun () -> incr rotations_seen)
      ~dir ()
  in
  Alcotest.(check int) "fresh directory: nothing replayed" 0
    recovery.Service.Journal.replayed_ok;
  for i = 1 to 40 do
    Service.Journal.event j "tick" [ ("n", J.Int i) ]
  done;
  let rotations = Service.Journal.rotations j in
  Alcotest.(check bool) "the cap forced at least one rotation" true
    (rotations > 0);
  Alcotest.(check int) "on_rotate fired once per rotation" rotations
    !rotations_seen;
  Alcotest.(check bool) "previous journal kept for post-mortem" true
    (Sys.file_exists (Filename.concat dir "journal.prev.ndjson"));
  let live = (Unix.stat (Service.Journal.path j)).Unix.st_size in
  Alcotest.(check bool) "live journal bounded near the cap" true
    (live <= 512 + 256);
  Service.Journal.close j

(* ------------------------------------------------------------------ *)
(* Daemon-level composition                                            *)
(* ------------------------------------------------------------------ *)

let tiers_int stats k =
  Option.bind (J.member "tiers" stats) (fun t ->
      Option.bind (J.member k t) J.to_int)

let rec wait_for_upgrades c ~target deadline =
  let stats = ok_exn (Service.Client.stats c ()) in
  match tiers_int stats "upgrades_done" with
  | Some n when n >= target -> stats
  | _ ->
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "tier upgrade did not land within the deadline"
    else begin
      Thread.delay 0.02;
      wait_for_upgrades c ~target deadline
    end

let check_bytes what (expected : A.compiled) (got : A.compiled) =
  Alcotest.(check int) (what ^ ": exit code") expected.A.exit_code got.A.exit_code;
  Alcotest.(check string) (what ^ ": stdout bytes") expected.A.output got.A.output;
  Alcotest.(check string)
    (what ^ ": stderr bytes") expected.A.diagnostics got.A.diagnostics

(* The satellite acceptance: every store failing as disk-full under
   concurrent traffic costs warm hits only — zero client-visible
   failures, byte-identical answers — and the stats surface the tripped
   breaker. *)
let test_daemon_disk_full_invisible () =
  let cache_dir = temp_dir "dfull" in
  let config = A.Config.default in
  let apps =
    List.filteri
      (fun i _ -> i < 4)
      (List.map (fun (a : Proxyapps.App.t) -> a.Proxyapps.App.name)
         Proxyapps.Apps.all)
  in
  Alcotest.(check int) "four distinct apps" 4 (List.length apps);
  let oneshots =
    List.map
      (fun app ->
        (app, A.compile_buffered ~config ~file:(app ^ ".momp") (app_source app)))
      apps
  in
  with_server ~injector:(inject "disk-full:1.0") ~cache_dir
    ~cache_max_bytes:2048
  @@ fun socket_path ->
  let results = Array.make (List.length apps) None in
  let threads =
    List.mapi
      (fun i app ->
        Thread.create
          (fun () ->
            Service.Client.with_connection ~socket_path @@ fun c ->
            results.(i) <-
              Some
                (Service.Client.compile c ~file:(app ^ ".momp") ~config
                   (app_source app)))
          ())
      apps
  in
  List.iter Thread.join threads;
  List.iteri
    (fun i (app, oneshot) ->
      match results.(i) with
      | None -> Alcotest.failf "%s: no reply" app
      | Some r ->
        check_bytes (app ^ " under injected disk-full") oneshot (ok_exn r))
    oneshots;
  Service.Client.with_connection ~socket_path @@ fun c ->
  let stats = ok_exn (Service.Client.stats c ()) in
  Alcotest.(check bool) "store failures surfaced" true
    (match storage_int stats [ "disk"; "store_failures" ] with
    | Some n -> n > 0
    | None -> false);
  Alcotest.(check (option int)) "breaker tripped once" (Some 1)
    (storage_int stats [ "disk"; "breaker_trips" ]);
  Alcotest.(check (option bool)) "writes disabled at stats time" (Some true)
    (storage_bool stats [ "disk"; "writes_disabled" ]);
  Alcotest.(check (option int)) "nothing reached the disk" (Some 0)
    (storage_int stats [ "disk"; "entries" ]);
  Alcotest.(check (option int)) "the flag echoes into stats" (Some 2048)
    (storage_int stats [ "disk"; "max_bytes" ])

(* A tiered daemon under a one-entry warm cache: both cold fast entries
   cannot coexist, so at least one upgrade promotes a key whose fast
   entry was already evicted — the replace re-inserts it and the entry
   still converges to the exact full-pipeline bytes. *)
let test_daemon_upgrade_survives_eviction () =
  let config = A.Config.(default |> with_pipeline A.Pipeline.full) in
  let app_a = "xsbench" and app_b = "su3bench" in
  let full_b =
    A.compile_buffered ~config ~file:(app_b ^ ".momp") (app_source app_b)
  in
  with_server ~tiered:true ~cache_max_entries:1 @@ fun socket_path ->
  Service.Client.with_connection ~socket_path @@ fun c ->
  let a =
    ok_exn
      (Service.Client.compile c ~file:(app_a ^ ".momp") ~config
         (app_source app_a))
  in
  Alcotest.(check int) "cold A answered" 0 a.A.exit_code;
  let b =
    ok_exn
      (Service.Client.compile c ~file:(app_b ^ ".momp") ~config
         (app_source app_b))
  in
  Alcotest.(check int) "cold B answered" 0 b.A.exit_code;
  let stats = wait_for_upgrades c ~target:2 (Unix.gettimeofday () +. 30.) in
  Alcotest.(check (option int)) "no failed upgrades" (Some 0)
    (tiers_int stats "upgrades_failed");
  Alcotest.(check bool) "the one-entry cap forced evictions" true
    (match storage_int stats [ "cache"; "evictions" ] with
    | Some n -> n >= 1
    | None -> false);
  Alcotest.(check (option int)) "cap echoed into stats" (Some 1)
    (storage_int stats [ "cache"; "max_entries" ]);
  (* ties drain FIFO (A then B), so B's promotion replaced last: its
     entry — re-inserted after eviction — must now hold full bytes *)
  let warm_b =
    ok_exn
      (Service.Client.compile c ~file:(app_b ^ ".momp") ~config
         (app_source app_b))
  in
  check_bytes "post-upgrade B is byte-identical to one-shot full" full_b warm_b

(* A tiered daemon restarted over the same --state-dir boots already
   knowing its hot keys: the drain checkpoints the hotness profile and
   the next create restores it. *)
let test_daemon_profile_restart_roundtrip () =
  let state_dir = temp_dir "hotprof" in
  let config = A.Config.(default |> with_pipeline A.Pipeline.full) in
  let app = "xsbench" in
  with_server ~tiered:true ~state_dir (fun socket_path ->
      Service.Client.with_connection ~socket_path @@ fun c ->
      let r =
        ok_exn
          (Service.Client.compile c ~file:(app ^ ".momp") ~config
             (app_source app))
      in
      Alcotest.(check int) "first life compiled" 0 r.A.exit_code);
  Alcotest.(check bool) "drain checkpointed the profile" true
    (Sys.file_exists (Filename.concat state_dir "hotness.json"));
  with_server ~tiered:true ~state_dir (fun socket_path ->
      Service.Client.with_connection ~socket_path @@ fun c ->
      let stats = ok_exn (Service.Client.stats c ()) in
      Alcotest.(check bool) "second life booted knowing its hot keys" true
        (match tiers_int stats "profile_restored" with
        | Some n -> n > 0
        | None -> false));
  (* an untiered daemon neither writes nor reads the profile *)
  let cold_dir = temp_dir "coldprof" in
  with_server ~state_dir:cold_dir (fun socket_path ->
      Service.Client.with_connection ~socket_path @@ fun c ->
      let r =
        ok_exn
          (Service.Client.compile c ~file:(app ^ ".momp") ~config
             (app_source app))
      in
      Alcotest.(check int) "untiered life compiled" 0 r.A.exit_code);
  Alcotest.(check bool) "untiered daemon writes no profile" false
    (Sys.file_exists (Filename.concat cold_dir "hotness.json"))

let suite =
  [
    Alcotest.test_case "cache/lru-entry-cap" `Quick test_cache_lru_entry_cap;
    Alcotest.test_case "cache/byte-cap-invariant" `Quick
      test_cache_byte_cap_invariant;
    Alcotest.test_case "cache/replace-reinserts-after-eviction" `Quick
      test_cache_replace_reinserts_after_eviction;
    Alcotest.test_case "disk/scrub-quarantines-and-ledgers" `Quick
      test_disk_scrub_quarantines_and_ledgers;
    Alcotest.test_case "disk/quota-evicts-oldest" `Quick
      test_disk_quota_evicts_oldest;
    Alcotest.test_case "disk/injected-full-trips-breaker" `Quick
      test_disk_full_injected_breaker;
    Alcotest.test_case "disk/breaker-recovers" `Quick test_disk_breaker_recovers;
    Alcotest.test_case "hotness/decay-on-overflow" `Quick
      test_hitcount_decay_on_overflow;
    Alcotest.test_case "hotness/profile-roundtrip" `Quick
      test_hitcount_profile_roundtrip;
    Alcotest.test_case "journal/midlife-rotation" `Quick
      test_journal_midlife_rotation;
    Alcotest.test_case "daemon/disk-full-never-client-visible" `Quick
      test_daemon_disk_full_invisible;
    Alcotest.test_case "daemon/upgrade-survives-eviction" `Quick
      test_daemon_upgrade_survives_eviction;
    Alcotest.test_case "daemon/profile-restart-roundtrip" `Quick
      test_daemon_profile_restart_roundtrip;
  ]
