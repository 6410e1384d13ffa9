(* The compile service (mompd) and the API façade it serves.

   What the PR's acceptance hangs on lives here: the wire protocol's
   encoding is pinned by goldens, and a daemon compile — cold, warm,
   concurrent, shed, injected-fault — is byte-identical to the one-shot
   [Ompgpu_api.compile_buffered] / [mompc] path for the same source and
   config (stats payloads compared with the nondeterministic [time_s]
   zeroed). *)

module J = Observe.Json
module E = Fault.Ompgpu_error
module A = Ompgpu_api

let tiny = Proxyapps.App.Tiny
let app_source name = (Proxyapps.Apps.find_exn name).Proxyapps.App.omp_source tiny
let all_app_names =
  List.map (fun (a : Proxyapps.App.t) -> a.Proxyapps.App.name) Proxyapps.Apps.all

(* ------------------------------------------------------------------ *)
(* Harness: an in-process daemon on a fresh socket                     *)
(* ------------------------------------------------------------------ *)

let fresh_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    (* Unix-socket paths are length-limited (~108 bytes): keep them short
       and in the system temp dir, never under _build. *)
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mompd-t%d-%d.sock" (Unix.getpid ()) !n)

let with_server ?(domains = 2) ?(capacity = 8) ?watchdog_s ?cache_dir ?state_dir
    ?(injector = Fault.Injector.none) ?(drain_deadline_s = 5.0)
    ?(tiered = false) ?cache_max_entries ?cache_max_bytes ?journal_max_bytes f =
  let socket_path = fresh_socket () in
  let server =
    Service.Server.create
      {
        Service.Server.socket_path;
        domains;
        capacity;
        watchdog_s;
        cache_dir;
        state_dir;
        injector;
        drain_deadline_s;
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

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected service error: %s" (E.to_string e)

(* Zero every [time_us] member: pass events carry wall times, the only
   nondeterministic bytes in a stats payload. *)
let rec zero_times = function
  | J.Obj ms ->
    J.Obj
      (List.map
         (fun (k, v) ->
           if String.equal k "time_us" then (k, J.Int 0) else (k, zero_times v))
         ms)
  | J.List xs -> J.List (List.map zero_times xs)
  | j -> j

let check_same_compiled what (expected : A.compiled) (got : A.compiled) =
  Alcotest.(check int) (what ^ ": exit code") expected.A.exit_code got.A.exit_code;
  Alcotest.(check string) (what ^ ": stdout bytes") expected.A.output got.A.output;
  Alcotest.(check string)
    (what ^ ": stderr bytes")
    expected.A.diagnostics got.A.diagnostics;
  let stats r = Option.map (fun s -> J.to_string (zero_times s)) r.A.stats in
  Alcotest.(check (option string))
    (what ^ ": stats payload (time_s zeroed)")
    (stats expected) (stats got)

(* ------------------------------------------------------------------ *)
(* Protocol goldens                                                    *)
(* ------------------------------------------------------------------ *)

let wire j = J.to_string ~minify:true j

let test_request_goldens () =
  (* the wire version, the API version and the observability schema are
     three distinct version numbers; pin all three so a bump that forgets
     one of them fails here, not in a client *)
  Alcotest.(check int) "api_version is 3" 3 A.api_version;
  Alcotest.(check int) "protocol version is 2" 2 Service.Protocol.version;
  Alcotest.(check int) "schema_version is 2" 2 J.schema_version;
  Alcotest.(check string)
    "stats request" {|{"v":2,"id":"s1","op":"stats"}|}
    (wire (Service.Protocol.request_to_json (Service.Protocol.Stats { id = "s1" })));
  Alcotest.(check string)
    "shutdown request" {|{"v":2,"id":"q1","op":"shutdown"}|}
    (wire
       (Service.Protocol.request_to_json (Service.Protocol.Shutdown { id = "q1" })));
  Alcotest.(check string)
    "compile request, default config"
    ({|{"v":2,"id":"c1","op":"compile","file":"t.c","source":"int main() { return 0; }",|}
    ^ {|"config":{"scheme":"simplified","emit_ir":true,"run":false,|}
    ^ {|"remarks_only":false,"stats":false,"trace":false,"inject":[],"retries":0,|}
    ^ {|"backoff":0.050000000000000003,"backtrace":false}}|})
    (wire
       (Service.Protocol.request_to_json
          (Service.Protocol.Compile
             {
               id = "c1";
               file = "t.c";
               source = "int main() { return 0; }";
               config = A.Config.default;
               tenant = None;
             })));
  (* a simulating config travels as op "run" *)
  let run_req =
    Service.Protocol.request_to_json
      (Service.Protocol.Compile
         {
           id = "c2";
           file = "t.c";
           source = "x";
           config = A.Config.(default |> with_pipeline A.Pipeline.full |> with_sim);
           tenant = None;
         })
  in
  Alcotest.(check (option string))
    "run op" (Some "run")
    (Option.bind (J.member "op" run_req) J.to_str)

let test_response_goldens () =
  Alcotest.(check string)
    "shutdown ack" {|{"v":2,"id":"q1","op":"shutdown","ok":true}|}
    (wire
       (Service.Protocol.response_to_json
          (Service.Protocol.Shutdown_ack { id = "q1" })));
  let shed =
    Service.Protocol.response_to_json
      (Service.Protocol.Compiled
         {
           id = "c9";
           op = "compile";
           result =
             A.errored ~file:"t.c"
               (E.make
                  (E.Overload { pending = 3; capacity = 3 })
                  ~phase:E.Serving "request shed");
         })
  in
  Alcotest.(check (option int))
    "shed response carries exit 40" (Some 40)
    (Option.bind (J.member "exit_code" shed) J.to_int);
  Alcotest.(check (option string))
    "shed response carries the overload kind" (Some "overload")
    (Option.bind (J.member "error" shed) (fun e ->
         Option.bind (J.member "kind" e) J.to_str))

let test_request_roundtrip () =
  let config =
    A.Config.(
      default |> with_scheme Frontend.Codegen.Legacy
      |> with_pipeline
           (A.Pipeline.of_options
              {
                Openmpopt.Pass_manager.default_options with
                disable_spmdization = true;
                disable_heap_to_shared = true;
              })
      |> with_sim |> with_stats
      |> with_retries ~backoff_s:0.25 2)
  in
  let req =
    Service.Protocol.Compile
      { id = "r1"; file = "a.c"; source = "src"; config; tenant = Some "t-acme" }
  in
  match Service.Protocol.request_of_json (Service.Protocol.request_to_json req) with
  | Error e -> Alcotest.failf "round-trip rejected: %s" (E.to_string e)
  | Ok (Service.Protocol.Compile { id; file; source; config = config'; tenant }) ->
    Alcotest.(check string) "id" "r1" id;
    Alcotest.(check string) "file" "a.c" file;
    Alcotest.(check string) "source" "src" source;
    Alcotest.(check string)
      "config fingerprint survives the wire"
      (A.Config.fingerprint config)
      (A.Config.fingerprint config');
    Alcotest.(check int) "retries" 2 config'.A.Config.retries;
    Alcotest.(check (float 1e-9)) "backoff" 0.25 config'.A.Config.backoff_s;
    Alcotest.(check (option string))
      "tenant survives the wire" (Some "t-acme") tenant
  | Ok _ -> Alcotest.fail "round-trip changed the operation"

let test_bad_requests () =
  let reject what j expected_fragment =
    match Service.Protocol.request_of_json j with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error e ->
      Alcotest.(check string) (what ^ ": kind") "bad-request" (E.kind_name e.E.kind);
      Alcotest.(check int) (what ^ ": exit code") 42 (E.exit_code e);
      let contains s frag =
        let ls = String.length s and lf = String.length frag in
        let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: message mentions %S (got %S)" what expected_fragment
           e.E.message)
        true
        (contains e.E.message expected_fragment)
  in
  reject "wrong version"
    (J.Obj [ ("v", J.Int 99); ("id", J.String "x"); ("op", J.String "stats") ])
    "version 99";
  (* the v1 wire is gone: a v1 client gets a structured refusal naming
     both versions, never a silently-different answer *)
  reject "v1 request"
    (J.Obj [ ("v", J.Int 1); ("id", J.String "x"); ("op", J.String "stats") ])
    "version 1";
  reject "missing id" (J.Obj [ ("v", J.Int 2); ("op", J.String "stats") ]) "id";
  reject "unknown op"
    (J.Obj [ ("v", J.Int 2); ("id", J.String "x"); ("op", J.String "explode") ])
    "explode";
  reject "compile without source"
    (J.Obj [ ("v", J.Int 2); ("id", J.String "x"); ("op", J.String "compile") ])
    "source";
  reject "bad pass toggle"
    (J.Obj
       [
         ("v", J.Int 2);
         ("id", J.String "x");
         ("op", J.String "compile");
         ("source", J.String "s");
         ( "config",
           J.Obj
             [
               ("optimize", J.Bool true); ("disable", J.List [ J.String "warp-speed" ]);
             ] );
       ])
    "warp-speed";
  (* pipeline spec errors surface as Bad_request with the offending pass
     named, exactly like the CLI's --pipeline validation *)
  reject "unknown pass in pipeline spec"
    (J.Obj
       [
         ("v", J.Int 2);
         ("id", J.String "x");
         ("op", J.String "compile");
         ("source", J.String "s");
         ("config", J.Obj [ ("pipeline", J.String "internalize,warp-speed@2") ]);
       ])
    "warp-speed";
  reject "pipeline combined with optimize"
    (J.Obj
       [
         ("v", J.Int 2);
         ("id", J.String "x");
         ("op", J.String "compile");
         ("source", J.String "s");
         ( "config",
           J.Obj [ ("pipeline", J.String "fast"); ("optimize", J.Bool true) ] );
       ])
    "may not be combined"

(* an explicit pipeline replaces the legacy optimize/disable members on
   the wire and survives the round trip with its identity intact *)
let test_pipeline_on_the_wire () =
  let config = A.Config.(default |> with_pipeline A.Pipeline.fast) in
  let j = Service.Protocol.config_to_json config in
  Alcotest.(check (option string))
    "pipeline member is the spec string"
    (Some "fast=internalize,fold,cleanup@1")
    (Option.bind (J.member "pipeline" j) J.to_str);
  Alcotest.(check bool)
    "legacy optimize member omitted" true
    (J.member "optimize" j = None && J.member "disable" j = None);
  match Service.Protocol.config_of_json j with
  | Error e -> Alcotest.failf "pipeline config rejected: %s" e
  | Ok config' ->
    Alcotest.(check string)
      "config fingerprint survives the wire"
      (A.Config.fingerprint config)
      (A.Config.fingerprint config');
    (match config'.A.Config.pipeline with
    | Some p ->
      Alcotest.(check string)
        "the pipeline itself survives"
        (A.Pipeline.to_string A.Pipeline.fast)
        (A.Pipeline.to_string p)
    | None -> Alcotest.fail "pipeline member lost in decoding")

(* The legacy "optimize"/"disable" members still decode, straight to the
   equivalent pipeline: a request using them carries the same config
   fingerprint, and compiles to the same bytes, as one naming that
   pipeline's spec. *)
let test_toggles_decode_to_pipeline () =
  let decode config =
    match
      Service.Protocol.request_of_json
        (J.Obj
           [
             ("v", J.Int 2);
             ("id", J.String "t");
             ("op", J.String "run");
             ("file", J.String "x.c");
             ("source", J.String "s");
             ("config", J.Obj config);
           ])
    with
    | Ok (Service.Protocol.Compile { config; _ }) -> config
    | Ok _ -> Alcotest.fail "decoded as another operation"
    | Error e -> Alcotest.failf "rejected: %s" (E.to_string e)
  in
  let toggles =
    decode
      [
        ("optimize", J.Bool true);
        ("disable", J.List [ J.String "spmdization"; J.String "heap-to-shared" ]);
        ("run", J.Bool true);
      ]
  in
  let spec =
    A.Pipeline.to_string
      (A.Pipeline.of_options
         {
           Openmpopt.Pass_manager.default_options with
           disable_spmdization = true;
           disable_heap_to_shared = true;
         })
  in
  let piped = decode [ ("pipeline", J.String spec); ("run", J.Bool true) ] in
  Alcotest.(check string)
    "same config fingerprint" (A.Config.fingerprint piped)
    (A.Config.fingerprint toggles);
  let source = (Proxyapps.Apps.find_exn "su3bench").Proxyapps.App.omp_source Proxyapps.App.Tiny in
  let a = A.compile_buffered ~config:toggles ~file:"x.c" source in
  let b = A.compile_buffered ~config:piped ~file:"x.c" source in
  Alcotest.(check int) "exit code" 0 a.A.exit_code;
  Alcotest.(check string) "stdout bytes" b.A.output a.A.output;
  Alcotest.(check string) "stderr bytes" b.A.diagnostics a.A.diagnostics;
  (* the encoder sends only the pipeline *)
  let j = Service.Protocol.config_to_json toggles in
  Alcotest.(check (option string)) "re-encoded as its spec" (Some spec)
    (Option.bind (J.member "pipeline" j) J.to_str);
  Alcotest.(check bool) "no toggle members" true
    (J.member "optimize" j = None && J.member "disable" j = None)

(* ------------------------------------------------------------------ *)
(* Daemon round-trips                                                  *)
(* ------------------------------------------------------------------ *)

(* Every proxy app at Tiny scale, full pipeline + simulator + stats: the
   daemon's answer must match the one-shot façade compile byte for byte
   (the acceptance criterion of the PR). *)
let test_daemon_byte_identical () =
  let config = A.Config.(default |> with_pipeline A.Pipeline.full |> with_sim |> with_stats) in
  with_server @@ fun socket_path ->
  Service.Client.with_connection ~socket_path @@ fun c ->
  List.iter
    (fun name ->
      let file = name ^ ".momp" in
      let source = app_source name in
      let oneshot = A.compile_buffered ~config ~file source in
      let served = ok_exn (Service.Client.compile c ~file ~config source) in
      check_same_compiled (name ^ " via daemon") oneshot served)
    all_app_names

let test_daemon_warm_cache () =
  let config = A.Config.(default |> with_pipeline A.Pipeline.full) in
  let source = app_source "xsbench" in
  with_server @@ fun socket_path ->
  Service.Client.with_connection ~socket_path @@ fun c ->
  let first = ok_exn (Service.Client.compile c ~file:"x.momp" ~config source) in
  let second = ok_exn (Service.Client.compile c ~file:"x.momp" ~config source) in
  check_same_compiled "warm replay" first second;
  let stats = ok_exn (Service.Client.stats c ()) in
  let cache_member k =
    Option.bind (J.member "cache" stats) (fun c -> Option.bind (J.member k c) J.to_int)
  in
  Alcotest.(check (option int)) "one warm hit" (Some 1) (cache_member "hits");
  Alcotest.(check (option int)) "one cold miss" (Some 1) (cache_member "misses");
  Alcotest.(check (option int))
    "stats payload is schema-stamped" (Some J.schema_version)
    (Option.bind (J.member "schema" stats) J.to_int)

let test_daemon_health () =
  with_server @@ fun socket_path ->
  Service.Client.with_connection ~socket_path @@ fun c ->
  let health = ok_exn (Service.Client.health c ()) in
  let str k = Option.bind (J.member k health) J.to_str in
  Alcotest.(check (option string)) "status" (Some "ok") (str "status");
  Alcotest.(check (option string)) "breaker" (Some "closed") (str "breaker");
  Alcotest.(check (option int))
    "no restarts" (Some 0)
    (Option.bind (J.member "restarts" health) J.to_int);
  Alcotest.(check (option int))
    "schema-stamped" (Some J.schema_version)
    (Option.bind (J.member "schema" health) J.to_int);
  Alcotest.(check bool)
    "journal replay counters present" true
    (Option.is_some (J.member "journal" health));
  (* health rides the stats payload too, as the "service" object *)
  let stats = ok_exn (Service.Client.stats c ()) in
  Alcotest.(check (option string))
    "stats.service.breaker" (Some "closed")
    (Option.bind (J.member "service" stats) (fun s ->
         Option.bind (J.member "breaker" s) J.to_str))

(* Concurrent clients, one per app, several rounds each: the fan-in must
   produce exactly the bytes sequential one-shot compiles produce — no
   cross-request bleed through the shared pool, caches or counters. *)
let test_daemon_concurrent_fan_in () =
  let config = A.Config.(default |> with_pipeline A.Pipeline.full |> with_sim) in
  let expected =
    List.map
      (fun name ->
        (name, A.compile_buffered ~config ~file:(name ^ ".momp") (app_source name)))
      all_app_names
  in
  with_server ~domains:3 ~capacity:16 @@ fun socket_path ->
  let results = Array.make (List.length expected) None in
  let threads =
    List.mapi
      (fun i (name, _) ->
        Thread.create
          (fun () ->
            Service.Client.with_connection ~socket_path @@ fun c ->
            let rs =
              List.init 3 (fun _ ->
                  Service.Client.compile c ~file:(name ^ ".momp") ~config
                    (app_source name))
            in
            results.(i) <- Some rs)
          ())
      expected
  in
  List.iter Thread.join threads;
  List.iteri
    (fun i (name, oneshot) ->
      match results.(i) with
      | None -> Alcotest.failf "%s: client thread died" name
      | Some rs ->
        List.iteri
          (fun round r ->
            check_same_compiled
              (Printf.sprintf "%s round %d under concurrency" name round)
              oneshot (ok_exn r))
          rs)
    expected

let test_daemon_load_shed () =
  (* capacity 0 sheds deterministically: every compile answers exit 40
     with the structured, transient overload — and the daemon keeps
     serving protocol traffic afterwards. *)
  with_server ~capacity:0 @@ fun socket_path ->
  Service.Client.with_connection ~socket_path @@ fun c ->
  let r =
    ok_exn
      (Service.Client.compile c ~file:"x.momp" ~config:A.Config.default
         (app_source "xsbench"))
  in
  Alcotest.(check int) "shed exit code" 40 r.A.exit_code;
  (match r.A.error with
  | Some e ->
    Alcotest.(check string) "overload kind" "overload" (E.kind_name e.E.kind);
    Alcotest.(check bool) "overload is transient" true (E.is_transient e)
  | None -> Alcotest.fail "shed response without a structured error");
  let stats = ok_exn (Service.Client.stats c ()) in
  Alcotest.(check (option int))
    "shed counter" (Some 1)
    (Option.bind (J.member "requests" stats) (fun r ->
         Option.bind (J.member "shed" r) J.to_int))

let test_daemon_survives_pass_crash () =
  (* A request arriving with pass-crash armed fails structurally (exit 14)
     with the same bytes the one-shot driver prints — and the daemon, pool
     included, keeps serving clean requests afterwards. *)
  let spec =
    match Fault.Injector.parse_spec "pass-crash:1.0" with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let crash_config = A.Config.(default |> with_pipeline A.Pipeline.full |> with_inject [ spec ]) in
  let clean_config = A.Config.(default |> with_pipeline A.Pipeline.full) in
  let source = app_source "su3bench" in
  let file = "s.momp" in
  with_server @@ fun socket_path ->
  Service.Client.with_connection ~socket_path @@ fun c ->
  let oneshot = A.compile_buffered ~config:crash_config ~file source in
  Alcotest.(check int) "injected one-shot fails as pass-crash" 14
    oneshot.A.exit_code;
  let served = ok_exn (Service.Client.compile c ~file ~config:crash_config source) in
  check_same_compiled "injected failure via daemon" oneshot served;
  let clean = ok_exn (Service.Client.compile c ~file ~config:clean_config source) in
  Alcotest.(check int) "daemon still compiles cleanly" 0 clean.A.exit_code

let test_daemon_rejects_garbage_line () =
  with_server @@ fun socket_path ->
  Service.Client.with_connection ~socket_path @@ fun c ->
  (* a syntactically valid JSON line that is not a request *)
  let reply = ok_exn (Service.Client.roundtrip_json c (J.String "hello")) in
  Alcotest.(check (option bool))
    "rejected" (Some false)
    (Option.bind (J.member "ok" reply) (function J.Bool b -> Some b | _ -> None));
  Alcotest.(check (option string))
    "bad-request kind" (Some "bad-request")
    (Option.bind (J.member "error" reply) (fun e ->
         Option.bind (J.member "kind" e) J.to_str));
  (* the connection survives the bad line *)
  let r =
    ok_exn
      (Service.Client.compile c ~file:"x.momp" ~config:A.Config.default
         (app_source "xsbench"))
  in
  Alcotest.(check int) "next request on the same connection" 0 r.A.exit_code

(* ------------------------------------------------------------------ *)
(* Tiered compilation                                                  *)
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

(* The tentpole's acceptance: a tiered daemon answers a cold
   full-pipeline request from the fast tier; a racing request sees the
   fast bytes or the full bytes — both complete compiles — never a torn
   entry; and once the background upgrade lands, the served bytes are
   identical to a one-shot full-pipeline compile. *)
let test_daemon_tier_upgrade () =
  let config = A.Config.(default |> with_pipeline A.Pipeline.full) in
  let source = app_source "xsbench" in
  let file = "x.momp" in
  let oneshot_full = A.compile_buffered ~config ~file source in
  let oneshot_fast =
    A.compile_buffered
      ~config:A.Config.(default |> with_pipeline A.Pipeline.fast)
      ~file source
  in
  Alcotest.(check bool)
    "precondition: the tiers produce different bytes" false
    (String.equal oneshot_full.A.output oneshot_fast.A.output);
  with_server ~tiered:true @@ fun socket_path ->
  Service.Client.with_connection ~socket_path @@ fun c ->
  let cold = ok_exn (Service.Client.compile c ~file ~config source) in
  check_same_compiled "cold answer is the fast tier" oneshot_fast cold;
  (* racing requests during the upgrade window: each answer must be
     exactly one tier's bytes, never a mixture *)
  List.iteri
    (fun i r ->
      let r = ok_exn r in
      if
        not
          (String.equal r.A.output oneshot_fast.A.output
          || String.equal r.A.output oneshot_full.A.output)
      then Alcotest.failf "racer %d saw torn bytes" i;
      Alcotest.(check int) (Printf.sprintf "racer %d exit code" i) 0 r.A.exit_code)
    (List.init 8 (fun _ -> Service.Client.compile c ~file ~config source));
  let stats = wait_for_upgrades c ~target:1 (Unix.gettimeofday () +. 30.) in
  Alcotest.(check (option bool))
    "stats report tiering enabled" (Some true)
    (Option.bind (J.member "tiers" stats) (fun t ->
         Option.bind (J.member "enabled" t) (function
           | J.Bool b -> Some b
           | _ -> None)));
  Alcotest.(check bool)
    "fast-tier answers were counted" true
    (match tiers_int stats "fast_served" with Some n -> n >= 1 | None -> false);
  Alcotest.(check (option int)) "no failed upgrades" (Some 0)
    (tiers_int stats "upgrades_failed");
  (* post-upgrade, the cached entry IS the one-shot full compile *)
  let warm = ok_exn (Service.Client.compile c ~file ~config source) in
  check_same_compiled "post-upgrade answer is byte-identical to one-shot full"
    oneshot_full warm

(* An untiered daemon must be wholly unaffected by the machinery: cold
   answers are full-pipeline bytes and the tiers counters stay zero. *)
let test_daemon_untiered_unchanged () =
  let config = A.Config.(default |> with_pipeline A.Pipeline.full) in
  let source = app_source "su3bench" in
  let file = "s.momp" in
  let oneshot = A.compile_buffered ~config ~file source in
  with_server @@ fun socket_path ->
  Service.Client.with_connection ~socket_path @@ fun c ->
  let served = ok_exn (Service.Client.compile c ~file ~config source) in
  check_same_compiled "untiered cold answer is full-pipeline" oneshot served;
  let stats = ok_exn (Service.Client.stats c ()) in
  Alcotest.(check (option int)) "no fast-tier answers" (Some 0)
    (tiers_int stats "fast_served");
  Alcotest.(check (option int)) "no upgrades queued" (Some 0)
    (tiers_int stats "upgrades_queued")

(* An explicit fast-tier request against a tiered daemon is served as
   asked and never enqueued for upgrade: the client chose the tier. *)
let test_daemon_explicit_fast_not_upgraded () =
  let config = A.Config.(default |> with_pipeline A.Pipeline.fast) in
  let source = app_source "su3bench" in
  let file = "s.momp" in
  let oneshot = A.compile_buffered ~config ~file source in
  with_server ~tiered:true @@ fun socket_path ->
  Service.Client.with_connection ~socket_path @@ fun c ->
  let served = ok_exn (Service.Client.compile c ~file ~config source) in
  check_same_compiled "explicit fast request served as asked" oneshot served;
  let stats = ok_exn (Service.Client.stats c ()) in
  Alcotest.(check (option int)) "nothing queued for upgrade" (Some 0)
    (tiers_int stats "upgrades_queued")

(* ------------------------------------------------------------------ *)
(* The façade and the CLI agree                                        *)
(* ------------------------------------------------------------------ *)

(* Resolve the driver next to this test binary, so the tests work from
   `dune runtest` (cwd = the sandboxed test dir) and `dune exec` (cwd =
   wherever the user stands) alike. *)
let mompc_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/mompc.exe"

let () =
  if not (Sys.file_exists mompc_exe) then
    failwith ("test_service: mompc binary not found at " ^ mompc_exe)

let run_command cmd =
  let out_file = Filename.temp_file "svc" ".out" in
  let err_file = Filename.temp_file "svc" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s > %s 2> %s" cmd (Filename.quote out_file)
         (Filename.quote err_file))
  in
  let read f = In_channel.with_open_text f In_channel.input_all in
  let out = read out_file and err = read err_file in
  Sys.remove out_file;
  Sys.remove err_file;
  (code, out, err)

let with_source_file source f =
  let path = Filename.temp_file "svc" ".momp.c" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc source);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* [Ompgpu_api.compile_buffered] IS what mompc prints: same bytes, same
   exit code — the façade test the satellite asks for. *)
let test_facade_matches_cli () =
  let config = A.Config.(default |> with_pipeline A.Pipeline.full |> with_sim) in
  with_source_file (app_source "rsbench") @@ fun path ->
  let facade = A.compile_buffered ~config ~file:path (app_source "rsbench") in
  let code, out, err =
    run_command (Printf.sprintf "%s -O --run %s" mompc_exe (Filename.quote path))
  in
  Alcotest.(check int) "exit code" facade.A.exit_code code;
  Alcotest.(check string) "stdout" facade.A.output out;
  Alcotest.(check string) "stderr" facade.A.diagnostics err

(* mompc --daemon SOCKET against a live in-process server: byte-identical
   to the same mompc invocation without the daemon. *)
let test_cli_daemon_matches_oneshot () =
  with_server @@ fun socket_path ->
  with_source_file (app_source "miniqmc") @@ fun path ->
  let flags = Printf.sprintf "-O --run %s" (Filename.quote path) in
  let code1, out1, err1 = run_command (Printf.sprintf "%s %s" mompc_exe flags) in
  let code2, out2, err2 =
    run_command
      (Printf.sprintf "%s %s --daemon %s" mompc_exe flags
         (Filename.quote socket_path))
  in
  Alcotest.(check int) "exit code" code1 code2;
  Alcotest.(check string) "stdout bytes" out1 out2;
  Alcotest.(check string) "stderr bytes" err1 err2

let contains s frag =
  let ls = String.length s and lf = String.length frag in
  let rec go i = i + lf <= ls && (String.sub s i lf = frag || go (i + 1)) in
  go 0

(* The PR-4 compatibility aliases served their one-release grace period
   (docs/API.md deprecation policy) and are retired with api_version 2:
   the old spellings that are not a prefix of a canonical flag are now
   CLI parse errors, while the canonical spellings keep working.
   (--cache and --stats still parse, but only as cmdliner's unambiguous
   abbreviation of --cache-dir and --stats-json — the same meaning, so
   there is nothing separate to pin for them.) *)
let test_retired_aliases () =
  with_source_file (app_source "xsbench") @@ fun path ->
  let quoted = Filename.quote path in
  let code_canonical, _, _ =
    run_command (Printf.sprintf "%s -O -j 2 %s" mompc_exe quoted)
  in
  Alcotest.(check int) "canonical -j still parses" 0 code_canonical;
  List.iter
    (fun (flag, value) ->
      let code, _, err =
        run_command (Printf.sprintf "%s -O %s %s %s" mompc_exe flag value quoted)
      in
      Alcotest.(check int) (flag ^ ": retired spelling is a CLI error") 124 code;
      Alcotest.(check bool)
        (flag ^ ": named in the usage error")
        true (contains err flag))
    [ ("--domains", "2"); ("--fault-inject", "pass-crash:1.0") ]

(* mompc --pipeline: full is byte-identical to -O, fast compiles, bad
   specs and mixing with the legacy toggles are structured Bad_requests
   (exit 42). *)
let test_cli_pipeline_flag () =
  with_source_file (app_source "xsbench") @@ fun path ->
  let quoted = Filename.quote path in
  let code_o, out_o, err_o =
    run_command (Printf.sprintf "%s -O %s" mompc_exe quoted)
  in
  let code_p, out_p, err_p =
    run_command (Printf.sprintf "%s --pipeline full %s" mompc_exe quoted)
  in
  Alcotest.(check int) "--pipeline full: exit code of -O" code_o code_p;
  Alcotest.(check string) "--pipeline full: stdout bytes of -O" out_o out_p;
  Alcotest.(check string) "--pipeline full: stderr bytes of -O" err_o err_p;
  let code_fast, out_fast, _ =
    run_command (Printf.sprintf "%s --pipeline fast %s" mompc_exe quoted)
  in
  Alcotest.(check int) "--pipeline fast compiles" 0 code_fast;
  Alcotest.(check bool)
    "fast is a different tier (different bytes)" false
    (String.equal out_fast out_p);
  let code_bad, _, err_bad =
    run_command
      (Printf.sprintf "%s --pipeline internalize,warp-speed@1 %s" mompc_exe
         quoted)
  in
  Alcotest.(check int) "unknown pass is exit 42" 42 code_bad;
  Alcotest.(check bool)
    "unknown pass named" true (contains err_bad "warp-speed");
  let code_mix, _, err_mix =
    run_command (Printf.sprintf "%s --pipeline fast -O %s" mompc_exe quoted)
  in
  Alcotest.(check int) "--pipeline with -O refused (exit 42)" 42 code_mix;
  Alcotest.(check bool)
    "mixing error mentions the conflict" true
    (contains err_mix "may not be combined")

let suite =
  [
    Alcotest.test_case "protocol/request-goldens" `Quick test_request_goldens;
    Alcotest.test_case "protocol/response-goldens" `Quick test_response_goldens;
    Alcotest.test_case "protocol/request-roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "protocol/bad-requests" `Quick test_bad_requests;
    Alcotest.test_case "protocol/toggles-decode-to-pipeline" `Quick
      test_toggles_decode_to_pipeline;
    Alcotest.test_case "protocol/pipeline-on-the-wire" `Quick
      test_pipeline_on_the_wire;
    Alcotest.test_case "daemon/byte-identical-all-apps" `Quick
      test_daemon_byte_identical;
    Alcotest.test_case "daemon/warm-cache" `Quick test_daemon_warm_cache;
    Alcotest.test_case "daemon/health" `Quick test_daemon_health;
    Alcotest.test_case "daemon/concurrent-fan-in" `Quick
      test_daemon_concurrent_fan_in;
    Alcotest.test_case "daemon/load-shed" `Quick test_daemon_load_shed;
    Alcotest.test_case "daemon/survives-pass-crash" `Quick
      test_daemon_survives_pass_crash;
    Alcotest.test_case "daemon/rejects-garbage-line" `Quick
      test_daemon_rejects_garbage_line;
    Alcotest.test_case "daemon/tier-upgrade" `Quick test_daemon_tier_upgrade;
    Alcotest.test_case "daemon/untiered-unchanged" `Quick
      test_daemon_untiered_unchanged;
    Alcotest.test_case "daemon/explicit-fast-not-upgraded" `Quick
      test_daemon_explicit_fast_not_upgraded;
    Alcotest.test_case "cli/facade-matches-mompc" `Quick test_facade_matches_cli;
    Alcotest.test_case "cli/daemon-matches-oneshot" `Quick
      test_cli_daemon_matches_oneshot;
    Alcotest.test_case "cli/retired-aliases" `Quick test_retired_aliases;
    Alcotest.test_case "cli/pipeline-flag" `Quick test_cli_pipeline_flag;
  ]
