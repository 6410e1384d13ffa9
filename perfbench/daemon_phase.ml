(* The traced daemon phase that ends a traced corpus-matrix run: a live
   in-process Service.Server (default config but for one pool domain)
   serving 2 closed-loop client sessions, each sending its next compile
   2 ms (think time) after the previous reply.  It is the only part of the
   benchmark that reaches the protocol, admission, Sched.Cache and the
   pool, and it yields per-layer metrics only: nothing it measures is
   gated.

   Every traffic parameter below (the zipf exponent, the hot pool's size,
   the fresh-key share, the think time, the pairing and doubling of fresh
   keys) is an assumption, not taken from any traffic record; NOTES.md
   lists them.  The traffic is stationary, so every second of the phase
   sees the same mix:
   - reads: zipf-skewed draws (s = 0.7) from a hot pool of corpus program x cell keys,
     compiled once in a warm-up before the timed phase, so hot keys arrive
     concurrently and hit the cache;
   - writes: with probability [fresh_p] a request takes the current fresh
     key instead, a program x cell no request has named before.  Fresh keys
     come in pairs per program, its LLVM 12 analogue (legacy/O0) and its
     fully optimized build (simplified/full), as a user comparing the two
     would send them.  Each fresh key is handed out twice, so the second
     request either hits or, while the first is still compiling, compiles
     the same key again (a duplicate in-flight compile).
   A request is cold if it is the first request of its key in the phase. *)

module Api = Ompgpu_api
module Matrix = Corpus.Matrix
module J = Observe.Json

let sessions = 2
let pool_domains = 1
let think_s = 0.002
let hot_programs = 80
let zipf_s = 0.7
let fresh_p = 0.1

(* Fresh programs generated in set-up, per second of the phase: about
   twice what a 2-core host uses.  Should the phase use them all, later
   fresh draws fall back to the hot pool. *)
let fresh_programs ~seconds = 150 * seconds

type key = {
  index : int;  (** the corpus program *)
  cell : Matrix.cell;
  file : string;
  config : Api.Config.t;
  src : string;
}

type setup = {
  hot : key array;  (** hottest first *)
  fresh : key array;
  cdf : float array;
  server : Service.Server.t;
  thread : Thread.t;
  socket_path : string;
}

let socket_path () =
  Filename.concat (Run_result.out_dir ()) (Printf.sprintf "daemon-%d.sock" (Unix.getpid ()))

let uniform rng =
  Int64.to_float (Int64.shift_right_logical (Corpus.Splitmix.next rng) 11) /. 9007199254740992.0

let draw cdf rng =
  let u = uniform rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Cells with a documented divergence class are left out: they can end in
   a simulator deadlock, and failed compiles are not cached. *)
let eligible (input : Corpus_matrix.input) =
  List.filter (fun cell -> Matrix.classify cell input.prog = None) Matrix.cells

let key_of inputs index (cell : Matrix.cell) =
  {
    index;
    cell;
    file = Printf.sprintf "corpus-%d-%s.c" index (Matrix.cell_name cell);
    config = Matrix.config_of_cell cell;
    src = List.assoc cell.mode inputs.(index).Corpus_matrix.srcs;
  }

let setup ~seed ~seconds =
  let root = Int64.of_int seed in
  let rng = Corpus.Splitmix.split (Corpus.Splitmix.of_int seed) "daemon" in
  let inputs =
    Array.init
      (hot_programs + fresh_programs ~seconds)
      (fun i ->
        let prog = Corpus.Gen.generate (Corpus.Gen.program_stream ~root i) in
        {
          Corpus_matrix.prog;
          srcs = List.map (fun m -> (m, Corpus.Gen.render ~mode:m prog)) Corpus.Gen.modes;
        })
  in
  let hot =
    Array.of_list
      (List.concat
         (List.init hot_programs (fun i -> List.map (key_of inputs i) (eligible inputs.(i)))))
  in
  Measure.shuffle rng hot;
  let fresh =
    Array.of_list
      (List.concat
         (List.init (fresh_programs ~seconds) (fun j ->
              let i = hot_programs + j in
              let pair mode =
                [
                  { Matrix.scheme = Frontend.Codegen.Legacy; mode; pipeline = Matrix.O0 };
                  { Matrix.scheme = Frontend.Codegen.Simplified; mode; pipeline = Matrix.Full };
                ]
              in
              let mode = List.nth Corpus.Gen.modes (Corpus.Splitmix.int rng 2) in
              let cells = pair mode in
              if List.for_all (fun c -> List.mem c (eligible inputs.(i))) cells then
                List.map (key_of inputs i) cells
              else [])))
  in
  let weights = Array.init (Array.length hot) (fun r -> 1.0 /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let acc = ref 0.0 in
  let cdf = Array.map (fun w -> acc := !acc +. (w /. total); !acc) weights in
  let socket_path = socket_path () in
  (* One pool domain, not the default two: with the main domain that makes
     as many domains as a 2-core host has cores.  At two pool domains the
     three domains stall in each other's stop-the-world minor collections,
     and the same seed ran at half the throughput on some runs. *)
  let server =
    Service.Server.create
      { Service.Server.default_config with socket_path; domains = pool_domains }
  in
  let thread = Thread.create Service.Server.serve_forever server in
  { hot; fresh; cdf; server; thread; socket_path }

let shutdown s =
  Service.Server.stop s.server;
  Thread.join s.thread;
  try Unix.unlink s.socket_path with Unix.Unix_error _ -> ()

type sample = {
  key : int;
  lat_s : float;
  cold : bool;
  timed : bool;  (** false in the warm-up *)
  traced : bool;
  transport_ok : bool;
}

let identical (a : Api.compiled) (b : Api.compiled) =
  a.exit_code = b.exit_code
  && String.equal a.output b.output
  && String.equal a.diagnostics b.diagnostics

(* One traced request: the benchmark computes the cache key and encodes
   the request itself (api and protocol layers), sends it through the
   session (the service), and decodes the reply's wire bytes again. *)
let traced_compile spans ~req session (k : key) =
  Spans.with_ (Some spans) ~req "request" @@ fun root ->
  let sp name f = Spans.with_ (Some spans) ~parent:root ~req name f in
  let id = Printf.sprintf "r%d" req in
  sp "api.cache_key" (fun _ -> ignore (Api.cache_key ~file:k.file ~config:k.config ~source:k.src));
  sp "protocol.encode" (fun _ ->
      ignore
        (J.to_string ~minify:true
           (Service.Protocol.request_to_json
              (Service.Protocol.Compile
                 { id; file = k.file; source = k.src; config = k.config; tenant = None }))));
  let r =
    sp "service" (fun _ -> Service.Client.session_compile session ~id ~file:k.file ~config:k.config k.src)
  in
  (match r with
  | Ok result ->
    let wire =
      J.to_string ~minify:true
        (Service.Protocol.response_to_json (Service.Protocol.Compiled { id; op = "run"; result }))
    in
    sp "protocol.decode" (fun _ ->
        match J.of_string wire with
        | Ok j -> ignore (Service.Protocol.response_of_json j)
        | Error _ -> ())
  | Error _ -> ());
  r

(* The phase: set up, warm the hot pool, run the sessions for [seconds]
   with every second request of a session traced, read the server's
   stats, shut down, then check every reply against compile_buffered. *)
let traced_phase ~seed ~seconds =
  let s = setup ~seed ~seconds in
  let n_hot = Array.length s.hot in
  let key_at id = if id < n_hot then s.hot.(id) else s.fresh.(id - n_hot) in
  let spans = Spans.create () in
  let lock = Mutex.create () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let seen = Hashtbl.create 1024 and first_reply = Hashtbl.create 1024 in
  let mismatched = Hashtbl.create 16 in
  let samples = ref [] and next_req = ref 0 in
  let retries = ref 0 and reconnects = ref 0 in
  let fresh_next = ref 0 and fresh_taken = ref false in
  (* each fresh key is handed out twice, then the next one is current *)
  let take_fresh () =
    locked (fun () ->
        if !fresh_next >= Array.length s.fresh then None
        else begin
          let id = n_hot + !fresh_next in
          if !fresh_taken then incr fresh_next;
          fresh_taken := not !fresh_taken;
          Some id
        end)
  in
  let request session ~timed ~trace_this id =
    let k = key_at id in
    let req, cold =
      locked (fun () ->
          let req = !next_req in
          incr next_req;
          let cold = not (Hashtbl.mem seen id) in
          Hashtbl.replace seen id ();
          (req, cold))
    in
    let t0 = Measure.now () in
    let r =
      if trace_this then traced_compile spans ~req session k
      else
        Service.Client.session_compile session ~id:(Printf.sprintf "r%d" req) ~file:k.file
          ~config:k.config k.src
    in
    let t1 = Measure.now () in
    locked (fun () ->
        (match r with
        | Ok reply -> (
          match Hashtbl.find_opt first_reply id with
          | None -> Hashtbl.replace first_reply id reply
          | Some first -> if not (identical first reply) then Hashtbl.replace mismatched id ())
        | Error _ -> ());
        samples :=
          { key = id; lat_s = t1 -. t0; cold; timed; traced = trace_this;
            transport_ok = Result.is_ok r }
          :: !samples)
  in
  let in_sessions f =
    let threads =
      List.init sessions (fun c ->
          Thread.create
            (fun () ->
              let session = Service.Client.session ~socket_path:s.socket_path () in
              f c session;
              locked (fun () ->
                  retries := !retries + Service.Client.session_retries session;
                  reconnects := !reconnects + Service.Client.session_reconnects session);
              Service.Client.session_close session)
            ())
    in
    List.iter Thread.join threads
  in
  (* warm-up, untimed: every hot key once *)
  in_sessions (fun c session ->
      Array.iteri
        (fun id _ -> if id mod sessions = c then request session ~timed:false ~trace_this:false id)
        s.hot);
  let rss = Measure.rss_sampler () in
  let t_start = Measure.now () in
  let deadline = t_start +. float_of_int seconds in
  in_sessions (fun c session ->
      let rng = Corpus.Splitmix.split (Corpus.Splitmix.of_int seed) (Printf.sprintf "client#%d" c) in
      let n = ref 0 in
      while Measure.now () < deadline do
        let id =
          if uniform rng < fresh_p then
            match take_fresh () with Some id -> id | None -> draw s.cdf rng
          else draw s.cdf rng
        in
        request session ~timed:true ~trace_this:(!n mod 2 = 1) id;
        incr n;
        Thread.delay think_s
      done);
  let t_end = Measure.now () in
  let rss_mb = rss () in
  let stats =
    Service.Client.with_connection ~socket_path:s.socket_path (fun c ->
        Service.Client.stats c ())
  in
  shutdown s;
  (* the reference check, after the timed phase: every distinct key's reply
     must be byte-identical to in-process compile_buffered.  It runs on one
     domain, so the compile times service.queue_ms subtracts are not
     slowed by a second domain beside them. *)
  let replies = Hashtbl.fold (fun id reply acc -> (id, reply) :: acc) first_reply [] in
  let checked =
    List.map
      (fun (id, reply) ->
        let k = key_at id in
        let t0 = Measure.now () in
        let expected = Api.compile_buffered ~config:k.config ~file:k.file k.src in
        (id, Measure.now () -. t0, identical expected reply))
      replies
  in
  let api_s = Hashtbl.create 1024 in
  List.iter
    (fun (id, dt, same) ->
      Hashtbl.replace api_s id dt;
      if not same then Hashtbl.replace mismatched id ())
    checked;
  let samples = List.rev !samples in
  let ok (x : sample) = x.transport_ok && not (Hashtbl.mem mismatched x.key) in
  let failed = List.length (List.filter (fun x -> not (ok x)) samples) in
  let lat xs = List.map (fun x -> x.lat_s) xs in
  let timed = List.filter (fun x -> x.timed) samples in
  let cold = List.filter (fun x -> x.cold) timed in
  let warm = List.filter (fun x -> not x.cold) timed in
  let all_spans = Spans.spans spans in
  let self = Spans.self_by_name all_spans in
  let per_call name = self name /. float_of_int (max 1 (Spans.count_named all_spans name)) in
  let counter path =
    match stats with
    | Ok j ->
      let rec go j = function
        | [] -> J.to_int j
        | k :: rest -> Option.bind (J.member k j) (fun j -> go j rest)
      in
      float_of_int (Option.value (go j path) ~default:0)
    | Error _ -> 0.0
  in
  let hits = counter [ "cache"; "hits" ] and misses = counter [ "cache"; "misses" ] in
  let queue =
    List.filter_map
      (fun x -> Option.map (fun a -> x.lat_s -. a) (Hashtbl.find_opt api_s x.key))
      cold
  in
  let traced_lat = lat (List.filter (fun x -> x.traced) timed) in
  let untraced_lat = lat (List.filter (fun x -> not x.traced) timed) in
  let coverage = Inproc_layers.coverage all_spans in
  let coverage_ok = coverage >= 1.0 -. Inproc_layers.coverage_tolerance in
  {
    Run_result.attempted = List.length samples + 1;
    failed = (failed + if coverage_ok then 0 else 1);
    spans = all_spans;
    notes =
      [
        Printf.sprintf
          "daemon phase: %d timed requests (%d cold, %d warm; %d fresh keys) from %d sessions over %d hot keys in %.1fs"
          (List.length timed) (List.length cold) (List.length warm) !fresh_next sessions
          n_hot (t_end -. t_start);
      ];
    values =
      [
        ("api.compile_s", Measure.mean (Hashtbl.fold (fun _ t acc -> t :: acc) api_s []));
        ("api.cache_key_us", 1e6 *. per_call "api.cache_key");
        ("cache.hits", hits);
        ("cache.misses", misses);
        ("cache.hit_ratio", hits /. Float.max 1.0 (hits +. misses));
        ("pool.stolen", counter [ "pool"; "stolen" ]);
        ("pool.max_pending", counter [ "pool"; "max_pending" ]);
        ("service.compiles", misses);
        ("service.duplicate_compiles", misses -. float_of_int (Hashtbl.length first_reply));
        ("service.cold_ms", 1000.0 *. Measure.median (lat cold));
        ("service.overhead_ms", 1000.0 *. Measure.median (lat warm));
        ("service.queue_ms", 1000.0 *. Measure.median queue);
        ("service.shed", counter [ "requests"; "shed" ]);
        ("client.retries", float_of_int !retries);
        ("client.reconnects", float_of_int !reconnects);
        ("protocol.encode_us", 1e6 *. per_call "protocol.encode");
        ("protocol.decode_us", 1e6 *. per_call "protocol.decode");
        ("trace.overhead_ratio", Measure.median traced_lat /. Measure.median untraced_lat);
        ("trace.coverage", coverage);
        ("trace.jobs", float_of_int (List.length timed));
        ("process.rss_mb", rss_mb);
      ];
  }
