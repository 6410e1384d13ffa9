(* The repository benchmark: one process runs one workload and prints,
   as its last line, {"correct", "attempted", "failed", "metrics"}.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   Workloads: fig10-bench and corpus-matrix (NOTES.md says why each
   exists).  --trace 0 measures the end-to-end metrics with no
   tracing; --trace 1 runs the traced variant and reports the per-layer
   metrics instead, and writes its spans under perfbench/_out/. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ok_ratio", "ratio");
    ("jobs_per_s", "1/s");
    ("lat_p50_ms", "ms");
    ("lat_tail_ms", "ms");
    ("gen_speedup", "x");
    ("ir_instrs_out", "count");
    ("sim_kcycles_per_job", "kcycles");
    ("sim_kinstrs_per_job", "kinstr");
    ("alloc_mwords_per_job", "Mwords");
  ]

let per_layer =
  [
    ("frontend.self_s", "s");
    ("frontend.calls", "count");
    ("frontend.ir_instrs", "count");
    ("verify.self_s", "s");
    ("verify.calls", "count");
    ("optimize.self_s", "s");
    ("optimize.ir_instrs_out", "count");
  ]
  @ List.concat_map
      (fun p ->
        [
          ("pass." ^ p ^ ".self_s", "s");
          ("pass." ^ p ^ ".applied", "count");
          ("pass." ^ p ^ ".ir_delta", "count");
        ])
      Inproc_layers.pass_names
  @ [
      ("sim.create_s", "s");
      ("sim.run_s", "s");
      ("sim.instrs", "count");
      ("sim.kcycles", "kcycles");
      ("sim.alloc_mwords", "Mwords");
      ("sim.failures", "count");
      ("sim.minstr_per_s", "Minstr/s");
      ("api.compile_s", "s");
      ("api.cache_key_us", "us");
      ("cache.hits", "count");
      ("cache.misses", "count");
      ("cache.hit_ratio", "ratio");
      ("pool.stolen", "count");
      ("pool.max_pending", "count");
      ("service.compiles", "count");
      ("service.duplicate_compiles", "count");
      ("service.cold_ms", "ms");
      ("service.overhead_ms", "ms");
      ("service.queue_ms", "ms");
      ("service.shed", "count");
      ("client.retries", "count");
      ("client.reconnects", "count");
      ("protocol.encode_us", "us");
      ("protocol.decode_us", "us");
      ("trace.overhead_ratio", "ratio");
      ("trace.coverage", "ratio");
      ("trace.jobs", "count");
      ("process.rss_mb", "MB");
    ]

(* The service layers (protocol, cache, pool, sessions) appear on no
   in-process workload, so the traced corpus-matrix run ends with a traced
   daemon phase of a quarter of its length and takes those layers'
   metrics from it. *)
let service_layer name =
  List.exists
    (fun p -> String.starts_with ~prefix:p name)
    [ "cache."; "pool."; "service."; "client."; "protocol." ]

let corpus_matrix ~seed ~seconds ~traced =
  let r = Corpus_matrix.run ~seed ~seconds ~traced in
  if not traced then r
  else
    let d = Daemon_phase.traced_phase ~seed ~seconds:(max 4 (seconds / 4)) in
    {
      Run_result.attempted = r.attempted + d.attempted;
      failed = r.failed + d.failed;
      spans =
        r.spans
        @ Spans.shift (List.fold_left (fun acc (s : Spans.span) -> max acc (s.id + 1)) 0 r.spans) d.spans;
      notes = r.notes @ d.notes;
      values = r.values @ List.filter (fun (name, _) -> service_layer name) d.values;
    }

let workloads = [ ("fig10-bench", Fig10.run); ("corpus-matrix", corpus_matrix) ]

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let parse () =
  let workload = ref None and seed = ref 42 and seconds = ref 10 and trace = ref 0 in
  let int name v =
    match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer" name
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      if not (List.mem_assoc v workloads) then die "unknown workload %S" v;
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := int "--seed" v;
      go rest
    | "--seconds" :: v :: rest ->
      seconds := int "--seconds" v;
      if !seconds < 1 then die "--seconds must be positive";
      go rest
    | "--trace" :: v :: rest ->
      trace := int "--trace" v;
      if !trace <> 0 && !trace <> 1 then die "--trace expects 0 or 1";
      go rest
    | a :: _ -> die "unknown argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> die "--workload is required (%s)" (String.concat ", " (List.map fst workloads))
  | Some w -> (w, !seed, !seconds, !trace = 1)

let write_spans ~workload ~seed spans =
  let path =
    Filename.concat (Run_result.out_dir ()) (Printf.sprintf "spans-%s-%d.json" workload seed)
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Observe.Json.to_string (Spans.to_json spans));
      Out_channel.output_char oc '\n');
  path

let () =
  if not Sys.win32 then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload, seed, seconds, traced = parse () in
  let calib_before = Measure.calibration_ms () in
  let r = (List.assoc workload workloads) ~seed ~seconds ~traced in
  let calib_after = Measure.calibration_ms () in
  Printf.printf "host: nproc=%d ocaml=%s calibration_ms=%.1f/%.1f (before/after; diagnostic only)\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version calib_before calib_after;
  List.iter print_endline r.Run_result.notes;
  if traced then
    Printf.printf "spans: %d written to %s\n" (List.length r.spans)
      (write_spans ~workload ~seed r.spans);
  let ok_ratio =
    float_of_int (r.attempted - r.failed) /. float_of_int (max 1 r.attempted)
  in
  let values = ("ok_ratio", ok_ratio) :: r.values in
  let metric (name, unit) =
    let v =
      match List.assoc_opt name values with
      | Some v -> v
      | None when traced -> 0.0 (* a layer this workload does not reach *)
      | None -> die "internal: %s did not measure %s" workload name
    in
    if not (Float.is_finite v) then die "internal: %s is %f" name v;
    (name, Observe.Json.Obj [ ("value", Observe.Json.Float v); ("unit", Observe.Json.String unit) ])
  in
  let metrics = List.map metric (if traced then per_layer else end_to_end) in
  print_endline
    (Observe.Json.to_string ~minify:true
       (Observe.Json.Obj
          [
            ("correct", Observe.Json.Bool (r.failed = 0 && r.attempted > 0));
            ("attempted", Observe.Json.Int r.attempted);
            ("failed", Observe.Json.Int r.failed);
            ("metrics", Observe.Json.Obj metrics);
          ]))
