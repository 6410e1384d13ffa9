(* Per-layer metrics of a traced in-process run (fig10-bench and
   corpus-matrix).  The traced run repeats a fixed round of jobs.  Every
   value is per job: times are averaged over all traced jobs, counts are
   taken from the first round (they repeat exactly) and divided by its job
   count. *)

let pass_names =
  [
    "internalize";
    "fold-early";
    "deglobalize";
    "spmdize";
    "state-machine";
    "fold-late";
    "dedup";
    "dead-regions";
    "simplify";
  ]

(* The share of traced job time the layer spans must account for. *)
let coverage_tolerance = 0.05

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs

(* Span self-time coverage: the layers' self time over the root spans'
   time.  The rest is the benchmark's own bookkeeping between spans. *)
let coverage spans =
  let roots, layers =
    List.partition (fun ((s : Spans.span), _) -> s.parent < 0) (Spans.self_times spans)
  in
  sum (fun (_, self) -> self) layers /. sum (fun (s, _) -> Spans.duration s) roots

let metrics ~rounds ~spans ~(round : Layers.outcome list) ~untraced_s =
  let jobs = float_of_int (List.length round) in
  let traced_jobs = float_of_int rounds *. jobs in
  let self = Spans.self_by_name spans in
  let per_job name = self name /. traced_jobs in
  let calls name = float_of_int (Spans.count_named spans name) /. traced_jobs in
  let per_round_job f = sum f round /. jobs in
  let traced_s =
    sum Spans.duration (List.filter (fun (s : Spans.span) -> s.parent < 0) spans)
  in
  let events = List.concat_map (fun (o : Layers.outcome) -> o.events) round in
  let pass_events p =
    List.filter (fun (e : Observe.Trace.event) -> String.equal e.pass p) events
  in
  let applied p =
    sum
      (fun (e : Observe.Trace.event) ->
        sum
          (fun (k, v) -> if String.equal k "remarks" then 0.0 else float_of_int v)
          e.counters)
      (pass_events p)
    /. jobs
  in
  let ir_delta p =
    sum (fun (e : Observe.Trace.event) -> float_of_int e.delta.instrs) (pass_events p)
    /. jobs
  in
  let sim_instrs = per_round_job (fun o -> float_of_int o.Layers.sim_instrs) in
  let coverage = coverage spans in
  ( coverage >= 1.0 -. coverage_tolerance,
    [
      ("frontend.self_s", per_job "frontend");
      ("frontend.calls", calls "frontend");
      ("frontend.ir_instrs", per_round_job (fun o -> float_of_int o.Layers.ir_instrs_in));
      ("verify.self_s", per_job "verify");
      ("verify.calls", calls "verify");
      ("optimize.self_s", per_job "optimize");
      ( "optimize.ir_instrs_out",
        per_round_job (fun o ->
            if o.Layers.report = None then 0.0 else float_of_int o.Layers.ir_instrs_out) );
    ]
    @ List.concat_map
        (fun p ->
          [
            ("pass." ^ p ^ ".self_s", per_job ("pass." ^ p));
            ("pass." ^ p ^ ".applied", applied p);
            ("pass." ^ p ^ ".ir_delta", ir_delta p);
          ])
        pass_names
    @ [
        ("sim.create_s", per_job "sim.create");
        ("sim.run_s", per_job "sim.run");
        ("sim.instrs", sim_instrs);
        ("sim.kcycles", per_round_job (fun o -> float_of_int o.Layers.cycles /. 1000.0));
        ("sim.alloc_mwords", per_round_job (fun o -> o.Layers.sim_words /. 1e6));
        ( "sim.failures",
          per_round_job (fun o ->
              match o.Layers.error with
              | Some e when String.starts_with ~prefix:"sim:" e -> 1.0
              | _ -> 0.0) );
        ("sim.minstr_per_s", sim_instrs /. per_job "sim.run" /. 1e6);
        ("trace.overhead_ratio", traced_s /. untraced_s);
        ("trace.coverage", coverage);
        ("trace.jobs", jobs);
      ] )
