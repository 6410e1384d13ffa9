(* corpus-matrix: seeded Corpus.Gen programs x the 12 Corpus.Matrix cells,
   each cell one Ompgpu_api.compile_buffered call, in process on one
   domain.  Here simulator set-up, the passes and the front end share the
   job time and run_host is a small part, so this is the workload where
   compile-path and Interp.create work shows. *)

module Api = Ompgpu_api
module Matrix = Corpus.Matrix

(* Programs per run and per --seconds: a fixed count per seed, so the same
   seed always measures the same jobs, and enough programs (280 at 40 s)
   that the medians below move little from seed to seed. *)
let programs ~seconds = max 48 (7 * seconds)

(* Timed passes over the programs.  A job's time is its fastest over the
   passes, which run about 20 s apart at 40 s (Measure.fastest says why). *)
let passes = 2

(* At seed 42 the first 48 programs must render the committed ledger. *)
let ledger_seed = 42
let ledger_programs = 48
let ledger_path = Filename.concat "test" "corpus_ledger.expected"

(* The traced run's round: the first programs of the seed x 12 cells. *)
let traced_programs = 16

type input = { prog : Corpus.Gen.prog; srcs : (Corpus.Gen.mode * string) list }

let setup ~seed ~seconds () =
  let root = Int64.of_int seed in
  let inputs =
    Array.init (programs ~seconds) (fun i ->
        let prog = Corpus.Gen.generate (Corpus.Gen.program_stream ~root i) in
        { prog; srcs = List.map (fun m -> (m, Corpus.Gen.render ~mode:m prog)) Corpus.Gen.modes })
  in
  let ledger =
    if seed = ledger_seed then
      Some (In_channel.with_open_text ledger_path In_channel.input_all)
    else None
  in
  (inputs, ledger)

let job_of_cell (input : input) (cell : Matrix.cell) =
  let config = Matrix.config_of_cell cell in
  ( config,
    {
      Layers.file = "corpus.c";
      scheme = cell.scheme;
      src = List.assoc cell.mode input.srcs;
      pipeline = Api.Config.pipeline_of config;
    } )

(* "; kernel cycles: N" and the per-launch "instrs=N" of a simulated job. *)
let sim_counts (c : Api.compiled) =
  let int_after prefix word =
    if String.starts_with ~prefix word then
      let rest = String.sub word (String.length prefix) (String.length word - String.length prefix) in
      match String.split_on_char ' ' (String.trim rest) with
      | d :: _ -> int_of_string_opt d
      | [] -> None
    else None
  in
  List.fold_left
    (fun (cycles, instrs) line ->
      match int_after "; kernel cycles:" line with
      | Some c -> (cycles + c, instrs)
      | None ->
        ( cycles,
          List.fold_left
            (fun acc w -> match int_after "instrs=" w with Some k -> acc + k | None -> acc)
            instrs (String.split_on_char ' ' line) ))
    (0, 0)
    (String.split_on_char '\n' c.output)

(* One finished job of a corpus program: which program and cell, and the
   reply it got. *)
type finished = { index : int; cell : Matrix.cell; compiled : Api.compiled }

(* The deterministic end-to-end counts over finished jobs.  Per-job values
   are medians: corpus programs are heavy-tailed, and a mean would move
   with the one expensive program a seed happens to draw.
   - gen_speedup: the paper's result on the corpus, per program and mode
     the cycles of the LLVM 12 analogue (legacy scheme, no OpenMP
     optimization) over those of the full pipeline under the simplified
     scheme, geometric mean;
   - ir_instrs_out: IR instructions of the module that is simulated (after
     the pipeline, for optimized cells), recompiled here through the front
     end and the pipeline. *)
let counts (inputs : input array) (jobs : finished list) =
  let ok = List.filter (fun j -> j.compiled.Api.exit_code = 0) jobs in
  let cycles = Hashtbl.create 256 in
  List.iter
    (fun j -> Hashtbl.replace cycles (j.index, j.cell) (float_of_int (fst (sim_counts j.compiled))))
    ok;
  let speedups =
    Hashtbl.fold
      (fun (index, (cell : Matrix.cell)) legacy acc ->
        if cell.scheme = Frontend.Codegen.Legacy && cell.pipeline = Matrix.O0 then
          match
            Hashtbl.find_opt cycles
              (index, { cell with scheme = Frontend.Codegen.Simplified; pipeline = Matrix.Full })
          with
          | Some full when full > 0.0 -> (legacy /. full) :: acc
          | _ -> acc
        else acc)
      cycles []
  in
  let ir_size j =
    let _, job = job_of_cell inputs.(j.index) j.cell in
    let m = Frontend.Codegen.compile ~scheme:job.scheme ~file:job.file job.src in
    Option.iter (fun pipeline -> ignore (Openmpopt.Pass_manager.run_pipeline ~pipeline m)) job.pipeline;
    float_of_int (Layers.ir_instrs m)
  in
  let per_ok f = Measure.median (List.map (fun j -> f (sim_counts j.compiled)) ok) in
  [
    ("gen_speedup", Measure.geomean speedups);
    ("ir_instrs_out", Measure.median (Measure.par_map ir_size jobs));
    ("sim_kcycles_per_job", per_ok (fun (c, _) -> float_of_int c /. 1000.0));
    ("sim_kinstrs_per_job", per_ok (fun (_, i) -> float_of_int i /. 1000.0));
  ]

(* A set-up sample after every [setup_every] programs spreads the samples
   over the run, about 48 of them; setup_s is their fastest. *)
let setup_every ~seconds = max 1 (passes * programs ~seconds / 48)

let run_timed ~seed ~seconds (inputs : input array) ledger setup_s =
  let setup_samples = ref [ setup_s ] in
  let lat = ref [] and outs = ref [] and words = ref [] and finished = ref [] in
  let current = ref 0 and pass = ref 0 in
  let backend ~file ~config src =
    let w0 = Measure.minor_words () and t0 = Measure.now () in
    let r = Api.compile_buffered ~config ~file src in
    lat := (Measure.now () -. t0) :: !lat;
    outs := (r.exit_code, r.output) :: !outs;
    if !pass = 0 then begin
      words := (Measure.minor_words () -. w0) :: !words;
      let input = inputs.(!current) in
      List.iter
        (fun (cell : Matrix.cell) ->
          if Matrix.config_of_cell cell = config && String.equal (List.assoc cell.mode input.srcs) src
          then finished := { index = !current; cell; compiled = r } :: !finished)
        Matrix.cells
    end;
    r
  in
  let n = Array.length inputs in
  let run_pass p =
    pass := p;
    lat := [];
    outs := [];
    let results =
      List.init n (fun i ->
          current := i;
          let r = Matrix.run_program ~backend ~index:i inputs.(i).prog in
          if ((p * n) + i + 1) mod setup_every ~seconds = 0 then
            setup_samples := fst (Measure.setup_sample (setup ~seed ~seconds)) :: !setup_samples;
          r)
    in
    (results, List.rev !lat, List.rev !outs)
  in
  let runs = List.init passes run_pass in
  let results = List.concat_map (fun (r, _, _) -> r) runs in
  let _, lat0, outs0 = List.hd runs in
  (* every later pass repeats the first one's replies exactly; a job's time
     is its fastest over the passes *)
  let repeats =
    List.map
      (fun (_, lat, outs) -> List.length lat = List.length lat0 && List.equal ( = ) outs outs0)
      (List.tl runs)
  in
  let lat =
    List.fold_left
      (fun acc (_, l, _) -> if List.length l = List.length acc then List.map2 Float.min acc l else acc)
      lat0 (List.tl runs)
  in
  let failures = List.length (Matrix.failures results) in
  let ledger_ok =
    match ledger with
    | None -> true
    | Some expected ->
      let first = List.filteri (fun i _ -> i < ledger_programs) results in
      Result.is_ok
        (Corpus.Ledger.diff ~expected
           ~actual:(Corpus.Ledger.render ~root:(Int64.of_int seed) first))
  in
  let q, tail = Measure.tail lat in
  {
    Run_result.attempted = (List.length results * List.length Matrix.cells) + 1 + List.length repeats;
    failed =
      (failures + (if ledger_ok then 0 else 1) + List.length (List.filter not repeats));
    spans = [];
    notes =
      [
        Printf.sprintf
          "corpus-matrix: %d passes x %d programs, %d jobs a pass (%d with known results), %d set-up samples, tail = p%.1f%s"
          passes n (List.length lat) (List.length !finished)
          (List.length !setup_samples) (q *. 100.0)
          (match ledger with
          | Some _ -> Printf.sprintf ", ledger %s" (if ledger_ok then "matches" else "DRIFTED")
          | None -> "");
      ];
    values =
      [
        ("setup_s", Measure.fastest !setup_samples);
        (* per program: Matrix.run_program makes one call per cell *)
        ("jobs_per_s", Measure.chunked_rate ~chunk:(List.length Matrix.cells) lat);
        ("lat_p50_ms", 1000.0 *. Measure.median lat);
        ("lat_tail_ms", 1000.0 *. tail);
        ("alloc_mwords_per_job", Measure.median !words /. 1e6);
      ]
      @ counts inputs !finished;
  }

(* Traced: a round is the first [traced_programs] programs x 12 cells; each
   job runs once through compile_buffered (untraced, timed as the api
   layer) and once through the layers with spans, and the two must agree. *)
let run_traced ~seconds (inputs : input array) =
  let spans = Spans.create () in
  let jobs =
    List.concat_map
      (fun i -> List.map (job_of_cell inputs.(i)) Matrix.cells)
      (List.init traced_programs Fun.id)
  in
  let attempted = ref 0 and failed = ref 0 in
  let rounds = ref 0 and api_s = ref 0.0 and key_s = ref [] and round = ref [] in
  let rss = Measure.rss_sampler () in
  let t_start = Measure.now () in
  while !rounds = 0 || Measure.now () -. t_start < float_of_int seconds do
    List.iteri
      (fun i ((config : Api.Config.t), (job : Layers.job)) ->
        let t0 = Measure.now () in
        let c = Api.compile_buffered ~config ~file:job.file job.src in
        let t1 = Measure.now () in
        ignore (Api.cache_key ~file:job.file ~config ~source:job.src);
        key_s := (Measure.now () -. t1) :: !key_s;
        api_s := !api_s +. (t1 -. t0);
        let o = Layers.run ~spans ~req:((!rounds * List.length jobs) + i) job in
        let agree =
          match o.error with
          | None ->
            c.exit_code = 0
            && String.ends_with ~suffix:(Layers.trace_line o.trace_values) c.output
          | Some _ -> c.exit_code <> 0
        in
        incr attempted;
        if not agree then incr failed;
        if !rounds = 0 then round := o :: !round)
      jobs;
    incr rounds
  done;
  let all = Spans.spans spans in
  let coverage_ok, values =
    Inproc_layers.metrics ~rounds:!rounds ~spans:all ~round:(List.rev !round)
      ~untraced_s:!api_s
  in
  {
    Run_result.attempted = !attempted + 1;
    failed = (!failed + if coverage_ok then 0 else 1);
    spans = all;
    notes =
      [ Printf.sprintf "corpus-matrix traced: %d rounds x %d jobs" !rounds (List.length jobs) ];
    values =
      ("api.compile_s", !api_s /. float_of_int (!rounds * List.length jobs))
      :: ("api.cache_key_us", 1e6 *. Measure.mean !key_s)
      :: ("process.rss_mb", rss ())
      :: values;
  }

let run ~seed ~seconds ~traced =
  if traced then run_traced ~seconds (fst (setup ~seed ~seconds ()))
  else
    let setup_s, (inputs, ledger) = Measure.setup_sample (setup ~seed ~seconds) in
    run_timed ~seed ~seconds inputs ledger setup_s
