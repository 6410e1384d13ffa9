(* Clocks, sample statistics and host probes shared by the workloads, and
   the seeded shuffle they draw orders from. *)

let now = Unix.gettimeofday
let minor_words () = Gc.minor_words ()

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, as Python's
   statistics.quantiles(method="inclusive") computes it. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile_sorted (sorted xs) 0.5

(* The highest percentile, at most p99, that leaves at least ten samples
   beyond it: a tail read off fewer samples than that is noise. *)
let tail_q n = Float.min 0.99 (1.0 -. (10.0 /. float_of_int (max n 20)))

let tail xs =
  let a = sorted xs in
  (tail_q (Array.length a), quantile_sorted a (tail_q (Array.length a)))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs = exp (mean (List.map log xs))

(* Throughput as the median over consecutive chunks of [chunk] samples of
   chunk size over chunk busy time: one slow host phase spoils a few
   chunks, not the figure. *)
let chunked_rate ~chunk latencies_s =
  let rec go acc n sum = function
    | [] -> acc
    | x :: rest ->
      let n = n + 1 and sum = sum +. x in
      if n = chunk then go ((float_of_int n /. sum) :: acc) 0 0.0 rest
      else go acc n sum rest
  in
  median (go [] 0 0.0 latencies_s)

(* Resident set size of this process, in MB; nan where /proc is absent. *)
let rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> nan
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmRSS"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> (
            match float_of_string_opt kb with Some k -> k /. 1024.0 | None -> acc)
          | [] -> acc)
        | _ -> acc)
      nan
      (String.split_on_char '\n' status)

(* Sample the resident set every 100 ms from a thread until the returned
   function is called; that returns the median sample.  A median of many
   samples, not the high-water mark: the peak is one extreme, set by when
   the major collector happened to run. *)
let rss_sampler () =
  let stop = Atomic.make false and samples = ref [ rss_mb () ] in
  let t =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          Thread.delay 0.1;
          samples := rss_mb () :: !samples
        done)
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join t;
    median !samples

(* A fixed pure-OCaml loop.  Its time is printed beside each run so a slow
   host phase is visible in the output; no metric is scaled by it. *)
let calibration_ms () =
  let t0 = now () in
  let x = ref 0x9E3779B9 and acc = ref 0.0 in
  for i = 1 to 20_000_000 do
    x := (!x * 1103515245) + 12345;
    acc := !acc +. float_of_int (!x land 0xff) *. 1e-3 +. float_of_int i *. 1e-9
  done;
  ignore (Sys.opaque_identity !acc);
  (now () -. t0) *. 1000.0

(* One set-up sample: the wall time per repetition of as many back-to-back
   runs of [f] as fill 50 ms (at least one), from a collected heap and
   leaving one behind; returns it with the last result.  One set-up of
   microseconds or a few milliseconds is mostly timer noise; a timed span
   of 50 ms is not. *)
let setup_sample f =
  let min_s = 0.05 and last = ref None in
  Gc.full_major ();
  let reps = ref 0 and t0 = now () in
  while !reps = 0 || now () -. t0 < min_s do
    last := Some (f ());
    incr reps
  done;
  let dt = (now () -. t0) /. float_of_int !reps in
  Gc.full_major ();
  (dt, Option.get !last)

(* The fastest of repeated timings of the same work.  On a shared 2-vCPU
   host, memory-heavy code ran at two speeds about 1.8x apart that
   alternated over seconds to tens of seconds, while a pure arithmetic
   loop kept one speed.  A median of repeats taken seconds apart follows
   the share of the run spent at each speed; the fastest repeat does not
   (NOTES.md, "Why the host-time figures move"). *)
let fastest xs = List.fold_left Float.min infinity xs

(* [f] over [xs] on two domains (this one and one spawned), in order.  Used
   only for the untimed reference work after a timed phase. *)
let par_map f xs =
  let a = Array.of_list xs in
  let out = Array.make (Array.length a) None in
  let half start = Array.iteri (fun i x -> if i mod 2 = start then out.(i) <- Some (f x)) a in
  let d = Domain.spawn (fun () -> half 1) in
  half 0;
  Domain.join d;
  Array.to_list (Array.map Option.get out)

(* Fisher-Yates over [a], in place, drawing from [rng]. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Corpus.Splitmix.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done
