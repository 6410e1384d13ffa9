(* What one workload run hands back to perfbench.ml, and
   where a run writes its files. *)

type t = {
  attempted : int;  (** operations whose output was checked *)
  failed : int;  (** of those, outputs that did not match the reference *)
  values : (string * float) list;  (** metric name -> value *)
  spans : Spans.span list;  (** traced runs only *)
  notes : string list;  (** diagnostic lines printed before the result *)
}

(* perfbench/_out, created on first use: spans and the daemon's socket. *)
let out_dir () =
  let dir = Filename.concat "perfbench" "_out" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir
