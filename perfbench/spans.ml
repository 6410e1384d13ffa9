(* In-memory spans around the calls the benchmark makes into each layer.
   A span has a name, a start, an end, the span that caused it and the
   request it belongs to.  Recording is off when the recorder is [None]:
   the timed runs call the layers exactly as the traced run does, minus
   the bookkeeping. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  req : int;
  start : float;
  mutable stop : float;
}

type t = { mutable spans : span list; mutable next : int; lock : Mutex.t }

let create () = { spans = []; next = 0; lock = Mutex.create () }

let add t ~parent ~req ~name ~start ~stop =
  Mutex.lock t.lock;
  let s = { id = t.next; name; parent; req; start; stop } in
  t.next <- t.next + 1;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock;
  s

(* [with_ r ~parent ~req name f] runs [f id], where [id] is the new span's
   id (the parent of spans [f] opens). *)
let with_ r ?(parent = -1) ~req name f =
  match r with
  | None -> f (-1)
  | Some t ->
    let s = add t ~parent ~req ~name ~start:(Measure.now ()) ~stop:nan in
    Fun.protect ~finally:(fun () -> s.stop <- Measure.now ()) (fun () -> f s.id)

let spans t = List.rev t.spans

(* The same spans with every id and parent moved up by [k], so that two
   recorders' spans can share one list. *)
let shift k spans =
  List.map
    (fun s -> { s with id = s.id + k; parent = (if s.parent < 0 then s.parent else s.parent + k) })
    spans
let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with Some (a, b) -> total +. (b -. a) | None -> total

(* Self time of every span: its duration minus the part of its interval
   that its children cover. *)
let self_times spans =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent (s.start, s.stop))
    spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Total self seconds per span name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value (Hashtbl.find_opt tbl s.name) ~default:0.0 in
      Hashtbl.replace tbl s.name (prev +. self))
    (self_times spans);
  fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:0.0

let count_named spans name =
  List.length (List.filter (fun s -> String.equal s.name name) spans)

let to_json spans =
  Observe.Json.List
    (List.map
       (fun s ->
         Observe.Json.Obj
           [
             ("id", Observe.Json.Int s.id);
             ("name", Observe.Json.String s.name);
             ("parent", Observe.Json.Int s.parent);
             ("req", Observe.Json.Int s.req);
             ("start", Observe.Json.Float s.start);
             ("stop", Observe.Json.Float s.stop);
           ])
       spans)
