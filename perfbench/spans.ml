(* In-memory span recorder for the traced run.

   A span is one timed call into a layer: its name, start and end on the
   monotonic clock, and the span that was open when it started.  Spans
   are kept in memory while the benchmark runs and written out once at
   exit.  Everything runs on one thread, so the children of a span never
   overlap and their coverage of the parent is the sum of their
   durations.

   A sampled span stands for [weight] calls of which only this one was
   timed (per-dispatch calls are too short and too many to time each);
   it covers [weight] times its own duration of its parent. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [0] for a root span *)
  start_ns : int;
  stop_ns : int;
  weight : int;
}

type t = {
  clock : unit -> int;
  mutable next_id : int;
  mutable open_ : (int * string * int) list;  (** id, name, start *)
  mutable closed : span list;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let create ?(clock = now_ns) () =
  { clock; next_id = 1; open_ = []; closed = [] }

let current t = match t.open_ with (id, _, _) :: _ -> id | [] -> 0

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t ?(weight = 1) ~name ~start_ns ~stop_ns () =
  let s =
    { id = fresh_id t; name; parent = current t; start_ns; stop_ns; weight }
  in
  t.closed <- s :: t.closed

let with_ t name f =
  let id = fresh_id t in
  let parent = current t in
  let start_ns = t.clock () in
  t.open_ <- (id, name, start_ns) :: t.open_;
  let close () =
    let stop_ns = t.clock () in
    t.open_ <- List.tl t.open_;
    t.closed <- { id; name; parent; start_ns; stop_ns; weight = 1 } :: t.closed
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let spans t = List.rev t.closed

let duration s = s.stop_ns - s.start_ns

(* Self time of every span: its duration minus the part its children
   cover, never below zero. *)
let self_times spans =
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        let c = try Hashtbl.find covered s.parent with Not_found -> 0 in
        Hashtbl.replace covered s.parent (c + (s.weight * duration s)))
    spans;
  List.map
    (fun s ->
      let c = try Hashtbl.find covered s.id with Not_found -> 0 in
      (s, max 0 (duration s - c)))
    spans

type total = { count : int; dur_ns : int; self_ns : int }

(* Per-name totals: [totals spans name] is the number of spans named
   [name], their summed duration and their summed self time. *)
let totals spans =
  let tbl = Hashtbl.create 32 in
  let zero = { count = 0; dur_ns = 0; self_ns = 0 } in
  List.iter
    (fun (s, self) ->
      let t = try Hashtbl.find tbl s.name with Not_found -> zero in
      Hashtbl.replace tbl s.name
        {
          count = t.count + 1;
          dur_ns = t.dur_ns + duration s;
          self_ns = t.self_ns + self;
        })
    (self_times spans);
  fun name -> try Hashtbl.find tbl name with Not_found -> zero

let write_jsonl path spans =
  let oc = open_out path in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\"weight\":%d,\"self_ns\":%d}\n"
        s.id s.name s.parent s.start_ns s.stop_ns s.weight self)
    (self_times spans);
  close_out oc
