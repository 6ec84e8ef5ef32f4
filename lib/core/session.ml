module Layout = Cfg.Layout
module Interp = Vm.Interp

(* Multi-workload sessions.

   A session runs several programs "concurrently" by round-robin
   stepping: each member advances a fixed batch of basic blocks, then
   the next member runs, until every program has finished.  Each member
   owns a full engine (its own profiler, ladder, counters and stream)
   but members executing the same layout SHARE one trace cache, so a hot
   trace reconstructed by one member is entered by the others without
   being rebuilt — cross-session reuse, counted by the cache
   (Trace_cache.n_cross_installs / n_cross_entries); every other cache
   decision, by the member making it.

   Before each batch the member announces itself to its cache
   (Trace_cache.set_session), so traces are stamped with their builder
   and reuse across members is attributed correctly.

   Tracing stays a pure overlay: every member's VM result is
   bit-identical to a solo run of the same program. *)

type member = {
  id : int; (* session id, >= 1; stamps traces this member builds *)
  name : string;
  engine : Engine.t;
  handle : Interp.handle;
  mutable wall : float; (* stepping time accumulated so far *)
  mutable finished : Interp.result option;
}

type t = {
  batch : int;
  mutable rev_members : member list;
  mutable next_id : int;
}

let create ?(batch = 1024) () =
  if batch < 1 then invalid_arg "Session.create: batch < 1";
  { batch; rev_members = []; next_id = 1 }

let members t = List.rev t.rev_members

(* The distinct caches in use, in member order. *)
let caches t =
  List.fold_left
    (fun acc m ->
      let c = Engine.cache m.engine in
      if List.exists (fun c' -> c' == c) acc then acc else c :: acc)
    []
    (members t)
  |> List.rev

let add ?name ?config ?events ?max_instructions t (layout : Layout.t) =
  let id = t.next_id in
  t.next_id <- id + 1;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "s%d" id
  in
  (* share the trace cache of the first member already running this
     layout; its creator's config governs capacity and healing *)
  let cache =
    List.find_map
      (fun m ->
        if Engine.layout m.engine == layout then Some (Engine.cache m.engine)
        else None)
      (members t)
  in
  let engine = Engine.create ?config ?events ?cache layout in
  let handle =
    Interp.start ?max_instructions layout ~on_block:(fun g ->
        Engine.on_block engine g)
  in
  (* OSR deopt checks materialize state through the member's own handle *)
  Engine.attach engine handle;
  let m = { id; name; engine; handle; wall = 0.0; finished = None } in
  t.rev_members <- m :: t.rev_members;
  m

let member_name m = m.name

let engine m = m.engine

let vm_result m =
  match m.finished with
  | Some r -> r
  | None -> invalid_arg "Session.vm_result: member still running"

let stats m =
  Engine.stats m.engine ~vm_result:(vm_result m) ~wall_seconds:m.wall

(* Advance one member by up to [batch] blocks, attributing the batch to
   it in its (possibly shared) cache. *)
let step_member t m =
  Trace_cache.set_session (Engine.cache m.engine) m.id;
  let t0 = Unix.gettimeofday () in
  ignore (Interp.step_blocks m.handle t.batch);
  m.wall <- m.wall +. (Unix.gettimeofday () -. t0);
  if not (Interp.running m.handle) then
    m.finished <- Some (Interp.result_of m.handle)

let run t =
  let progressed = ref true in
  while !progressed do
    progressed := false;
    List.iter
      (fun m ->
        if m.finished = None then begin
          step_member t m;
          if m.finished = None then progressed := true
        end)
      (members t)
  done

(* Session-level cross-reuse totals, summed over the distinct caches. *)
let cross_installs t =
  List.fold_left (fun n c -> n + Trace_cache.n_cross_installs c) 0 (caches t)

let cross_entries t =
  List.fold_left (fun n c -> n + Trace_cache.n_cross_entries c) 0 (caches t)
