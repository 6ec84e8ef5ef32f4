module Layout = Cfg.Layout

(* The profiling mechanism (paper §4.1.2).

   The interpreter's hook into the profiler is the *branch context*: the
   BCG node for the last branch taken.  Cached in the context is the
   edge to the block believed most likely to be dispatched next (the
   inline cache).  On each profiled dispatch of block [z]:

   - if the inline cache predicts [z], its edge is taken without
     searching the context's successor list (fast path);
   - otherwise that list is searched once and, if the branch has never
     been seen in this context, a new correlation edge is lazily
     constructed;
   - the new branch context is then loaded through the correlation's
     target pointer and visited, and the edge found above is bumped.
     The list is searched again only when the visit ran a decay pass,
     the one thing that prunes edges.

   A transition the context already knows therefore reaches the next
   node through [e_target] without probing the node table; only a new
   transition falls back to the table.  The context is [Bcg.no_node]
   rather than an option, so a profiled dispatch allocates nothing.

   Trace dispatch executes this hook once per *trace*; the engine calls
   [resync] after a trace ends so the context reflects the trace's last
   branch without the interior blocks having been profiled.  Traces end
   at few blocks, so [resync] first tries its memo of the last node it
   found ending at the trace's final block, and probes the node table
   only on a miss.  The memo is exact because the BCG never removes a
   node, and it is the profiler's own: profilers sharing a trace cache
   never share nodes. *)

type t = {
  bcg : Bcg.t;
  events : Events.t;
  mutable last : Layout.gid; (* previously dispatched block, -1 at start *)
  mutable ctx : Bcg.node; (* node N(last', last); Bcg.no_node = none *)
  mutable dispatches : int; (* profiled dispatches = hook executions *)
  mutable predictions : int; (* inline-cache hits, for overhead modeling *)
  mutable seen_decays : int; (* BCG decay passes already published *)
  mutable skipped : int; (* dispatches not profiled (interp-only health) *)
  exits : Bcg.node array;
    (* resync memo, indexed by [n_y]: the node [resync] last found
       ending at that block, Bcg.no_node before the first *)
}

let create ?(events = Events.create ()) (config : Config.t) ~n_blocks
    ~on_signal =
  (* publish every BCG signal on the stream before the trace machinery
     reacts to it, so the timeline shows cause before effect *)
  let on_signal signal =
    if Events.enabled events then
      Events.emit events
        (Events.Signal_raised
           {
             x = signal.Bcg.s_node.Bcg.n_x;
             y = signal.Bcg.s_node.Bcg.n_y;
             old_state = signal.Bcg.s_old_state;
             new_state = signal.Bcg.s_new_state;
             best_changed = signal.Bcg.s_best_changed;
           });
    on_signal signal
  in
  {
    bcg = Bcg.create config ~n_blocks ~on_signal;
    events;
    last = -1;
    ctx = Bcg.no_node;
    dispatches = 0;
    predictions = 0;
    seen_decays = 0;
    skipped = 0;
    exits = Array.make n_blocks Bcg.no_node;
  }

let bcg t = t.bcg

let dispatches t = t.dispatches

let signals t = t.bcg.Bcg.signals

let predictions t = t.predictions

let skipped t = t.skipped

(* One unprofiled dispatch: the engine is in the interp-only health level
   and bypassed the hook entirely.  The context is stale afterwards, so
   the engine must [reset] before profiling resumes. *)
let note_skipped t = t.skipped <- t.skipped + 1

(* Inline-cache accounting: did [ctx]'s cached best successor predict
   block [z]? *)
let[@inline] count_prediction t (ctx : Bcg.node) z =
  match ctx.Bcg.best with
  | Some b when b.Bcg.e_z = z -> t.predictions <- t.predictions + 1
  | Some _ | None -> ()

(* One profiled dispatch of block [z]. *)
let dispatch t (z : Layout.gid) =
  t.dispatches <- t.dispatches + 1;
  let y = t.last in
  if y >= 0 then begin
    (* the branch (y, z) was just taken: visit its node *)
    let ctx = t.ctx in
    if ctx == Bcg.no_node then t.ctx <- Bcg.visit_node t.bcg ~x:y ~y:z
    else begin
      let bcg = t.bcg in
      let e =
        match ctx.Bcg.best with
        | Some b when b.Bcg.e_z = z -> b
        | Some _ | None -> Bcg.find_edge ctx z
      in
      if e == Bcg.no_edge then begin
        let target = Bcg.visit_node bcg ~x:y ~y:z in
        count_prediction t ctx z;
        Bcg.add_edge bcg ~ctx ~target;
        t.ctx <- target
      end
      else begin
        let target = e.Bcg.e_target in
        let decays = bcg.Bcg.decays in
        Bcg.visit bcg target;
        count_prediction t ctx z;
        (* a decay pass during the visit may have pruned [e] (only when
           [target] is [ctx], a self-loop): then look it up again *)
        if bcg.Bcg.decays = decays then Bcg.bump_edge ctx e
        else Bcg.record_successor bcg ~ctx ~target;
        t.ctx <- target
      end
    end
  end;
  t.last <- z;
  (* decay runs lazily inside node visits; publish passes that happened
     during this dispatch *)
  let d = t.bcg.Bcg.decays in
  if d <> t.seen_decays && Events.enabled t.events then begin
    t.seen_decays <- d;
    Events.emit_decay_pass t.events ~decays:d
  end

(* Re-establish the branch context after unprofiled (in-trace) execution:
   the last two dispatched blocks were [x] then [y].  The context node is
   looked up but not counted — the trace's interior was executed without
   profiling hooks.  The memo answers when it holds N(x, y); otherwise
   the node table does, and a node it finds replaces the memo's. *)
let resync t ~(x : Layout.gid) ~(y : Layout.gid) =
  t.last <- y;
  t.ctx <-
    (if x < 0 then Bcg.no_node
     else if y < 0 || y >= Array.length t.exits then Bcg.find_node t.bcg ~x ~y
     else
       let memo = t.exits.(y) in
       if memo.Bcg.n_x = x then memo
       else begin
         let n = Bcg.find_node t.bcg ~x ~y in
         if n != Bcg.no_node then t.exits.(y) <- n;
         n
       end)

let reset t =
  t.last <- -1;
  t.ctx <- Bcg.no_node
