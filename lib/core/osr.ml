module Layout = Cfg.Layout

(* On-stack replacement (ROADMAP item 4): the machinery that lets the
   engine switch between block dispatch and trace dispatch *inside* a
   trace or a loop iteration, instead of only at trace boundaries.

   Two directions:

   - Deoptimization (trace -> blocks).  When a guard fails at position k
     of a trace — or the invariant sweep condemns the trace being
     executed — the engine abandons the residue and resumes block
     dispatch at the failing block.  Because trace dispatch is a pure
     observational overlay, "reconstructing interpreter state" is a
     proof obligation rather than a transformation: the interpreter is
     already exactly where pure block dispatch would be, and [deopt]
     checks it (TL219) by materializing the live continuation
     ([Vm.Interp.materialize]) and comparing its innermost block against
     the block dispatch resumes at.

   - Promotion (blocks -> trace).  Hot-loop detection counts
     outside-trace dispatches of natural-loop headers ([Analysis.Loops]
     over every method CFG); when a header crosses [promote_after], the
     currently executing loop is promoted into a freshly built trace
     mid-iteration ([Trace_builder.promote]), keyed by its back edge —
     so it is entered at the header on the very next latch->header
     transition.

   This module holds the detection tables, the materialization hook and
   the armed-promotion id.  The dispatch-loop integration (deopt and
   promotion) lives in [Engine], which also keeps the OSR counters. *)

type reason = Guard_failure | Guard_flip | Condemned

let reason_to_string = function
  | Guard_failure -> "guard-failure"
  | Guard_flip -> "guard-flip"
  | Condemned -> "condemned"

type t = {
  promote_after : int;
  is_header : bool array; (* gid -> natural-loop header? *)
  header_hits : int array; (* gid -> outside-trace dispatches since reset *)
  mutable materialize_fn : unit -> Vm.Interp.materialized option;
      (* set by whoever owns the interpreter handle (Engine.drive /
         Session.add); stays [fun () -> None] for observer-only drivers,
         which skip the state check *)
  mutable armed_trace : int;
      (* trace id of the latest promotion, awaiting its first entry;
         -1 = none *)
}

let create ~promote_after (layout : Layout.t) =
  if promote_after < 1 then invalid_arg "Osr.create: promote_after < 1";
  let n = layout.Layout.n_blocks in
  let is_header = Array.make n false in
  Array.iteri
    (fun mid cfg ->
      let loops = Analysis.Loops.compute cfg in
      Array.iter
        (fun (l : Analysis.Loops.loop) ->
          let g =
            Layout.gid layout ~method_id:mid
              ~block_index:l.Analysis.Loops.header
          in
          is_header.(g) <- true)
        loops.Analysis.Loops.loops)
    layout.Layout.cfgs;
  {
    promote_after;
    is_header;
    header_hits = Array.make n 0;
    materialize_fn = (fun () -> None);
    armed_trace = -1;
  }

let set_materialize t f = t.materialize_fn <- f

let materialized t = t.materialize_fn ()

let is_header t g = g >= 0 && g < Array.length t.is_header && t.is_header.(g)

(* One outside-trace dispatch of [g].  Returns the crossing hotness when
   the promotion threshold is reached and [promote] allows acting on it;
   with [promote = false] (a profiling-only backend, or trace building
   disabled) the counter saturates at the threshold instead, so the heat
   survives until a trace-building backend can act. *)
let observe_header t g ~promote =
  if not (is_header t g) then None
  else begin
    let h = t.header_hits.(g) + 1 in
    if h >= t.promote_after then
      if promote then begin
        t.header_hits.(g) <- 0;
        Some h
      end
      else begin
        t.header_hits.(g) <- t.promote_after;
        None
      end
    else begin
      t.header_hits.(g) <- h;
      None
    end
  end

let arm t ~trace_id = t.armed_trace <- trace_id

let take_armed t ~trace_id =
  if trace_id = t.armed_trace then begin
    t.armed_trace <- -1;
    true
  end
  else false
