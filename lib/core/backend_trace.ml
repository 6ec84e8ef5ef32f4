(* Trace-cache dispatch (Health.Full_tracing with Config.build_traces):
   the complete system of the paper.

   A block dispatched outside any trace first consults the cache by its
   entering transition: a hit is one *trace* dispatch (the hook runs
   once, the trace's interior blocks are inlined), a miss is an ordinary
   profiled block dispatch.  Under self-healing every candidate trace is
   validated before entry; a condemned trace is quarantined and counts
   as a strike against the ladder, and the block falls back to a normal
   dispatch. *)

let name = "trace"

let describe = "trace-cache dispatch over the profiled block stream"

(* [hit] is the lookup's [Some tr], the cache binding's own: following
   the trace stores it as [active] rather than allocating another. *)
let enter (ctx : Backend.ctx) ~hit (tr : Trace.t) g =
  (* executing traces are pinned against eviction and quarantine for the
     duration of the dispatch; finish_completed/finish_partial unpin *)
  Trace_cache.pin ctx.Backend.cache tr;
  let c = ctx.Backend.counts in
  c.Stats.trace_dispatches <- c.Stats.trace_dispatches + 1;
  c.Stats.traces_entered <- c.Stats.traces_entered + 1;
  (match ctx.Backend.osr with
  | Some osr -> Osr.note_entry osr ~trace_id:tr.Trace.id
  | None -> ());
  let chained = ctx.Backend.just_completed in
  if chained then c.Stats.chained_entries <- c.Stats.chained_entries + 1;
  ctx.Backend.just_completed <- false;
  tr.Trace.entered <- tr.Trace.entered + 1;
  Events.emit_trace_entered ctx.Backend.events ~trace_id:tr.Trace.id ~chained;
  (* the single profiling statement of a trace dispatch *)
  Profiler.dispatch ctx.Backend.profiler g;
  Backend.note_executed ctx g;
  Backend.attr_inline ctx g;
  ctx.Backend.matched_blocks <- 1;
  ctx.Backend.matched_instrs <- tr.Trace.instr_len.(0);
  if Trace.n_blocks tr = 1 then begin
    (* degenerate single-block trace: completes immediately *)
    ctx.Backend.active <- None;
    Backend.finish_completed ctx tr
  end
  else begin
    ctx.Backend.active <- hit;
    ctx.Backend.active_pos <- 1
  end

(* OSR mid-loop promotion: a hot header crossed its threshold while we
   were dispatching blocks — build its loop trace immediately, so the
   very next latch->header transition enters it.  Mirrors the engine's
   signal glue (span, counter folding, construction-boundary sweep), but
   fires from the dispatch loop rather than a profiler signal. *)
let promote_loop (ctx : Backend.ctx) (osr : Osr.t) header ~hotness =
  let span =
    match ctx.Backend.spans with
    | Some s ->
        Spans.begin_span s ~kind:Spans.Trace_build
          ~label:(Printf.sprintf "osr promote header %d" header)
          ~now:(Backend.clock ctx)
    | None -> -1
  in
  let outcome, installed =
    Trace_builder.promote ~events:ctx.Backend.events
      ~on_path:(fun n -> Metrics.record ctx.Backend.h_build_len n)
      ctx.Backend.config ctx.Backend.cache
      (Profiler.bcg ctx.Backend.profiler)
      ~header
  in
  Backend.note_build ctx outcome;
  (match installed with
  | Some tr ->
      Osr.note_promotion osr ~trace_id:tr.Trace.id;
      if Events.enabled ctx.Backend.events then
        Events.emit ctx.Backend.events
          (Events.Osr_promoted
             {
               trace_id = tr.Trace.id;
               header;
               latch = tr.Trace.first;
               hotness;
             })
  | None -> ());
  (* trace-construction boundary *)
  if
    outcome.Trace_builder.new_traces > 0
    && Config.debug_checks ctx.Backend.config
  then Backend.run_debug_checks ctx;
  (match ctx.Backend.spans with
  | Some s -> Spans.end_span s span ~now:(Backend.clock ctx)
  | None -> ());
  installed <> None

(* Returns whether a promotion installed a trace, so [step] knows to
   retry its cache lookup. *)
let poll_promote (ctx : Backend.ctx) g =
  match ctx.Backend.osr with
  | None -> false
  | Some osr -> (
      let promote = Config.build_traces ctx.Backend.config in
      match Backend_profile.hot_loop ctx g ~promote with
      | Some hotness -> promote_loop ctx osr g ~hotness
      | None -> false)

let poll_osr (ctx : Backend.ctx) g = ignore (poll_promote ctx g)

(* The dispatch decision, parameterized over the entry action so
   Backend_microir can reuse the whole skeleton (lookup, mid-loop
   promotion retry, dispatch validation, ladder accounting) and change
   only what happens on a hit. *)
let step_with ~enter (ctx : Backend.ctx) g =
  Backend.prologue ctx;
  let self_heal = Config.self_heal ctx.Backend.config in
  let hit =
    Trace_cache.lookup ctx.Backend.cache ~prev:ctx.Backend.prev ~cur:g
  in
  (* hot-loop heat accumulates only on uncovered dispatches: a loop
     already running under trace dispatch has nothing to promote, and a
     loop that loses coverage (eviction, quarantine) starts re-heating
     the moment its header misses again.  When the miss that crossed the
     threshold is itself the latch->header transition, the freshly
     promoted trace is entered by this very dispatch. *)
  let hit =
    match hit with
    | Some _ -> hit
    | None ->
        if poll_promote ctx g then
          Trace_cache.lookup ctx.Backend.cache ~prev:ctx.Backend.prev ~cur:g
        else None
  in
  let condemned =
    match hit with
    | Some tr when self_heal -> (
        match
          Backend.validate_dispatch ctx tr ~prev:ctx.Backend.prev ~cur:g
        with
        | None -> false
        | Some code ->
            (* condemned at dispatch: quarantine the entry and strike
               the ladder, then dispatch the block normally *)
            ignore (Backend.condemn ctx ~first:ctx.Backend.prev ~head:g ~code);
            Backend.apply_health ctx (Health.strike ctx.Backend.health);
            true)
    | _ -> false
  in
  (match hit with
  | Some tr when not condemned -> enter ctx ~hit tr g
  | _ ->
      Backend.block_dispatch ctx g;
      Profiler.dispatch ctx.Backend.profiler g;
      Backend.note_executed ctx g);
  if self_heal && not condemned then
    Backend.apply_health ctx (Health.clean_dispatch ctx.Backend.health)

let step (ctx : Backend.ctx) g = step_with ~enter ctx g

(* A deopt resume is a profiled block dispatch that never consults the
   cache: the engine just abandoned a trace at this block, and
   re-entering one at the deopt transition would defeat the resume. *)
let deopt_resume (ctx : Backend.ctx) g =
  Backend.prologue ctx;
  Backend.block_dispatch ctx g;
  Profiler.dispatch ctx.Backend.profiler g;
  Backend.note_executed ctx g;
  if Config.self_heal ctx.Backend.config then
    Backend.apply_health ctx (Health.clean_dispatch ctx.Backend.health)

let on_block ctx g = Backend.observe ~step ~deopt_resume ctx g
