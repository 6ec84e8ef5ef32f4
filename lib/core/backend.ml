module Layout = Cfg.Layout

(* The dispatch function.

   A backend is one way of processing the VM's block-dispatch stream:
   pure interpretation (Interp), BCG-profiled block dispatch (Profile),
   or trace-cache dispatch (Trace).  The engine owns one [ctx] — the
   state every strategy shares — and picks the [kind] per dispatch from
   the health ladder, so degradation is a backend *switch* rather than
   mode flags inside one loop.

   Everything lives here: the dispatch prologue (phase snapshots, fault
   injection), trace construction (profiler signals and OSR promotion),
   trace entry (with the compiled tier when Config.tier_enabled is on),
   active-trace following, trace completion/side-exit bookkeeping,
   health-ladder transitions and the invariant sweep.  The strategies
   differ only in [step] and [deopt_resume], each one [match] on the
   kind. *)

type ctx = {
  config : Config.t;
  layout : Layout.t;
  profiler : Profiler.t;
  cache : Trace_cache.t;
  events : Events.t;
  ledger : Ledger.t; (* fed by the event tap the engine installs *)
  health : Health.t;
  faults : Faults.t;
  osr : Osr.t option; (* None = on-stack replacement off *)
  (* deep observability (Config.obs_* + engine histograms) *)
  flightrec : Flightrec.t option;
    (* the always-on black box (None only when
       Config.flightrec_capacity = 0); dump triggers fire here and
       in the engine, the intake is wired through the event tap *)
  attr_self : int array;
    (* per-gid dispatches outside traces; [||] = attribution off *)
  attr_inlined : int array; (* per-gid executions inlined inside traces *)
  h_trace_len : Metrics.histogram; (* blocks per executed (completed) trace *)
  h_exit_distance : Metrics.histogram; (* blocks matched before a side exit *)
  h_build_len : Metrics.histogram; (* blocks per installed builder path *)
  h_backoff : Metrics.histogram; (* finite quarantine backoff durations *)
  h_deopt_residue : Metrics.histogram;
    (* trace positions abandoned past each deopt point (OSR) *)
  counts : Stats.t;
    (* the counters the dispatch loop advances, in place; Engine fills
       in the ones other modules own when it copies them out *)
  (* trace execution state *)
  mutable active : Trace.t option;
  mutable active_lowered : Microir.body option;
    (* the active trace's compiled body when it was entered on the
       compiled tier (Config.tier_enabled); positions followed while
       this is set are accounted as micro-op dispatches instead of
       source instructions.  Cleared with [active]. *)
  mutable active_pos : int; (* index of the next expected block *)
  mutable matched_blocks : int;
  mutable matched_instrs : int;
  (* last two blocks actually executed, traces included *)
  mutable prev : Layout.gid;
  mutable prev2 : Layout.gid;
  mutable just_completed : bool;
    (* the previous dispatch completed a trace: an entry now chains *)
  mutable seen_decays : int; (* decay boundary detector, like Profiler's *)
  mutable in_debug_sweep : bool;
    (* re-entrancy guard: healing a node rechecks it, which can signal
       the builder, whose construction boundary would sweep again *)
}

type kind = Interp | Profile | Trace

let describe = function
  | Interp -> ("interp", "pure interpretation: no profiling, no traces")
  | Profile ->
      ("profile", "block dispatch with BCG profiling; traces never entered")
  | Trace -> ("trace", "trace-cache dispatch over the profiled block stream")

(* The engine's dispatch clock: the cache clock and the event stream's
   timestamp base alike. *)
let clock ctx =
  ctx.counts.Stats.block_dispatches + ctx.counts.Stats.trace_dispatches

let note_violation ctx =
  ctx.counts.Stats.invariant_violations <-
    ctx.counts.Stats.invariant_violations + 1

let fr_trigger ctx reason =
  match ctx.flightrec with
  | Some fr -> Flightrec.trigger fr reason
  | None -> ()

(* Attribution bumps; the arrays are [||] when Config.obs_attribution is
   off, so the disabled path is one length test. *)
let attr_step ctx g =
  if Array.length ctx.attr_self > 0 then
    ctx.attr_self.(g) <- ctx.attr_self.(g) + 1

let attr_inline ctx g =
  if Array.length ctx.attr_inlined > 0 then
    ctx.attr_inlined.(g) <- ctx.attr_inlined.(g) + 1

(* One ordinary block dispatch outside any trace: count and attribute
   it.  The caller runs (or skips) the profiler hook. *)
let block_dispatch ctx g =
  ctx.counts.Stats.block_dispatches <- ctx.counts.Stats.block_dispatches + 1;
  ctx.just_completed <- false;
  attr_step ctx g

(* Compiled-tier accounting for one followed trace position: what the
   micro-IR dispatch loop would have dispatched there versus the source
   instructions trace dispatch runs.  One length test when the active
   trace is on the interpreted tier. *)
let account_lowered ctx pos =
  match ctx.active_lowered with
  | None -> ()
  | Some b ->
      let c = ctx.counts in
      c.Stats.mi_positions <- c.Stats.mi_positions + 1;
      c.Stats.mi_ops <- c.Stats.mi_ops + b.Microir.pos_ops.(pos);
      c.Stats.mi_fused <- c.Stats.mi_fused + b.Microir.pos_fused.(pos);
      c.Stats.mi_src_instrs <- c.Stats.mi_src_instrs + b.Microir.pos_src.(pos)

(* Quarantine an entry transition and record the episode's backoff
   duration (finite backoffs only — a permanent blacklist has no
   duration).  The episode's end is the [until] field of its
   [Trace_quarantined] event. *)
let condemn ctx ~first ~head ~code =
  let removed = Trace_cache.quarantine ctx.cache ~first ~head ~code in
  (match Trace_cache.quarantine_until ctx.cache ~first ~head with
  | Some until when until <> max_int ->
      Metrics.record ctx.h_backoff (until - clock ctx)
  | Some _ | None -> ());
  removed

(* Walk the health ladder: publish the transition and, when climbing out
   of interp-only, drop the profiler's stale branch context (the skipped
   dispatches never updated it). *)
let apply_health ctx (transition : Health.transition) =
  match transition with
  | Health.Stay -> ()
  | Health.Changed (from_level, to_level) ->
      if Events.enabled ctx.events then
        if Health.level_rank to_level > Health.level_rank from_level then
          Events.emit ctx.events (Events.Mode_degraded { from_level; to_level })
        else
          Events.emit ctx.events
            (Events.Mode_recovered { from_level; to_level });
      (* hitting the bottom of the ladder is a postmortem moment: tracing
         is fully disabled, so capture how the engine got here *)
      if
        Health.level_rank to_level > Health.level_rank from_level
        && to_level = Health.Interp_only
      then fr_trigger ctx Flightrec.Degraded;
      if from_level = Health.Interp_only then Profiler.reset ctx.profiler

(* End the active trace after a completion. *)
let finish_completed ctx (tr : Trace.t) =
  ctx.just_completed <- true;
  tr.Trace.completed <- tr.Trace.completed + 1;
  Metrics.record ctx.h_trace_len (Trace.n_blocks tr);
  let c = ctx.counts in
  c.Stats.traces_completed <- c.Stats.traces_completed + 1;
  c.Stats.completed_blocks <- c.Stats.completed_blocks + Trace.n_blocks tr;
  c.Stats.completed_instrs <- c.Stats.completed_instrs + tr.Trace.total_instrs;
  ctx.active <- None;
  ctx.active_lowered <- None;
  Trace_cache.unpin ctx.cache tr;
  Events.emit_trace_completed ctx.events ~trace_id:tr.Trace.id
    ~n_blocks:(Trace.n_blocks tr) ~n_instrs:tr.Trace.total_instrs;
  (* the profiler missed the trace interior: reposition its context at the
     trace's final branch *)
  Profiler.resync ctx.profiler ~x:ctx.prev2 ~y:ctx.prev

(* End the active trace after a side exit; the mismatching block has not
   been processed yet. *)
let finish_partial ctx (tr : Trace.t) =
  ctx.just_completed <- false;
  tr.Trace.partial_exits <- tr.Trace.partial_exits + 1;
  tr.Trace.partial_instrs <- tr.Trace.partial_instrs + ctx.matched_instrs;
  Metrics.record ctx.h_exit_distance ctx.matched_blocks;
  let c = ctx.counts in
  c.Stats.partial_blocks <- c.Stats.partial_blocks + ctx.matched_blocks;
  c.Stats.partial_instrs <- c.Stats.partial_instrs + ctx.matched_instrs;
  ctx.active <- None;
  ctx.active_lowered <- None;
  Trace_cache.unpin ctx.cache tr;
  Events.emit_side_exit ctx.events ~trace_id:tr.Trace.id
    ~at_block:ctx.active_pos ~matched_blocks:ctx.matched_blocks
    ~matched_instrs:ctx.matched_instrs;
  Profiler.resync ctx.profiler ~x:ctx.prev2 ~y:ctx.prev

(* OSR deoptimization: abandon the active trace at the current position
   and resume block dispatch at [resume].  A deopt *is* a side exit plus
   a state-equivalence proof: [finish_partial] does the exit bookkeeping
   (side-exit event, profiler resync, unpin), and the proof obligation —
   the materialized interpreter continuation already sits at the block
   dispatch resumes at, because the overlay never moved it — is checked
   against the live handle (TL219 on mismatch). *)
let deopt ctx (osr : Osr.t) (tr : Trace.t) ~resume ~(reason : Osr.reason) =
  let at = ctx.active_pos in
  let residue = Trace.n_blocks tr - at in
  (match Osr.materialized osr with
  | Some m ->
      Osr.note_state_check osr;
      let ok =
        match m.Vm.Interp.m_block with
        | Some b -> b = resume
        | None -> resume < 0
      in
      if not ok then begin
        Osr.note_state_mismatch osr;
        if Config.debug_checks ctx.config then begin
          note_violation ctx;
          if Events.enabled ctx.events then
            Events.emit ctx.events
              (Events.Invariant_violation
                 {
                   code = "TL219";
                   severity = "error";
                   message =
                     Printf.sprintf
                       "trace %d: deopt at position %d resumes at block %d \
                        but the interpreter materialized at %s"
                       tr.Trace.id at resume
                       (match m.Vm.Interp.m_block with
                       | Some b -> string_of_int b
                       | None -> "<stopped>");
                 });
          fr_trigger ctx Flightrec.Invariant
        end
      end
  | None -> ());
  finish_partial ctx tr;
  Metrics.record ctx.h_deopt_residue residue;
  Osr.note_deopt osr ~residue;
  if Events.enabled ctx.events then
    Events.emit ctx.events
      (Events.Deopt_entered
         {
           trace_id = tr.Trace.id;
           at_block = at;
           resume_block = resume;
           residue_blocks = residue;
           reason = Osr.reason_to_string reason;
         })

(* Mid-flight cut-over: deoptimize the currently executing trace (a
   sweep is condemning it).  Between dispatches there is no mismatching
   block to resume at; the resume point is wherever the interpreter
   materializes (-1 when no handle is attached), and the next observed
   block goes through the normal dispatch path. *)
let deopt_active ctx ~reason =
  match (ctx.active, ctx.osr) with
  | Some tr, Some osr ->
      let resume =
        match Osr.materialized osr with
        | Some m -> (
            match m.Vm.Interp.m_block with Some b -> b | None -> -1)
        | None -> -1
      in
      deopt ctx osr tr ~resume ~reason
  | _ -> ()

(* Run the invariant sweep (Config.debug_checks): count every finding and
   publish it on the stream.  Called at trace-construction and decay
   boundaries, never on the plain dispatch path.

   Under Config.self_heal the sweep also repairs what it found: flagged
   BCG nodes are healed in place (losing corrupted history, keeping the
   node profiling), flagged traces are quarantined, and the whole sweep
   counts as one strike against the health ladder. *)
let run_debug_checks ctx =
  if ctx.in_debug_sweep then ()
  else begin
    ctx.in_debug_sweep <- true;
    let bcg = Profiler.bcg ctx.profiler in
    let diags =
      Invariants.check_all ~layout:ctx.layout ctx.config ~bcg ~cache:ctx.cache
    in
    (* translation-validate traces the sweep has not seen yet: the
       optimized body must be provably equivalent to the original block
       sequence.  Findings join the invariant diagnostics and flow
       through the same event / self-heal processing below. *)
    let diags = diags @ Trace_prover.validate_new ctx.layout ctx.cache in
    List.iter
      (fun (d : Analysis.Diag.t) ->
        note_violation ctx;
        if Events.enabled ctx.events then
          Events.emit ctx.events
            (Events.Invariant_violation
               {
                 code = d.Analysis.Diag.code;
                 severity =
                   Analysis.Diag.severity_to_string d.Analysis.Diag.severity;
                 message = Analysis.Diag.to_string d;
               }))
      diags;
    if diags <> [] then fr_trigger ctx Flightrec.Invariant;
    if Config.self_heal ctx.config && diags <> [] then begin
      let healed = Hashtbl.create 8 in
      let condemned = Hashtbl.create 8 in
      List.iter
        (fun (d : Analysis.Diag.t) ->
          match d.Analysis.Diag.loc with
          | Analysis.Diag.Node_loc { x; y } ->
              if not (Hashtbl.mem healed (x, y)) then begin
                Hashtbl.replace healed (x, y) ();
                let n = Bcg.find_node bcg ~x ~y in
                if n != Bcg.no_node && Bcg.heal_node bcg n then
                  ctx.counts.Stats.healed_nodes <-
                    ctx.counts.Stats.healed_nodes + 1
              end
          | Analysis.Diag.Trace_loc { trace_id } ->
              if not (Hashtbl.mem condemned trace_id) then begin
                Hashtbl.replace condemned trace_id ();
                (* OSR mid-flight cut-over: when the flagged trace is
                   the one being executed right now, deoptimize first —
                   block dispatch resumes at the materialized state, the
                   execution pin drops, and the quarantine below is not
                   refused.  Without OSR the pin refuses the quarantine
                   and a later sweep (or dispatch validation) condemns
                   the trace once it has exited. *)
                (match ctx.active with
                | Some a when a.Trace.id = trace_id ->
                    deopt_active ctx ~reason:Osr.Condemned
                | _ -> ());
                (* quarantine by the trace's live entry binding *)
                let entry = ref None in
                Trace_cache.iter_entries ctx.cache (fun ~first ~head tr ->
                    if tr.Trace.id = trace_id then entry := Some (first, head));
                match !entry with
                | Some (first, head) ->
                    ignore (condemn ctx ~first ~head ~code:d.Analysis.Diag.code)
                | None -> ()
              end
          | Analysis.Diag.Method_loc _ | Analysis.Diag.Program_loc -> ())
        diags;
      apply_health ctx (Health.strike ctx.health)
    end;
    ctx.in_debug_sweep <- false
  end

let note_executed ctx g =
  ctx.prev2 <- ctx.prev;
  ctx.prev <- g

(* The counters, filled in: a copy of the dispatch loop's own record
   plus, in this one place, the counters other modules own. *)
let counters ctx : Stats.t =
  let s = Stats.copy ctx.counts in
  let bcg = Profiler.bcg ctx.profiler and cache = ctx.cache in
  s.Stats.signals <- Profiler.signals ctx.profiler;
  s.Stats.ic_predictions <- Profiler.predictions ctx.profiler;
  s.Stats.bcg_nodes <- Bcg.n_nodes bcg;
  s.Stats.bcg_edges <- Bcg.n_edges bcg;
  s.Stats.traces_replaced <- Trace_cache.n_replaced cache;
  s.Stats.traces_live <- Trace_cache.n_live cache;
  s.Stats.traces_quarantined <- Trace_cache.n_quarantines cache;
  s.Stats.traces_evicted <- Trace_cache.n_evicted cache;
  s.Stats.traces_blacklisted <- Trace_cache.n_blacklisted cache;
  s.Stats.failed_installs <- Trace_cache.n_failed_installs cache;
  s.Stats.pin_refusals <- Trace_cache.n_pin_refusals cache;
  s.Stats.demote_refusals <- Trace_cache.n_demote_refusals cache;
  Trace_cache.iter_all cache (fun tr ->
      if tr.Trace.completed > 0 then begin
        s.Stats.static_traces <- s.Stats.static_traces + 1;
        s.Stats.static_blocks <- s.Stats.static_blocks + Trace.n_blocks tr
      end);
  (match ctx.osr with
  | Some osr ->
      s.Stats.deopts <- Osr.deopts osr;
      s.Stats.deopt_residue_blocks <- Osr.residue_blocks osr;
      s.Stats.osr_promotions <- Osr.promotions osr;
      s.Stats.osr_entries <- Osr.entries osr;
      s.Stats.osr_state_checks <- Osr.state_checks osr;
      s.Stats.osr_state_mismatches <- Osr.state_mismatches osr
  | None -> ());
  s.Stats.faults_injected <- Faults.injected ctx.faults;
  s.Stats.health_demotions <- Health.demotions ctx.health;
  s.Stats.health_promotions <- Health.promotions ctx.health;
  s.Stats.final_health <- Health.level_rank (Health.level ctx.health);
  s

(* One phase snapshot's values: the histogram summaries, every counter
   but [instructions] (only the VM knows it), then the state no counter
   covers. *)
let sample ctx =
  let s = counters ctx and cache = ctx.cache in
  List.concat_map Metrics.hist_fields
    [
      ctx.h_trace_len;
      ctx.h_exit_distance;
      ctx.h_build_len;
      ctx.h_backoff;
      ctx.h_deopt_residue;
    ]
  @ List.filter_map
      (fun (name, get) ->
        if name = "instructions" then None else Some (name, get s))
      Stats.counters
  @ [
      ("live_blocks", Trace_cache.live_blocks cache);
      ("quarantine_active", Trace_cache.n_quarantine_active cache);
      ("skipped_dispatches", Profiler.skipped ctx.profiler);
      ("cross_session_installs", Trace_cache.n_cross_installs cache);
      ("cross_session_entries", Trace_cache.n_cross_entries cache);
      ("traces_restored", Trace_cache.n_restored cache);
      ("cache_footprint_bytes", Trace_cache.footprint_bytes cache);
    ]
  @ (if Config.tier_enabled ctx.config then
       [ ("compiled_live", Trace_cache.n_compiled cache) ]
     else [])
  @ (match ctx.flightrec with
    | Some fr ->
        [
          ("flightrec_recorded", Flightrec.recorded fr);
          ("flightrec_dumps", Flightrec.dumps fr);
        ]
    | None -> [])
  @ [ ("ledger_records", Ledger.length ctx.ledger) ]

(* The dispatch prologue every strategy runs first: every
   [snapshot_period] dispatches publish a phase snapshot stamped with
   this dispatch's 1-based index, and when the self-healing or fault
   machinery is armed advance the cache clock and the fault injector. *)
let prologue ctx =
  let period = Config.snapshot_period ctx.config in
  if period > 0 then begin
    let at = clock ctx + 1 in
    if at mod period = 0 && Events.enabled ctx.events then
      Events.emit ctx.events
        (Events.Phase_snapshot
           { Metrics.at; values = Array.of_list (sample ctx) })
  end;
  if Config.self_heal ctx.config || Faults.is_active ctx.faults then begin
    let now = clock ctx in
    Trace_cache.set_clock ctx.cache now;
    (* injected faults land just before the dispatch decision *)
    List.iter
      (fun (code, detail) ->
        if Events.enabled ctx.events then
          Events.emit ctx.events (Events.Fault_injected { code; detail }))
      (Faults.tick ctx.faults ~now
         ~bcg:(Profiler.bcg ctx.profiler)
         ~cache:ctx.cache ~active:ctx.active)
  end

(* Validate a trace the dispatch lookup produced, before entering it.
   Returns the code of the first violated invariant, or None when the
   trace is sound.  The binding key is checked first (a corrupted head
   block desynchronizes it), then the full TL2xx battery over the trace
   body — the cost self-healing pays per trace dispatch. *)
let validate_dispatch ctx (tr : Trace.t) ~prev ~cur : string option =
  let f, h = Trace.entry_key tr in
  if f <> prev || h <> cur then Some "TL202"
  else
    match
      Invariants.check_trace
        ~bcg:(Profiler.bcg ctx.profiler)
        ~layout:ctx.layout ctx.config tr
    with
    | [] -> None
    | d :: _ -> Some d.Analysis.Diag.code

(* ------------------------------------------------------------------ *)
(* trace construction                                                   *)
(* ------------------------------------------------------------------ *)

(* Every trace construction, from a profiler signal or an OSR
   promotion, ends here: fold the builder's outcome into the counters
   and, when [sweep] holds, run the invariant sweep at the construction
   boundary. *)
let note_build ctx (o : Trace_builder.outcome) ~sweep =
  let c = ctx.counts in
  c.Stats.traces_constructed <-
    c.Stats.traces_constructed + o.Trace_builder.new_traces;
  c.Stats.builder_reuses <-
    c.Stats.builder_reuses + o.Trace_builder.reused_traces;
  if sweep && Config.debug_checks ctx.config then run_debug_checks ctx

let on_signal ctx signal =
  if Config.build_traces ctx.config then
    note_build ctx
      (Trace_builder.on_signal ~events:ctx.events
         ~on_path:(fun n -> Metrics.record ctx.h_build_len n)
         ctx.config ctx.cache signal)
      ~sweep:true

(* Feed one outside-trace dispatch of [g] to OSR hot-loop detection;
   None when OSR is off.  With [promote = false] the heat saturates at
   the threshold instead of firing, so it survives until trace dispatch
   can act on the crossing. *)
let hot_loop ctx g ~promote =
  match ctx.osr with
  | Some osr -> Osr.observe_header osr g ~promote
  | None -> None

(* OSR mid-loop promotion: a hot header crossed its threshold while we
   were dispatching blocks — build its loop trace immediately, so the
   very next latch->header transition enters it.  The construction
   boundary sweeps only when a trace was built.  Returns whether a trace
   was installed. *)
let promote_loop ctx (osr : Osr.t) header ~hotness =
  let outcome, installed =
    Trace_builder.promote ~events:ctx.events
      ~on_path:(fun n -> Metrics.record ctx.h_build_len n)
      ctx.cache (Profiler.bcg ctx.profiler) ~header
  in
  (match installed with
  | Some tr ->
      Osr.note_promotion osr ~trace_id:tr.Trace.id;
      if Events.enabled ctx.events then
        Events.emit ctx.events
          (Events.Osr_promoted
             {
               trace_id = tr.Trace.id;
               header;
               latch = tr.Trace.first;
               hotness;
             })
  | None -> ());
  note_build ctx outcome ~sweep:(outcome.Trace_builder.new_traces > 0);
  installed <> None

(* Returns whether a promotion installed a trace, so the trace step
   knows to retry its cache lookup. *)
let poll_promote ctx g =
  match ctx.osr with
  | None -> false
  | Some osr -> (
      let promote = Config.build_traces ctx.config in
      match hot_loop ctx g ~promote with
      | Some hotness -> promote_loop ctx osr g ~hotness
      | None -> false)

(* ------------------------------------------------------------------ *)
(* trace entry                                                          *)
(* ------------------------------------------------------------------ *)

(* The compiled tier's part of a trace entry (Config.tier_enabled).  The
   tier cost model runs first (Tier.maybe_compile): a trace hot enough —
   its entry's use count crossed [compile_after] — is lowered to
   micro-IR, demoting the coldest compiled trace when the
   [compile_budget] is full.  Entering a trace that holds a lowered body
   sets [active_lowered], and every position followed while it is set
   is accounted as the micro-ops the body dispatches there.  The VM runs
   the same bytecode whichever tier a trace is on, so results stay
   bit-identical with the tier on or off; what changes is the
   dispatch-cost model the run is priced under. *)
let enter_compiled ctx (tr : Trace.t) =
  (* the lookup that produced [tr] just heated its entry, so the cost
     model sees the use count including this dispatch *)
  let compiled, demoted =
    Tier.maybe_compile ctx.config ctx.layout ctx.cache ~events:ctx.events tr
  in
  let c = ctx.counts in
  c.Stats.traces_compiled <- c.Stats.traces_compiled + compiled;
  c.Stats.tier_demotions <- c.Stats.tier_demotions + demoted;
  (match tr.Trace.lowered with
  | Some _ as lowered ->
      c.Stats.compiled_entries <- c.Stats.compiled_entries + 1;
      ctx.active_lowered <- lowered
  | None -> ctx.active_lowered <- None);
  (* the entry position (0) is matched by the lookup itself, before
     [follow] sees any position; account it here.  A single-block trace
     completes inside [enter], which clears [active_lowered]. *)
  account_lowered ctx 0

(* Enter a trace the dispatch lookup produced: pin it, count the trace
   dispatch, run the single profiler hook and start following (a
   single-block trace completes immediately).  [hit] is the lookup's
   [Some tr], the cache binding's own: following the trace stores it as
   [active] rather than allocating another. *)
let enter ctx ~hit (tr : Trace.t) g =
  if Config.tier_enabled ctx.config then enter_compiled ctx tr;
  (* executing traces are pinned against eviction and quarantine for the
     duration of the dispatch; finish_completed/finish_partial unpin *)
  Trace_cache.pin ctx.cache tr;
  let c = ctx.counts in
  c.Stats.trace_dispatches <- c.Stats.trace_dispatches + 1;
  c.Stats.traces_entered <- c.Stats.traces_entered + 1;
  (match ctx.osr with
  | Some osr -> Osr.note_entry osr ~trace_id:tr.Trace.id
  | None -> ());
  let chained = ctx.just_completed in
  if chained then c.Stats.chained_entries <- c.Stats.chained_entries + 1;
  ctx.just_completed <- false;
  tr.Trace.entered <- tr.Trace.entered + 1;
  Events.emit_trace_entered ctx.events ~trace_id:tr.Trace.id ~chained;
  (* the single profiling statement of a trace dispatch *)
  Profiler.dispatch ctx.profiler g;
  note_executed ctx g;
  attr_inline ctx g;
  ctx.matched_blocks <- 1;
  ctx.matched_instrs <- tr.Trace.instr_len.(0);
  if Trace.n_blocks tr = 1 then begin
    (* degenerate single-block trace: completes immediately *)
    ctx.active <- None;
    finish_completed ctx tr
  end
  else begin
    ctx.active <- hit;
    ctx.active_pos <- 1
  end

(* ------------------------------------------------------------------ *)
(* dispatch outside a trace                                             *)
(* ------------------------------------------------------------------ *)

(* An ordinary profiled block dispatch: the hook runs, the trace cache
   is not consulted. *)
let profiled_dispatch ctx g =
  block_dispatch ctx g;
  Profiler.dispatch ctx.profiler g;
  note_executed ctx g

let credit_clean ctx =
  if Config.self_heal ctx.config then
    apply_health ctx (Health.clean_dispatch ctx.health)

(* The trace strategy's dispatch decision: consult the cache by the
   entering transition.  A hit is one trace dispatch (the hook runs
   once, the interior blocks are inlined); a miss is a profiled block
   dispatch.  Under self-healing every candidate trace is validated
   before entry; a condemned trace is quarantined, strikes the ladder,
   and the block falls back to a normal dispatch. *)
let trace_dispatch ctx g =
  let self_heal = Config.self_heal ctx.config in
  let hit = Trace_cache.lookup ctx.cache ~prev:ctx.prev ~cur:g in
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
          Trace_cache.lookup ctx.cache ~prev:ctx.prev ~cur:g
        else None
  in
  let condemned =
    match hit with
    | Some tr when self_heal -> (
        match validate_dispatch ctx tr ~prev:ctx.prev ~cur:g with
        | None -> false
        | Some code ->
            (* condemned at dispatch: quarantine the entry and strike
               the ladder, then dispatch the block normally *)
            ignore (condemn ctx ~first:ctx.prev ~head:g ~code);
            apply_health ctx (Health.strike ctx.health);
            true)
    | _ -> false
  in
  (match hit with
  | Some tr when not condemned -> enter ctx ~hit tr g
  | _ -> profiled_dispatch ctx g);
  if self_heal && not condemned then
    apply_health ctx (Health.clean_dispatch ctx.health)

(* Process one block dispatched outside any trace: the decision that
   distinguishes the strategies.

   - Interp, the ladder's last resort (Health.Interp_only): not even the
     profiler hook runs — the profiler only counts how much of the
     stream it missed, so its branch context goes stale (apply_health
     resets it on promotion back up).  Clean dispatches still feed the
     ladder so the engine can probe its way back to profiling.
   - Profile (Health.Profiling_only, and full tracing with
     Config.build_traces off — the paper's Table VI configuration):
     every block feeds the profiler and OSR header heat; the cache is
     never consulted.  The profiler's signals still fire — trace
     construction is [on_signal]'s business, gated on build_traces.
   - Trace (Health.Full_tracing): [trace_dispatch]. *)
let step ctx kind g =
  prologue ctx;
  match kind with
  | Interp ->
      block_dispatch ctx g;
      Profiler.note_skipped ctx.profiler;
      note_executed ctx g;
      apply_health ctx (Health.clean_dispatch ctx.health)
  | Profile ->
      profiled_dispatch ctx g;
      ignore (hot_loop ctx g ~promote:false);
      credit_clean ctx
  | Trace -> trace_dispatch ctx g

(* OSR exit point: the block dispatch execution resumes at after a
   deoptimization.  It never consults the trace cache — the engine just
   abandoned a trace at this block, and re-entering one at the deopt
   transition would defeat the resume — so under Interp and Profile it
   is their ordinary [step], and under Trace a profiled dispatch that
   also skips the hot-loop poll. *)
let deopt_resume ctx kind g =
  match kind with
  | Interp | Profile -> step ctx kind g
  | Trace ->
      prologue ctx;
      profiled_dispatch ctx g;
      credit_clean ctx

(* ------------------------------------------------------------------ *)
(* following a trace                                                    *)
(* ------------------------------------------------------------------ *)

(* Follow the active trace, if any; a block outside every trace goes to
   [step].  An active trace is followed to its end whatever the kind, so
   a health-level change mid-trace does not cut it short.

   A guard can fail two ways: organically ([g <> expected]) or because
   an armed FT008 guard flip forces this position to fail.  Without OSR
   both take the classic side exit — leave the trace, reprocess [g]
   through the full dispatch path (it may enter another trace).  With
   OSR both *deoptimize*: the engine proves the interpreter already sits
   at [g] and resumes plain block dispatch there through
   [deopt_resume], which never consults the trace cache. *)
let rec follow ctx kind (g : Layout.gid) =
  match ctx.active with
  | None -> step ctx kind g
  | Some tr ->
      let expected = tr.Trace.blocks.(ctx.active_pos) in
      ctx.counts.Stats.guards_checked <- ctx.counts.Stats.guards_checked + 1;
      let forced =
        Faults.flip_now ctx.faults ~pos:ctx.active_pos
          ~n_blocks:(Trace.n_blocks tr)
      in
      if g = expected && not forced then begin
        note_executed ctx g;
        attr_inline ctx g;
        account_lowered ctx ctx.active_pos;
        ctx.matched_blocks <- ctx.matched_blocks + 1;
        ctx.matched_instrs <-
          ctx.matched_instrs + tr.Trace.instr_len.(ctx.active_pos);
        if ctx.active_pos = Trace.n_blocks tr - 1 then finish_completed ctx tr
        else ctx.active_pos <- ctx.active_pos + 1
      end
      else begin
        match ctx.osr with
        | Some osr ->
            (* deoptimize: abandon the residue, resume block dispatch at
               the failing block *)
            deopt ctx osr tr ~resume:g
              ~reason:(if forced then Osr.Guard_flip else Osr.Guard_failure);
            deopt_resume ctx kind g
        | None ->
            (* side exit: leave the trace, then process g normally (it
               may itself enter another trace) *)
            finish_partial ctx tr;
            follow ctx kind g
      end

(* The VM observer: stamp the event clock, follow/step, then check for a
   decay boundary. *)
let on_block ctx kind (g : Layout.gid) =
  (* stamp the stream once per observed block; events emitted during this
     step carry the current dispatch index *)
  if Events.enabled ctx.events then
    Events.set_now ctx.events (clock ctx);
  follow ctx kind g;
  if Config.debug_checks ctx.config then begin
    (* decay boundary: the BCG ran one or more decay passes during this
       dispatch *)
    let d = (Profiler.bcg ctx.profiler).Bcg.decays in
    if d <> ctx.seen_decays then begin
      ctx.seen_decays <- d;
      run_debug_checks ctx
    end
  end
