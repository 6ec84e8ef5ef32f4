module Layout = Cfg.Layout
module Interp = Vm.Interp

(* The complete system: the VM's block-dispatch stream drives the profiler;
   profiler signals drive trace reconstruction; and the trace cache overlays
   trace dispatch onto the stream.

   One record, [t], holds the dispatch state, and one function,
   [on_block], is the dispatch loop's body.  Each observed block is
   dispatched under one of three backend kinds, picked from the Health
   ladder —

     Full_tracing  + build_traces -> Trace
     Full_tracing  (no traces)    -> Profile
     Profiling_only               -> Profile
     Interp_only                  -> Interp

   so walking the degradation ladder IS switching backends.  The kinds
   differ only in how a block outside any trace is dispatched ([step]
   and [deopt_resume], one [match] each); trace construction, entry,
   following and exit, the ladder walk and the invariant sweep are
   shared.  The compiled micro-IR tier (Config.tier_enabled) is part of
   trace dispatch, so it rides the top rung only.  A backend can also be
   pinned at creation (tests, the `repro_cli backends` inspection
   command), in which case the ladder still runs its accounting but
   never changes the kind.

   Dispatch accounting mirrors the modified SableVM:

   - a block dispatched outside any trace executes the profiler hook and
     counts as one block dispatch;
   - a dispatch that enters a trace executes the hook once and counts as
     one *trace* dispatch; the blocks the trace then executes internally
     are inlined — no dispatch, no hook;
   - when execution diverges from the trace (side exit) or the trace
     completes, the profiler context is resynchronized to the last two
     executed blocks and normal dispatching resumes.

   Every counter the engine advances — OSR's, the ladder's, its cache
   decisions' — lives in [counts]; [counters] adds Profiler's and Bcg's.
   Because every kind observes the same stream and tracing is a pure
   overlay, the VM's results are bit-identical under any backend, any
   ladder schedule and any fault schedule. *)

type backend_kind = Interp | Profile | Trace

let describe_backend = function
  | Interp -> ("interp", "pure interpretation: no profiling, no traces")
  | Profile ->
      ("profile", "block dispatch with BCG profiling; traces never entered")
  | Trace -> ("trace", "trace-cache dispatch over the profiled block stream")

let backends = [ Interp; Profile; Trace ]

(* The ladder-to-backend mapping.  Note build_traces only matters at the
   top level: the cache is only ever consulted by trace dispatch. *)
let select config (level : Health.level) : backend_kind =
  match level with
  | Health.Interp_only -> Interp
  | Health.Profiling_only -> Profile
  | Health.Full_tracing ->
      if Config.build_traces config then Trace else Profile

type t = {
  config : Config.t;
  layout : Layout.t;
  profiler : Profiler.t;
  cache : Trace_cache.t;
  events : Events.t;
  ledger : Ledger.t; (* fed by the event tap [create] installs *)
  health : Health.t;
  faults : Faults.t;
  osr : Osr.t option; (* None = on-stack replacement off *)
  (* deep observability: the flight recorder *)
  flightrec : Flightrec.t option;
    (* the always-on black box (None only when
       Config.flightrec_capacity = 0); dump triggers fire here, the
       intake is wired through the event tap *)
  counts : Stats.t;
    (* the counters the engine advances, in place; [counters] fills in
       the ones other modules own when it copies them out *)
  on_path : int -> unit;
    (* the builder's walk observer: each candidate path it walks is one
       [Path_walked] event *)
  fail_install : unit -> bool;
    (* the builder's install gate: an FT006 failure this engine's
       injector armed fails this engine's next installation, whichever
       cache it shares *)
  mutable completed_ids : Bytes.t;
    (* by trace id: '\001' once this engine completed the trace *)
  mutable restored : int; (* traces rebound by [restore] *)
  (* trace execution state *)
  mutable active : Trace.t option;
  mutable active_compiled : bool;
    (* the active trace was entered on the compiled tier
       (Config.tier_enabled): its exit accounts the positions it
       matched as the micro-ops its lowered body dispatches there.  Set
       at every entry with the tier armed; read only while [active] is
       set or by the exit that clears it *)
  mutable active_pos : int;
    (* index of the next expected block: the positions matched so far.
       The guards checked and the instructions matched are folded in
       from it when the trace ends *)
  (* last two blocks actually executed, traces included *)
  mutable prev : Layout.gid;
  mutable prev2 : Layout.gid;
  mutable just_completed : bool;
    (* the previous dispatch completed a trace: an entry now chains *)
  mutable seen_decays : int; (* decay boundary detector, like Profiler's *)
  mutable in_debug_sweep : bool;
    (* re-entrancy guard: healing a node rechecks it, which can signal
       the builder, whose construction boundary would sweep again *)
  (* backend selection *)
  pinned : bool; (* backend forced at creation: never re-selected *)
  mutable kind : backend_kind;
  mutable kind_level : Health.level; (* level [kind] was selected from *)
}

(* The engine's dispatch clock: the cache clock and the event stream's
   timestamp base alike. *)
let total_dispatches t =
  t.counts.Stats.block_dispatches + t.counts.Stats.traces_entered

let note_violation t =
  t.counts.Stats.invariant_violations <-
    t.counts.Stats.invariant_violations + 1

let fr_trigger t reason =
  match t.flightrec with
  | Some fr -> Flightrec.trigger fr reason
  | None -> ()

(* One ordinary block dispatch outside any trace: count it.  The
   caller runs (or skips) the profiler hook. *)
let block_dispatch t =
  t.counts.Stats.block_dispatches <- t.counts.Stats.block_dispatches + 1;
  t.just_completed <- false

let note_executed t g =
  t.prev2 <- t.prev;
  t.prev <- g

(* Compiled-tier accounting for the positions [0, upto) of a trace
   entered on the compiled tier: what the micro-IR dispatch loop would
   have dispatched there versus the source instructions trace dispatch
   ran.  Added into [c] when the trace ends, as the guards are, and by
   [counters] for the trace still in flight.  Exact: a followed trace is
   pinned, and a pinned trace is never demoted, evicted or quarantined,
   so [tr.lowered] is still the body it was entered with. *)
let account_compiled (c : Stats.t) (tr : Trace.t) upto =
  match tr.Trace.lowered with
  | None -> ()
  | Some b ->
      let ops = ref 0 and fused = ref 0 and src = ref 0 in
      for i = 0 to upto - 1 do
        ops := !ops + b.Microir.pos_ops.(i);
        fused := !fused + b.Microir.pos_fused.(i);
        src := !src + b.Microir.pos_src.(i)
      done;
      c.Stats.mi_positions <- c.Stats.mi_positions + upto;
      c.Stats.mi_ops <- c.Stats.mi_ops + !ops;
      c.Stats.mi_fused <- c.Stats.mi_fused + !fused;
      c.Stats.mi_src_instrs <- c.Stats.mi_src_instrs + !src

(* Walk the health ladder: count and publish the transition and, when
   climbing out of interp-only, drop the profiler's stale branch context
   (the skipped dispatches never updated it). *)
let apply_health t (transition : Health.transition) =
  match transition with
  | Health.Stay -> ()
  | Health.Changed (from_level, to_level) ->
      let c = t.counts in
      let demoted =
        Health.level_rank to_level > Health.level_rank from_level
      in
      if demoted then c.Stats.health_demotions <- c.Stats.health_demotions + 1
      else c.Stats.health_promotions <- c.Stats.health_promotions + 1;
      Events.emit t.events
        (if demoted then Events.Mode_degraded { from_level; to_level }
         else Events.Mode_recovered { from_level; to_level });
      (* hitting the bottom of the ladder is a postmortem moment: tracing
         is fully disabled, so capture how the engine got here *)
      if demoted && to_level = Health.Interp_only then
        fr_trigger t Flightrec.Degraded;
      if from_level = Health.Interp_only then Profiler.reset t.profiler

(* ------------------------------------------------------------------ *)
(* trace exit and deoptimization                                        *)
(* ------------------------------------------------------------------ *)

(* Count [tr] among the static traces at this engine's first completion
   of it (the trace may be shared, the mark is this engine's). *)
let note_static t (tr : Trace.t) =
  let id = tr.Trace.id in
  if id >= Bytes.length t.completed_ids then
    t.completed_ids <- Bytes.cat t.completed_ids (Bytes.make (id + 1) '\000');
  if Bytes.get t.completed_ids id = '\000' then begin
    Bytes.set t.completed_ids id '\001';
    let c = t.counts in
    c.Stats.static_traces <- c.Stats.static_traces + 1;
    c.Stats.static_blocks <- c.Stats.static_blocks + Trace.n_blocks tr
  end

(* Clear the trace execution state. *)
let leave t = t.active <- None

(* End the active trace after a completion: every position past the
   entry was a guard that held. *)
let finish_completed t (tr : Trace.t) =
  t.just_completed <- true;
  note_static t tr;
  let c = t.counts in
  c.Stats.guards_checked <- c.Stats.guards_checked + Trace.n_blocks tr - 1;
  c.Stats.traces_completed <- c.Stats.traces_completed + 1;
  c.Stats.completed_blocks <- c.Stats.completed_blocks + Trace.n_blocks tr;
  c.Stats.completed_instrs <- c.Stats.completed_instrs + tr.Trace.total_instrs;
  if t.active_compiled then account_compiled c tr (Trace.n_blocks tr);
  leave t;
  Trace_cache.unpin t.cache tr;
  Events.emit_trace_completed t.events ~trace_id:tr.Trace.id
    ~n_blocks:(Trace.n_blocks tr) ~n_instrs:tr.Trace.total_instrs;
  (* the profiler missed the trace interior: reposition its context at the
     trace's final branch *)
  Profiler.resync t.profiler ~x:t.prev2 ~y:t.prev

(* End the active trace after a side exit; the mismatching block has not
   been processed yet.  [guards] is the number of guards checked, the
   failed one included.  The matched instructions are summed from the
   trace's live per-block counts, as trace dispatch ran them. *)
let finish_partial t (tr : Trace.t) ~guards =
  t.just_completed <- false;
  let c = t.counts in
  let at = t.active_pos in
  let matched_instrs = ref 0 in
  for i = 0 to at - 1 do
    matched_instrs := !matched_instrs + tr.Trace.instr_len.(i)
  done;
  c.Stats.guards_checked <- c.Stats.guards_checked + guards;
  c.Stats.partial_blocks <- c.Stats.partial_blocks + at;
  c.Stats.partial_instrs <- c.Stats.partial_instrs + !matched_instrs;
  if t.active_compiled then account_compiled c tr at;
  leave t;
  Trace_cache.unpin t.cache tr;
  Events.emit_side_exit t.events ~trace_id:tr.Trace.id ~at_block:at
    ~matched_instrs:!matched_instrs;
  Profiler.resync t.profiler ~x:t.prev2 ~y:t.prev

(* OSR deoptimization: abandon the active trace at the current position
   and resume block dispatch at [resume].  A deopt *is* a side exit plus
   a state-equivalence proof: [finish_partial] does the exit bookkeeping
   (side-exit event, profiler resync, unpin), and the proof obligation —
   the materialized interpreter continuation already sits at the block
   dispatch resumes at, because the overlay never moved it — is checked
   against the live handle (TL219 on mismatch). *)
let deopt t (osr : Osr.t) (tr : Trace.t) ~resume ~(reason : Osr.reason) =
  let c = t.counts in
  let at = t.active_pos in
  let residue = Trace.n_blocks tr - at in
  (match Osr.materialized osr with
  | Some m ->
      c.Stats.osr_state_checks <- c.Stats.osr_state_checks + 1;
      let ok =
        match m.Interp.m_block with
        | Some b -> b = resume
        | None -> resume < 0
      in
      if not ok then begin
        c.Stats.osr_state_mismatches <- c.Stats.osr_state_mismatches + 1;
        if Config.debug_checks t.config then begin
          note_violation t;
          Events.emit t.events
            (Events.Invariant_violation
               {
                 code = "TL219";
                 severity = "error";
                 message =
                   Printf.sprintf
                     "trace %d: deopt at position %d resumes at block %d \
                      but the interpreter materialized at %s"
                     tr.Trace.id at resume
                     (match m.Interp.m_block with
                     | Some b -> string_of_int b
                     | None -> "<stopped>");
               });
          fr_trigger t Flightrec.Invariant
        end
      end
  | None -> ());
  (* a failed guard was checked; a condemned trace's next one was not *)
  let guards =
    match reason with
    | Osr.Condemned -> at - 1
    | Osr.Guard_failure | Osr.Guard_flip -> at
  in
  finish_partial t tr ~guards;
  c.Stats.deopts <- c.Stats.deopts + 1;
  c.Stats.deopt_residue_blocks <-
    c.Stats.deopt_residue_blocks + Int.max 0 residue;
  Events.emit t.events
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
let deopt_active t ~reason =
  match (t.active, t.osr) with
  | Some tr, Some osr ->
      let resume =
        match Osr.materialized osr with
        | Some m -> ( match m.Interp.m_block with Some b -> b | None -> -1)
        | None -> -1
      in
      deopt t osr tr ~resume ~reason
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* the invariant sweep                                                  *)
(* ------------------------------------------------------------------ *)

(* Run the invariant sweep (Config.debug_checks): count every finding and
   publish it on the stream.  Called at trace-construction and decay
   boundaries, never on the plain dispatch path.

   Under Config.self_heal the sweep also repairs what it found: flagged
   BCG nodes are healed in place (losing corrupted history, keeping the
   node profiling), flagged traces are quarantined, and the whole sweep
   counts as one strike against the health ladder. *)
let debug_sweep t =
  if t.in_debug_sweep then ()
  else begin
    t.in_debug_sweep <- true;
    let bcg = Profiler.bcg t.profiler in
    let diags =
      Invariants.check_all ~layout:t.layout t.config ~bcg ~cache:t.cache
    in
    List.iter
      (fun (d : Analysis.Diag.t) ->
        note_violation t;
        Events.emit t.events
          (Events.Invariant_violation
             {
               code = d.Analysis.Diag.code;
               severity =
                 Analysis.Diag.severity_to_string d.Analysis.Diag.severity;
               message = Analysis.Diag.to_string d;
             }))
      diags;
    if diags <> [] then fr_trigger t Flightrec.Invariant;
    if Config.self_heal t.config && diags <> [] then begin
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
                  t.counts.Stats.healed_nodes <-
                    t.counts.Stats.healed_nodes + 1
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
                (match t.active with
                | Some a when a.Trace.id = trace_id ->
                    deopt_active t ~reason:Osr.Condemned
                | _ -> ());
                (* quarantine by the trace's live entry binding *)
                let entry = ref None in
                Trace_cache.iter_entries t.cache (fun ~first ~head tr ->
                    if tr.Trace.id = trace_id then entry := Some (first, head));
                match !entry with
                | Some (first, head) ->
                    ignore
                      (Trace_cache.quarantine t.cache ~events:t.events
                         ~counts:t.counts ~first ~head
                         ~code:d.Analysis.Diag.code)
                | None -> ()
              end
          | Analysis.Diag.Method_loc _ | Analysis.Diag.Program_loc -> ())
        diags;
      apply_health t (Health.strike t.health)
    end;
    t.in_debug_sweep <- false
  end

(* ------------------------------------------------------------------ *)
(* counters and the dispatch prologue                                   *)
(* ------------------------------------------------------------------ *)

(* The counters, filled in: a copy of the engine's own record plus, in
   this one place, the counters other modules own and what the active
   trace has checked and matched so far (its exit counts them): its
   guards and, on the compiled tier, its positions' micro-ops. *)
let counters t : Stats.t =
  let s = Stats.copy t.counts in
  (match t.active with
  | Some tr ->
      s.Stats.guards_checked <- s.Stats.guards_checked + t.active_pos - 1;
      if t.active_compiled then account_compiled s tr t.active_pos
  | None -> ());
  let bcg = Profiler.bcg t.profiler in
  s.Stats.signals <- Profiler.signals t.profiler;
  s.Stats.ic_predictions <- Profiler.predictions t.profiler;
  s.Stats.bcg_nodes <- Bcg.n_nodes bcg;
  s.Stats.bcg_edges <- Bcg.n_edges bcg;
  s.Stats.traces_live <- Trace_cache.n_live t.cache;
  s.Stats.demote_refusals <- Trace_cache.n_demote_refusals t.cache;
  s.Stats.final_health <- Health.level_rank (Health.level t.health);
  s

(* One phase snapshot's values: every counter but [instructions] (only
   the VM knows it), then the state no counter covers. *)
let sample t =
  let s = counters t and cache = t.cache in
  List.filter_map
      (fun (name, get) ->
        if name = "instructions" then None else Some (name, get s))
      Stats.counters
  @ [
      ("live_blocks", Trace_cache.live_blocks cache);
      ("quarantine_active", Trace_cache.n_quarantine_active cache);
      ("skipped_dispatches", Profiler.skipped t.profiler);
      ("cross_session_installs", Trace_cache.n_cross_installs cache);
      ("cross_session_entries", Trace_cache.n_cross_entries cache);
      ("traces_restored", t.restored);
      ("cache_footprint_bytes", Trace_cache.footprint_bytes cache);
    ]
  @ (if Config.tier_enabled t.config then
       [ ("compiled_live", Trace_cache.n_compiled cache) ]
     else [])
  @ (match t.flightrec with
    | Some fr ->
        [
          ("flightrec_recorded", Flightrec.recorded fr);
          ("flightrec_dumps", Flightrec.dumps fr);
        ]
    | None -> [])
  @ [ ("ledger_records", Ledger.length t.ledger) ]

(* The dispatch prologue every kind runs first: every [snapshot_period]
   dispatches publish a phase snapshot stamped with this dispatch's
   1-based index, and when the self-healing or fault machinery is armed
   advance the cache clock and the fault injector. *)
let prologue t =
  let period = Config.snapshot_period t.config in
  if period > 0 then begin
    let at = total_dispatches t + 1 in
    if at mod period = 0 then
      Events.emit t.events
        (Events.Phase_snapshot { Metrics.at; values = Array.of_list (sample t) })
  end;
  if Config.self_heal t.config || Faults.is_active t.faults then begin
    let now = total_dispatches t in
    Trace_cache.set_clock t.cache now;
    (* injected faults land just before the dispatch decision *)
    let c = t.counts in
    List.iter
      (fun (code, detail) ->
        c.Stats.faults_injected <- c.Stats.faults_injected + 1;
        Events.emit t.events (Events.Fault_injected { code; detail }))
      (Faults.tick t.faults ~now ~bcg:(Profiler.bcg t.profiler) ~cache:t.cache
         ~events:t.events ~counts:c ~active:t.active)
  end

(* ------------------------------------------------------------------ *)
(* trace construction                                                   *)
(* ------------------------------------------------------------------ *)

(* Every trace construction, from a profiler signal or an OSR
   promotion, ends here: fold the builder's outcome into the counters
   and, when [sweep] holds, run the invariant sweep at the construction
   boundary. *)
let note_build t (o : Trace_builder.outcome) ~sweep =
  let c = t.counts in
  c.Stats.traces_constructed <-
    c.Stats.traces_constructed + o.Trace_builder.new_traces;
  c.Stats.builder_reuses <-
    c.Stats.builder_reuses + o.Trace_builder.reused_traces;
  if sweep && Config.debug_checks t.config then debug_sweep t

(* The profiler-signal subscriber: rebuild every trace the signalled
   branch can affect. *)
let on_signal t signal =
  if Config.build_traces t.config then
    note_build t
      (Trace_builder.on_signal ~events:t.events ~counts:t.counts
         ~on_path:t.on_path ~fail_install:t.fail_install t.config t.cache
         signal)
      ~sweep:true

(* Feed one outside-trace dispatch of [g] to OSR hot-loop detection;
   None when OSR is off.  With [promote = false] the heat saturates at
   the threshold instead of firing, so it survives until trace dispatch
   can act on the crossing. *)
let hot_loop t g ~promote =
  match t.osr with
  | Some osr -> Osr.observe_header osr g ~promote
  | None -> None

(* OSR mid-loop promotion: a hot header crossed its threshold while we
   were dispatching blocks — build its loop trace immediately, so the
   very next latch->header transition enters it.  The construction
   boundary sweeps only when a trace was built.  Returns whether a trace
   was installed. *)
let promote_loop t (osr : Osr.t) header ~hotness =
  let outcome, installed =
    Trace_builder.promote ~events:t.events ~counts:t.counts
      ~on_path:t.on_path ~fail_install:t.fail_install t.cache
      (Profiler.bcg t.profiler) ~header
  in
  (match installed with
  | Some tr ->
      t.counts.Stats.osr_promotions <- t.counts.Stats.osr_promotions + 1;
      Osr.arm osr ~trace_id:tr.Trace.id;
      Events.emit t.events
        (Events.Osr_promoted
           { trace_id = tr.Trace.id; header; latch = tr.Trace.first; hotness })
  | None -> ());
  note_build t outcome ~sweep:(outcome.Trace_builder.new_traces > 0);
  installed <> None

(* Returns whether a promotion installed a trace, so the trace step
   knows to retry its cache lookup. *)
let poll_promote t g =
  match t.osr with
  | None -> false
  | Some osr -> (
      let promote = Config.build_traces t.config in
      match hot_loop t g ~promote with
      | Some hotness -> promote_loop t osr g ~hotness
      | None -> false)

(* ------------------------------------------------------------------ *)
(* trace entry                                                          *)
(* ------------------------------------------------------------------ *)

(* The compiled tier's part of a trace entry (Config.tier_enabled).  The
   tier cost model runs first (Tier.maybe_compile): a trace hot enough —
   its entry's use count crossed [compile_after] — is lowered to
   micro-IR, demoting the coldest compiled trace when the
   [compile_budget] is full.  Entering a trace that holds a lowered body
   sets [active_compiled], and the trace's exit accounts every position
   it matched as the micro-ops the body dispatches there.  The VM runs
   the same bytecode whichever tier a trace is on, so results stay
   bit-identical with the tier on or off; what changes is the
   dispatch-cost model the run is priced under. *)
let enter_compiled t (tr : Trace.t) =
  (* the lookup that produced [tr] just heated its entry, so the cost
     model sees the use count including this dispatch *)
  let compiled, demoted =
    Tier.maybe_compile t.config t.layout t.cache ~events:t.events tr
  in
  let c = t.counts in
  c.Stats.traces_compiled <- c.Stats.traces_compiled + compiled;
  c.Stats.tier_demotions <- c.Stats.tier_demotions + demoted;
  let entered_compiled = tr.Trace.lowered <> None in
  if entered_compiled then
    c.Stats.compiled_entries <- c.Stats.compiled_entries + 1;
  t.active_compiled <- entered_compiled

(* Enter a trace the dispatch lookup produced: pin it, count the trace
   dispatch, run the single profiler hook and start following (a
   single-block trace completes immediately).  [hit] is the lookup's
   [Some tr], the cache binding's own: following the trace stores it as
   [active] rather than allocating another. *)
let enter t ~hit (tr : Trace.t) g =
  if Config.tier_enabled t.config then enter_compiled t tr;
  (* executing traces are pinned against eviction and quarantine for the
     duration of the dispatch; finish_completed/finish_partial unpin *)
  Trace_cache.pin t.cache tr;
  let c = t.counts in
  c.Stats.traces_entered <- c.Stats.traces_entered + 1;
  (* the first entry of the latest promoted trace is an OSR entry taken *)
  (match t.osr with
  | Some osr when Osr.take_armed osr ~trace_id:tr.Trace.id ->
      c.Stats.osr_entries <- c.Stats.osr_entries + 1
  | _ -> ());
  let chained = t.just_completed in
  if chained then c.Stats.chained_entries <- c.Stats.chained_entries + 1;
  t.just_completed <- false;
  Events.emit_trace_entered t.events ~trace_id:tr.Trace.id ~chained;
  (* the single profiling statement of a trace dispatch *)
  Profiler.dispatch t.profiler g;
  note_executed t g;
  if Trace.n_blocks tr = 1 then
    (* degenerate single-block trace: completes immediately *)
    finish_completed t tr
  else begin
    t.active <- hit;
    t.active_pos <- 1
  end

(* ------------------------------------------------------------------ *)
(* dispatch outside a trace                                             *)
(* ------------------------------------------------------------------ *)

(* Validate a trace the dispatch lookup produced, before entering it.
   Returns the code of the first violated invariant, or None when the
   trace is sound.  The binding key is checked first (a corrupted head
   block desynchronizes it), then the full TL2xx battery over the trace
   body — the cost self-healing pays per trace dispatch. *)
let validate_dispatch t (tr : Trace.t) ~prev ~cur : string option =
  let f, h = Trace.entry_key tr in
  if f <> prev || h <> cur then Some "TL202"
  else
    match
      Invariants.check_trace ~bcg:(Profiler.bcg t.profiler) ~layout:t.layout
        t.config tr
    with
    | [] -> None
    | d :: _ -> Some d.Analysis.Diag.code

(* An ordinary profiled block dispatch: the hook runs, the trace cache
   is not consulted. *)
let profiled_dispatch t g =
  block_dispatch t;
  Profiler.dispatch t.profiler g;
  note_executed t g

let credit_clean t =
  if Config.self_heal t.config then
    apply_health t (Health.clean_dispatch t.health)

(* The trace kind's dispatch decision: consult the cache by the entering
   transition.  A hit is one trace dispatch (the hook runs once, the
   interior blocks are inlined); a miss is a profiled block dispatch.
   Under self-healing every candidate trace is validated before entry; a
   condemned trace is quarantined, strikes the ladder, and the block
   falls back to a normal dispatch. *)
let trace_dispatch t g =
  let self_heal = Config.self_heal t.config in
  let hit = Trace_cache.lookup t.cache ~prev:t.prev ~cur:g in
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
        if poll_promote t g then Trace_cache.lookup t.cache ~prev:t.prev ~cur:g
        else None
  in
  let condemned =
    match hit with
    | Some tr when self_heal -> (
        match validate_dispatch t tr ~prev:t.prev ~cur:g with
        | None -> false
        | Some code ->
            (* condemned at dispatch: quarantine the entry and strike
               the ladder, then dispatch the block normally *)
            ignore
              (Trace_cache.quarantine t.cache ~events:t.events
                 ~counts:t.counts ~first:t.prev ~head:g ~code);
            apply_health t (Health.strike t.health);
            true)
    | _ -> false
  in
  (match hit with
  | Some tr when not condemned -> enter t ~hit tr g
  | _ -> profiled_dispatch t g);
  if self_heal && not condemned then
    apply_health t (Health.clean_dispatch t.health)

(* Process one block dispatched outside any trace: the decision that
   distinguishes the kinds.

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
let step t g =
  prologue t;
  match t.kind with
  | Interp ->
      block_dispatch t;
      Profiler.note_skipped t.profiler;
      note_executed t g;
      apply_health t (Health.clean_dispatch t.health)
  | Profile ->
      profiled_dispatch t g;
      ignore (hot_loop t g ~promote:false);
      credit_clean t
  | Trace -> trace_dispatch t g

(* OSR exit point: the block dispatch execution resumes at after a
   deoptimization.  It never consults the trace cache — the engine just
   abandoned a trace at this block, and re-entering one at the deopt
   transition would defeat the resume — so under Interp and Profile it
   is their ordinary [step], and under Trace a profiled dispatch that
   also skips the hot-loop poll. *)
let deopt_resume t g =
  match t.kind with
  | Interp | Profile -> step t g
  | Trace ->
      prologue t;
      profiled_dispatch t g;
      credit_clean t

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
let rec follow t (g : Layout.gid) =
  match t.active with
  | None -> step t g
  | Some tr ->
      let expected = tr.Trace.blocks.(t.active_pos) in
      let forced =
        Faults.flip_now t.faults ~pos:t.active_pos ~n_blocks:(Trace.n_blocks tr)
      in
      if g = expected && not forced then begin
        note_executed t g;
        if t.active_pos = Trace.n_blocks tr - 1 then finish_completed t tr
        else t.active_pos <- t.active_pos + 1
      end
      else begin
        match t.osr with
        | Some osr ->
            (* deoptimize: abandon the residue, resume block dispatch at
               the failing block *)
            deopt t osr tr ~resume:g
              ~reason:(if forced then Osr.Guard_flip else Osr.Guard_failure);
            deopt_resume t g
        | None ->
            (* side exit: leave the trace, then process g normally (it
               may itself enter another trace) *)
            finish_partial t tr ~guards:t.active_pos;
            follow t g
      end

(* The VM observer: re-select the backend if the ladder moved since the
   last dispatch (a mid-dispatch transition therefore takes effect at
   the next observed block), stamp the event clock, follow/step, then
   check for a decay boundary. *)
let on_block t (g : Layout.gid) =
  if not t.pinned then begin
    let level = Health.level t.health in
    if level <> t.kind_level then begin
      t.kind_level <- level;
      let k = select t.config level in
      if k <> t.kind then begin
        t.kind <- k;
        t.counts.Stats.backend_switches <- t.counts.Stats.backend_switches + 1
      end
    end
  end;
  (* stamp the stream once per observed block; events emitted during this
     step carry the current dispatch index *)
  Events.set_now t.events (total_dispatches t);
  follow t g;
  if Config.debug_checks t.config then begin
    (* decay boundary: the BCG ran one or more decay passes during this
       dispatch *)
    let d = (Profiler.bcg t.profiler).Bcg.decays in
    if d <> t.seen_decays then begin
      t.seen_decays <- d;
      debug_sweep t
    end
  end

(* ------------------------------------------------------------------ *)
(* life cycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?(config = Config.default) ?(events = Events.create ()) ?cache
    ?backend (layout : Layout.t) : t =
  let cache =
    match cache with
    | Some c ->
        if Trace_cache.layout c != layout then
          invalid_arg "Engine.create: cache built over a different layout";
        c
    | None ->
        Trace_cache.create
          ~max_traces:(Config.max_cache_traces config)
          ~eviction_policy:(Config.eviction_policy config)
          layout
  in
  (* parse the fault schedule here (not in Config.validate) so Config
     stays below Faults in the dependency order; a malformed spec still
     fails fast, at engine creation *)
  let faults =
    Faults.create ~seed:(Config.fault_seed config) (Config.fault_spec config)
  in
  let health = Health.create () in
  let osr =
    if Config.osr_enabled config then
      Some (Osr.create ~promote_after:(Config.osr_promote_after config) layout)
    else None
  in
  (* The black box and the decision ledger share the stream's one tap,
     out of band: neither is a subscriber, so a run with both still
     reports its stream quiet to user code.  Every event reaches the
     recorder's ring (hot kinds as scalars, written by the stream
     itself), and each cold event then reaches the ledger. *)
  let flightrec =
    let cap = Config.flightrec_capacity config in
    if cap > 0 then Some (Flightrec.create ~capacity:cap) else None
  in
  let ledger = Ledger.create () in
  Events.set_tap events
    ~ring:(Option.map Flightrec.ring flightrec)
    ~cold:(Ledger.observe ledger);
  (* The profiler's signal callback closes over the engine; tie the knot
     with a forward reference. *)
  let engine = ref None in
  let on_signal signal =
    match !engine with Some t -> on_signal t signal | None -> ()
  in
  let profiler =
    Profiler.create ~events config ~n_blocks:layout.Layout.n_blocks ~on_signal
  in
  let kind, pinned =
    match backend with
    | Some k -> (k, true)
    | None -> (select config (Health.level health), false)
  in
  let t =
    {
      config;
      layout;
      profiler;
      cache;
      events;
      ledger;
      health;
      faults;
      osr;
      flightrec;
      counts = Stats.zero ();
      on_path =
        (fun transitions ->
          Events.emit events (Events.Path_walked { transitions }));
      fail_install = (fun () -> Faults.take_install_failure faults);
      completed_ids = Bytes.empty;
      restored = 0;
      active = None;
      active_compiled = false;
      active_pos = 0;
      prev = -1;
      prev2 = -1;
      just_completed = false;
      seen_decays = 0;
      in_debug_sweep = false;
      pinned;
      kind;
      kind_level = Health.level health;
    }
  in
  engine := Some t;
  t

(* accessors over the abstract engine *)
let layout t = t.layout

let profiler t = t.profiler

let cache t = t.cache

let active_trace t = t.active

let health t = t.health

let flightrec t = t.flightrec

let ledger t = Some t.ledger

let inflight_matched_blocks t =
  match t.active with Some _ -> t.active_pos | None -> 0

let attach t (handle : Interp.handle) =
  match t.osr with
  | Some osr ->
      Osr.set_materialize osr (fun () -> Some (Interp.materialize handle))
  | None -> ()

let backend_name t = fst (describe_backend t.kind)

(* End-of-run statistics: the counters plus what only the VM knows. *)
let stats t ~(vm_result : Interp.result) ~wall_seconds : Stats.t =
  let s = counters t in
  s.Stats.instructions <- vm_result.Interp.instructions;
  s.Stats.wall_seconds <- wall_seconds;
  s

(* Warm starts: the engine-level snapshot is the Persist encoding of
   the profiler's BCG plus the live trace cache, and restoring is the
   only place the Cache_restored / Snapshot_rejected events are
   emitted, so every load attempt is visible on the timeline. *)

let snapshot t =
  Persist.encode ~layout:t.layout
    {
      Persist.bcg_nodes = Bcg.snapshot (Profiler.bcg t.profiler);
      cache_entries = Trace_cache.snapshot t.cache;
    }

type restore_info = {
  restored_traces : int;
  restored_blocks : int;
  restored_bcg_nodes : int;
  restored_bcg_edges : int;
  recompiled_traces : int;
}

let restore t data : (restore_info, Persist.error) result =
  match Persist.decode ~layout:t.layout data with
  | Error e ->
      t.counts.Stats.snapshots_rejected <- t.counts.Stats.snapshots_rejected + 1;
      Events.emit t.events
        (Events.Snapshot_rejected { reason = Persist.error_to_string e });
      fr_trigger t Flightrec.Snapshot_rejected;
      Error e
  | Ok snap ->
      let bcg = Profiler.bcg t.profiler in
      Bcg.restore bcg snap.Persist.bcg_nodes;
      let traces =
        Trace_cache.restore
          ~promoted_below:(Config.threshold t.config)
          t.cache ~events:t.events ~counts:t.counts snap.Persist.cache_entries
      in
      t.restored <- t.restored + traces;
      (* the compiled tier is derived state: snapshots persist heat, not
         lowered bodies, so re-derive the compiled set from the restored
         use counts (Tier.recompile_restored is a no-op with the tier
         off) *)
      let recompiled =
        Tier.recompile_restored t.config t.layout t.cache ~events:t.events
      in
      t.counts.Stats.traces_compiled <-
        t.counts.Stats.traces_compiled + recompiled;
      let info =
        {
          restored_traces = traces;
          restored_blocks = Trace_cache.live_blocks t.cache;
          restored_bcg_nodes = Bcg.n_nodes bcg;
          restored_bcg_edges = Bcg.n_edges bcg;
          recompiled_traces = recompiled;
        }
      in
      Events.emit t.events
        (Events.Cache_restored
           {
             traces;
             cache_blocks = info.restored_blocks;
             bcg_nodes = info.restored_bcg_nodes;
             bcg_edges = info.restored_bcg_edges;
           });
      Ok info

type run_result = {
  engine : t;
  vm_result : Interp.result;
  run_stats : Stats.t;
}

(* Drive an already-created engine over its program — the warm-start
   flow creates, restores, then drives. *)
let drive ?max_instructions t : run_result =
  let t0 = Unix.gettimeofday () in
  (* drive through a handle (not Interp.run) so the OSR deopt checks can
     materialize the live continuation; bit-identical either way *)
  let handle =
    Interp.start ?max_instructions t.layout ~on_block:(fun g -> on_block t g)
  in
  attach t handle;
  let vm_result = Interp.finish handle in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  { engine = t; vm_result; run_stats = stats t ~vm_result ~wall_seconds }

(* Run a program under the full system. *)
let run ?(config = Config.default) ?events ?max_instructions ?backend
    (layout : Layout.t) : run_result =
  drive ?max_instructions (create ~config ?events ?backend layout)
