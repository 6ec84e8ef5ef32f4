module Layout = Cfg.Layout
module Interp = Vm.Interp

(* The complete system (engine.mli describes the model): the VM's
   block-dispatch stream drives the profiler, profiler signals drive
   trace reconstruction, and the trace cache overlays trace dispatch
   onto the stream.  One record, [t], holds the dispatch state.

   The dispatch is defined once and instantiated twice (the "dispatch"
   section): [create] picks the paper's instantiation ([paper_follow],
   [paper_profile]) where nothing optional can act, and the general one
   ([general_on_block]) otherwise.  Both enter traces through [enter]
   and leave them through [finish_completed] and [finish_partial], which
   bump every counter, emit every event and set [prev]/[prev2] from the
   trace body, so a run's counters, stream, ledger and recorder window
   do not depend on the path. *)

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

(* The dispatch paths: the paper's, for the [Trace] or the [Profile]
   kind, or the general one, re-selecting the kind from the ladder or
   pinned to the kind given at creation. *)
type path = Paper_trace | Paper_profile | Ladder | Pinned

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
  flightrec : Flightrec.t option;
    (* the black box (None when Config.flightrec_capacity = 0), fed by
       the event tap; dump triggers fire here *)
  counts : Stats.t; (* the counters the engine advances, in place *)
  on_path : int -> unit; (* the builder's walk observer: [Path_walked] *)
  fail_install : unit -> bool;
    (* the builder's install gate: this engine's armed FT006 failure *)
  mutable completed_ids : Bytes.t;
    (* by trace id: '\001' once this engine completed the trace *)
  mutable restored : int; (* traces rebound by [restore] *)
  mutable active_pos : int;
    (* index of the next expected block of the active trace: the
       positions matched so far, folded into the counters at its exit;
       0 = no trace *)
  mutable active : Trace.t;
    (* the active trace; after an exit, the last one followed
       (Trace.none before the first).  Only an entry of another trace
       writes it, so re-entering a loop trace writes no pointer *)
  mutable active_compiled : bool;
    (* the active trace was entered on the compiled tier: its exit
       accounts the positions it matched as micro-ops *)
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
  path : path; (* the dispatch path [create] chose *)
  mutable kind : backend_kind;
  mutable kind_level : Health.level; (* level [kind] was selected from *)
}

(* The trace being followed, or Trace.none: every reader outside the
   dispatch functions goes through here. *)
let active t = if t.active_pos > 0 then t.active else Trace.none

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
   entered on the compiled tier, added into [c] when the trace ends and
   by [counters] for the trace in flight.  Exact: a followed trace is
   pinned, so never demoted, and [tr.lowered] is the body entered. *)
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

(* ---- trace exit and deoptimization --------------------------------- *)

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

(* The compiled tier's part of a trace exit after [upto] positions: the
   general path runs it before either exit below. *)
let exit_compiled t (tr : Trace.t) upto =
  if t.active_compiled then account_compiled t.counts tr upto

(* The exit's [prev]/[prev2], on both paths: the last two blocks of the
   [upto >= 1] positions of [tr] that ran, read back from the body, which
   cannot change under a followed trace (it is pinned, and faults spare
   pinned traces).  With one position, the entry's [note_executed]
   already set them. *)
let[@inline] prev_from_body t (tr : Trace.t) upto =
  if upto >= 2 then begin
    t.prev2 <- Array.unsafe_get tr.Trace.blocks (upto - 2);
    t.prev <- Array.unsafe_get tr.Trace.blocks (upto - 1)
  end

(* End the active trace after a completion: every position past the
   entry was a guard that held.  Leaving writes no pointer. *)
let finish_completed t (tr : Trace.t) =
  prev_from_body t tr (Trace.n_blocks tr);
  t.just_completed <- true;
  note_static t tr;
  let c = t.counts in
  c.Stats.guards_checked <- c.Stats.guards_checked + Trace.n_blocks tr - 1;
  c.Stats.traces_completed <- c.Stats.traces_completed + 1;
  c.Stats.completed_blocks <- c.Stats.completed_blocks + Trace.n_blocks tr;
  c.Stats.completed_instrs <- c.Stats.completed_instrs + tr.Trace.total_instrs;
  t.active_pos <- 0;
  Trace_cache.unpin t.cache tr;
  Events.emit_trace_completed t.events ~trace_id:tr.Trace.id
    ~n_blocks:(Trace.n_blocks tr) ~n_instrs:tr.Trace.total_instrs;
  (* the profiler missed the trace interior: reposition its context at the
     trace's final branch *)
  Profiler.resync t.profiler ~x:t.prev2 ~y:t.prev

(* End the active trace after a side exit, before the mismatching block
   is processed.  [guards] counts the failed one; the matched
   instructions are summed from the trace's live per-block counts. *)
let finish_partial t (tr : Trace.t) ~guards =
  let at = t.active_pos in
  prev_from_body t tr at;
  t.just_completed <- false;
  let c = t.counts in
  let matched_instrs = ref 0 in
  for i = 0 to at - 1 do
    matched_instrs := !matched_instrs + tr.Trace.instr_len.(i)
  done;
  c.Stats.guards_checked <- c.Stats.guards_checked + guards;
  c.Stats.partial_blocks <- c.Stats.partial_blocks + at;
  c.Stats.partial_instrs <- c.Stats.partial_instrs + !matched_instrs;
  t.active_pos <- 0;
  Trace_cache.unpin t.cache tr;
  Events.emit_side_exit t.events ~trace_id:tr.Trace.id ~at_block:at
    ~matched_instrs:!matched_instrs;
  Profiler.resync t.profiler ~x:t.prev2 ~y:t.prev

(* OSR deoptimization: abandon the active trace here and resume block
   dispatch at [resume].  A deopt is a side exit ([finish_partial]) plus
   a proof that the interpreter's innermost block already is [resume],
   because the overlay never moved it (TL219 on mismatch). *)
let deopt t (osr : Osr.t) (tr : Trace.t) ~resume ~(reason : Osr.reason) =
  let c = t.counts in
  let at = t.active_pos in
  let residue = Trace.n_blocks tr - at in
  (match Osr.probe osr with
  | Some innermost ->
      c.Stats.osr_state_checks <- c.Stats.osr_state_checks + 1;
      let b = innermost () in
      let ok = if b < 0 then resume < 0 else b = resume in
      if not ok then begin
        c.Stats.osr_state_mismatches <- c.Stats.osr_state_mismatches + 1;
        if Config.debug_checks t.config then begin
          let at_block = if b < 0 then "<stopped>" else string_of_int b in
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
                     tr.Trace.id at resume at_block;
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
  exit_compiled t tr at;
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

(* Mid-flight cut-over of the executing trace a sweep condemns.  Between
   dispatches no block mismatched, so resume at the interpreter's
   innermost block (-1 with no handle). *)
let deopt_active t ~reason =
  match t.osr with
  | Some osr when active t != Trace.none ->
      let resume =
        match Osr.probe osr with Some innermost -> innermost () | None -> -1
      in
      deopt t osr t.active ~resume ~reason
  | _ -> ()

(* ---- the invariant sweep ------------------------------------------- *)

(* The invariant sweep (Config.debug_checks), at trace-construction and
   decay boundaries: count and publish every finding.  Under self-heal
   it also heals flagged BCG nodes in place, quarantines flagged traces
   and strikes the health ladder once. *)
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
                (* OSR mid-flight cut-over: deoptimize the flagged trace
                   if it is executing, so its pin drops and the
                   quarantine below is not refused.  Without OSR the pin
                   refuses it, and a later sweep condemns the trace. *)
                if (active t).Trace.id = trace_id then
                  deopt_active t ~reason:Osr.Condemned;
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

(* ---- counters and the dispatch prologue ---------------------------- *)

(* A copy of the engine's counters plus, in this one place, those other
   modules own and what the active trace's exit will count so far. *)
let counters t : Stats.t =
  let s = Stats.copy t.counts in
  let tr = active t in
  if tr != Trace.none then begin
    s.Stats.guards_checked <- s.Stats.guards_checked + t.active_pos - 1;
    if t.active_compiled then account_compiled s tr t.active_pos
  end;
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

(* The general path's prologue: every [snapshot_period] dispatches a
   phase snapshot stamped with this dispatch's 1-based index; under
   self-healing or faults, the cache clock and the fault injector. *)
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
         ~events:t.events ~counts:c)
  end

(* ---- trace construction -------------------------------------------- *)

(* Every trace construction ends here: fold the builder's outcome into
   the counters and, when [sweep] holds, run the invariant sweep. *)
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

(* Feed one outside-trace dispatch of [g] to OSR hot-loop detection
   (None when OSR is off); [promote = false] saturates the heat. *)
let hot_loop t g ~promote =
  match t.osr with
  | Some osr -> Osr.observe_header osr g ~promote
  | None -> None

(* OSR mid-loop promotion: build a hot header's loop trace now, so the
   next latch->header transition enters it.  Returns whether a trace
   was installed; the sweep runs only when one was built. *)
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

(* ---- trace entry --------------------------------------------------- *)

(* The compiled tier's part of a trace entry (Config.tier_enabled): the
   tier cost model (Tier.maybe_compile) lowers a hot enough trace to
   micro-IR, and entering a trace that holds a lowered body sets
   [active_compiled], so its exit accounts the positions it matched as
   micro-ops.  The VM runs the same bytecode on either tier. *)
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
  if entered_compiled then begin
    c.Stats.compiled_entries <- c.Stats.compiled_entries + 1;
    (* a single-block trace completes at its entry: account it here *)
    if Trace.n_blocks tr = 1 then account_compiled c tr 1
  end;
  t.active_compiled <- entered_compiled

(* Enter a trace the dispatch lookup produced, on either path: pin it,
   count the trace dispatch, run the single profiler hook and start
   following (a single-block trace completes immediately). *)
let enter t (tr : Trace.t) g =
  (* executing traces are pinned against eviction and quarantine for the
     duration of the dispatch; finish_completed/finish_partial unpin *)
  Trace_cache.pin t.cache tr;
  let c = t.counts in
  c.Stats.traces_entered <- c.Stats.traces_entered + 1;
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
    if t.active != tr then t.active <- tr;
    t.active_pos <- 1
  end

(* ---- dispatch: one definition, two instantiations ------------------ *)

(* Each piece of the dispatch (a block outside any trace under the
   [Trace] or the [Profile] kind, following a trace, leaving it) is one
   [@inline] function over [~general], instantiated as the paper's path
   ([paper_step], [paper_profile], [paper_follow]: [~general:false]) and
   the general one ([trace_dispatch], [step]'s [Profile] arm, [follow]).
   Each optional subsystem is an [if general then ...] hook at one named
   point.  The flag is a literal at each instantiation and is tested at
   its use, never through a [let]: ocamlopt (Closure mode) then folds
   every hook out of the paper's path, while a flag bound to a variable
   leaves its compare behind. *)

(* The tier's entry and OSR's entry count, before [enter]. *)
let general_entry t (tr : Trace.t) =
  if Config.tier_enabled t.config then enter_compiled t tr;
  (* the first entry of the latest promoted trace is an OSR entry taken *)
  match t.osr with
  | Some osr when Osr.take_armed osr ~trace_id:tr.Trace.id ->
      t.counts.Stats.osr_entries <- t.counts.Stats.osr_entries + 1
  | _ -> ()

(* OSR's promotion poll on a lookup's miss.  Hot-loop heat accumulates
   only on misses: a loop running under trace dispatch has nothing to
   promote, and one that loses coverage re-heats at its next miss.  When
   the miss that crossed the threshold is the latch->header transition,
   this very dispatch enters the freshly promoted trace. *)
let[@inline] promote_on_miss t g (hit : Trace.t option) =
  match hit with
  | Some _ -> hit
  | None ->
      if poll_promote t g then Trace_cache.lookup t.cache ~prev:t.prev ~cur:g
      else None

(* Self-healing's check of a looked-up trace before entry: the code of
   the first violated invariant (the binding key, then the TL2xx
   battery over the body), or None. *)
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

(* Self-healing's entry check: a trace that fails validation is
   condemned at dispatch, its entry quarantined and the ladder struck;
   the block is then dispatched normally. *)
let[@inline] condemned t (tr : Trace.t) g =
  Config.self_heal t.config
  &&
  match validate_dispatch t tr ~prev:t.prev ~cur:g with
  | None -> false
  | Some code ->
      ignore
        (Trace_cache.quarantine t.cache ~events:t.events ~counts:t.counts
           ~first:t.prev ~head:g ~code);
      apply_health t (Health.strike t.health);
      true

(* The ladder's credit for a clean dispatch, under self-healing. *)
let[@inline] credit_clean t =
  if Config.self_heal t.config then
    apply_health t (Health.clean_dispatch t.health)

(* An ordinary profiled block dispatch: the hook runs, the trace cache
   is not consulted. *)
let profiled_dispatch t g =
  block_dispatch t;
  Profiler.dispatch t.profiler g;
  note_executed t g

(* A profiled dispatch the general path credits to the ladder.  On the
   paper's path the dispatch stays a tail call. *)
let[@inline] profiled ~general t g =
  if general then (
    profiled_dispatch t g;
    credit_clean t)
  else profiled_dispatch t g

(* The [Trace] kind's block outside any trace: consult the cache by the
   entering transition.  A hit is one trace dispatch (the hook runs
   once, the interior blocks are inlined), a miss one profiled block
   dispatch.  The general path stamps the stream once per observed block
   ([general_on_block]); the paper's stamps it here and again after an
   entry, which gives what the trace's exit emits the same index. *)
let[@inline] dispatch_trace ~general t g =
  if not general then Events.set_now t.events (total_dispatches t);
  let hit = Trace_cache.lookup t.cache ~prev:t.prev ~cur:g in
  let hit = if general then promote_on_miss t g hit else hit in
  match hit with
  | Some tr when not (general && condemned t tr g) ->
      if general then general_entry t tr;
      enter t tr g;
      if general then credit_clean t
      else Events.set_now t.events (total_dispatches t)
  | Some _ -> (* condemned: no credit *) profiled_dispatch t g
  | None -> profiled ~general t g

let trace_dispatch t g = dispatch_trace ~general:true t g

let paper_step t g = dispatch_trace ~general:false t g

(* The [Profile] kind's block: the hook runs and the cache is never
   consulted.  Under OSR the block's header heat saturates (OSR's own
   state, so before the dispatch or after it alike). *)
let[@inline] dispatch_profile ~general t g =
  if general then ignore (hot_loop t g ~promote:false)
  else Events.set_now t.events (total_dispatches t);
  profiled ~general t g

let paper_profile t g = dispatch_profile ~general:false t g

(* The general path's block outside any trace: the prologue, then the
   decision that distinguishes the kinds.
   - Interp (Health.Interp_only): the profiler hook does not run, so its
     branch context goes stale (apply_health resets it on promotion);
     clean dispatches still feed the ladder.
   - Profile (Health.Profiling_only, or build_traces off): signals still
     reach [on_signal], which builds only under build_traces.
   - Trace (Health.Full_tracing): [trace_dispatch]. *)
let step t g =
  prologue t;
  match t.kind with
  | Interp ->
      block_dispatch t;
      Profiler.note_skipped t.profiler;
      note_executed t g;
      apply_health t (Health.clean_dispatch t.health)
  | Profile -> dispatch_profile ~general:true t g
  | Trace -> trace_dispatch t g

(* OSR exit point: the block dispatch execution resumes at after a
   deoptimization.  Re-entering a trace at the deopt transition would
   defeat the resume, so under Trace it is a profiled dispatch without
   the cache or the hot-loop poll. *)
let deopt_resume t g =
  match t.kind with
  | Interp | Profile -> step t g
  | Trace ->
      prologue t;
      profiled ~general:true t g

(* OSR's exit at a failed guard: deoptimize, abandoning the residue, and
   resume block dispatch at the failing block [g].  Whether OSR is on
   and took the exit. *)
let osr_exit t (tr : Trace.t) g ~forced =
  match t.osr with
  | Some osr ->
      deopt t osr tr ~resume:g
        ~reason:(if forced then Osr.Guard_flip else Osr.Guard_failure);
      deopt_resume t g;
      true
  | None -> false

(* Leave the active trace [tr] at a failed guard: [g] mismatched, or an
   FT008 flip [forced] the failure.  A side exit, after which [g] is
   dispatched as a block outside any trace (it may enter another); with
   OSR a deopt instead. *)
let[@inline] leave ~general t (tr : Trace.t) g ~forced =
  if not (general && osr_exit t tr g ~forced) then begin
    let pos = t.active_pos in
    if general then exit_compiled t tr pos;
    finish_partial t tr ~guards:pos;
    if general then step t g else paper_step t g
  end

(* The observed block [g]: follow the active trace, whatever the kind,
   or dispatch [g] outside any.  An interior block is one gid compare
   and an index bump ([prev_from_body] sets [prev]/[prev2] at the exit);
   on the general path an armed FT008 flip fails the guard first. *)
let[@inline] follow_trace ~general t (g : Layout.gid) =
  let pos = t.active_pos in
  if pos = 0 then if general then step t g else paper_step t g
  else begin
    let tr = t.active in
    let blocks = tr.Trace.blocks in
    (* 0 < pos < Array.length blocks while a trace is active *)
    if general && Faults.flip_now t.faults ~pos ~n_blocks:(Array.length blocks)
    then leave ~general t tr g ~forced:true
    else if g = Array.unsafe_get blocks pos then begin
      if pos + 1 < Array.length blocks then t.active_pos <- pos + 1
      else begin
        if general then exit_compiled t tr (pos + 1);
        finish_completed t tr
      end
    end
    else leave ~general t tr g ~forced:false
  end

let follow t g = follow_trace ~general:true t g

let paper_follow t g = follow_trace ~general:false t g

(* The general path's VM observer: re-select the backend if the ladder
   moved since the last dispatch (a mid-dispatch transition therefore
   takes effect at the next observed block), stamp the event clock once
   for every event this block emits, follow, then check for a decay
   boundary. *)
let general_on_block t (g : Layout.gid) =
  if t.path = Ladder then begin
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

(* The VM observer the engine's path installs: a caller that hands it to
   the VM pays no test per block.  [on_block] is the same dispatch for a
   caller feeding blocks one at a time. *)
let observer t : Layout.gid -> unit =
  match t.path with
  | Paper_trace -> fun g -> paper_follow t g
  | Paper_profile -> fun g -> paper_profile t g
  | Ladder | Pinned -> fun g -> general_on_block t g

let on_block t g =
  match t.path with
  | Paper_trace -> paper_follow t g
  | Paper_profile -> paper_profile t g
  | Ladder | Pinned -> general_on_block t g

(* ---- life cycle ---------------------------------------------------- *)

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
  (* the paper's path where nothing optional can act; the ladder and
     the kind then stay where they start *)
  let path =
    let paper =
      (not (Config.osr_enabled config || Config.self_heal config))
      && (not (Config.debug_checks config || Config.tier_enabled config))
      && Config.snapshot_period config = 0
      && not (Faults.is_active faults)
    in
    match kind with
    | Trace when paper -> Paper_trace
    | Profile when paper -> Paper_profile
    | _ -> if pinned then Pinned else Ladder
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
      active_pos = 0;
      active = Trace.none;
      active_compiled = false;
      prev = -1;
      prev2 = -1;
      just_completed = false;
      seen_decays = 0;
      in_debug_sweep = false;
      path;
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

let health t = t.health

let flightrec t = t.flightrec

let ledger t = Some t.ledger

let active_trace t =
  let tr = active t in
  if tr == Trace.none then None else Some tr

let inflight_matched_blocks t = t.active_pos

let paper_path t = t.path = Paper_trace || t.path = Paper_profile

let attach t (handle : Interp.handle) =
  match t.osr with
  | Some osr ->
      Osr.set_probe osr (fun () -> Interp.innermost_block handle)
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
      (* snapshots persist heat, not lowered bodies: re-derive the
         compiled set (a no-op with the tier off) *)
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
     read the live continuation's innermost block; bit-identical either
     way *)
  let handle =
    Interp.start ?max_instructions t.layout ~on_block:(observer t)
  in
  attach t handle;
  let vm_result = Interp.finish handle in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  { engine = t; vm_result; run_stats = stats t ~vm_result ~wall_seconds }

let run ?(config = Config.default) ?events ?max_instructions ?backend
    (layout : Layout.t) : run_result =
  drive ?max_instructions (create ~config ?events ?backend layout)
