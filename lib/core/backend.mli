(** The dispatch-strategy seam.

    A {e backend} is one way of processing the VM's block-dispatch
    stream — the paper's ladder of execution modes made explicit:

    - [Backend_interp] — pure interpretation, not even the profiler hook;
    - [Backend_profile] — block dispatch with BCG profiling;
    - [Backend_trace] — trace-cache dispatch over the profiled stream.

    The engine owns one {!ctx} (the state every strategy shares) and
    selects a backend per dispatch from the {!Health} ladder, so
    degradation is a backend {e switch} rather than mode flags threaded
    through one loop.  All three strategies observe the same stream and
    keep the VM's results bit-identical — a backend only changes what
    bookkeeping rides along.

    This module holds the shared context and the helpers strategies
    compose ({!prologue}, {!follow}, {!observe}, the trace
    completion/side-exit bookkeeping, the health-ladder walk and the
    invariant sweep); the strategy implementations live in their own
    modules. *)

type ctx = {
  config : Config.t;
  layout : Cfg.Layout.t;
  profiler : Profiler.t;
  cache : Trace_cache.t;
  events : Events.t;
  metrics : Metrics.t;
  health : Health.t;
  faults : Faults.t;
  osr : Osr.t option;
      (** on-stack replacement state; [None] when [Config.osr_enabled] is off *)
  spans : Spans.t option;
      (** causal span recorder; [None] when [Config.obs_spans] is off *)
  flightrec : Flightrec.t option;
      (** the always-on black box; [None] only when
          [Config.flightrec_capacity = 0].  Dump triggers fire from
          the invariant sweep, the ladder bottom and snapshot
          rejection; the intake rides the event tap and the span
          close hook. *)
  attr_self : int array;
      (** per-gid dispatches outside any trace; [[||]] when
          [Config.obs_attribution] is off *)
  attr_inlined : int array;
      (** per-gid block executions inlined inside traces *)
  h_trace_len : Metrics.histogram;
      (** blocks per executed (completed) trace *)
  h_exit_distance : Metrics.histogram;
      (** blocks matched before a side exit *)
  h_build_len : Metrics.histogram;  (** blocks per installed builder path *)
  h_backoff : Metrics.histogram;
      (** finite quarantine backoff durations *)
  h_deopt_residue : Metrics.histogram;
      (** trace positions abandoned past each OSR deopt point *)
  counts : Stats.t;
      (** the counters the dispatch loop advances, updated in place.
          Counters other modules own ([Profiler], [Trace_cache], [Osr],
          [Health], [Faults]) stay zero here; [Engine.counters] fills
          them in on a copy. *)
  mutable active : Trace.t option;
      (** the trace currently being followed *)
  mutable active_lowered : Microir.body option;
      (** the active trace's compiled body when it was entered on the
          compiled tier ({!Config.tier_enabled}); positions followed while this
          is set are accounted as micro-op dispatches.  Cleared with
          [active]. *)
  mutable active_pos : int;  (** index of the next expected block *)
  mutable matched_blocks : int;
  mutable matched_instrs : int;
  mutable prev : Cfg.Layout.gid;
      (** last block actually executed, traces included *)
  mutable prev2 : Cfg.Layout.gid;
  mutable just_completed : bool;
      (** the previous dispatch completed a trace, so an entry now
          chains *)
  mutable seen_decays : int;
  mutable in_debug_sweep : bool;
}
(** The engine's dispatch state, shared by every strategy.  The record
    is concrete so strategies (including out-of-tree ones) can be
    written against it; everyone else should treat it as owned by the
    engine and read its counters through [Engine.counters]. *)

(** One dispatch strategy. *)
module type S = sig
  val name : string
  (** Stable one-word identifier: ["interp"] / ["profile"] /
      ["trace"]. *)

  val describe : string
  (** One-line human-readable description of the strategy. *)

  val step : ctx -> Cfg.Layout.gid -> unit
  (** Process one block dispatched {e outside} any trace: the dispatch
      decision that distinguishes the strategies. *)

  val on_block : ctx -> Cfg.Layout.gid -> unit
  (** The full VM observer: follow the active trace if any, else
      {!step}; built from {!observe}. *)

  val poll_osr : ctx -> Cfg.Layout.gid -> unit
  (** OSR {e entry} point: feed one outside-trace dispatch to hot-loop
      detection ({!Osr.observe_header}).  The interp strategy ignores
      it, the profile strategy counts header heat without acting, and
      the trace strategy promotes the loop mid-iteration on a threshold
      crossing.  No-op when OSR is off. *)

  val deopt_resume : ctx -> Cfg.Layout.gid -> unit
  (** OSR {e exit} point: process the block dispatch execution resumes
      at after a deoptimization.  A plain dispatch that never consults
      the trace cache — the engine just abandoned a trace, and
      re-entering one at the deopt transition would defeat the
      resume. *)
end

(** {2 Shared helpers for strategy implementations} *)

val prologue : ctx -> unit
(** The dispatch prologue every [step] runs first: advance the metrics
    clock and, when self-healing or fault injection is armed, the cache
    clock and the fault injector. *)

val note_executed : ctx -> Cfg.Layout.gid -> unit
(** Record [g] as the most recently executed block (shifting the
    two-block window the profiler resynchronizes from). *)

val clock : ctx -> int
(** The engine's dispatch clock ([counts.block_dispatches +
    counts.trace_dispatches]) — the timestamp base of spans, the cache clock
    and the event stream alike. *)

val fr_trigger : ctx -> Flightrec.dump_reason -> unit
(** Fire a flight-recorder dump trigger; no-op when the recorder is
    disarmed. *)

val attr_inline : ctx -> Cfg.Layout.gid -> unit
(** Attribute one execution of [g] inlined inside a trace; no-op when
    attribution is off. *)

val block_dispatch : ctx -> Cfg.Layout.gid -> unit
(** Count and attribute one ordinary block dispatch of [g] outside any
    trace; the caller runs (or skips) the profiler hook. *)

val note_build : ctx -> Trace_builder.outcome -> unit
(** Fold one trace-builder outcome into [counts]: traces constructed,
    builder reuses and pruned guards. *)

val account_lowered : ctx -> int -> unit
(** Compiled-tier accounting for one followed trace position ([pos]):
    micro-ops, fused ops and baseline source instructions from the
    active lowered body.  No-op when the active trace is on the
    interpreted tier ([active_lowered = None]). *)

val condemn :
  ctx ->
  first:Cfg.Layout.gid ->
  head:Cfg.Layout.gid ->
  code:string ->
  Trace.t option
(** [Trace_cache.quarantine] plus the observability side of the episode:
    records the finite backoff duration in [h_backoff] and emits a
    closed quarantine span stretching to the backoff expiry. *)

val apply_health : ctx -> Health.transition -> unit
(** Publish a ladder transition ([Mode_degraded] / [Mode_recovered])
    and reset the profiler when climbing out of interp-only. *)

val run_debug_checks : ctx -> unit
(** The invariant sweep ({!Config.debug_checks}): count and publish
    every finding; also translation-validates traces the sweep has not
    seen yet ([Trace_prover.validate_new] — TL212–TL218).  Under
    self-healing the sweep heals flagged BCG nodes, quarantines flagged
    traces and strikes the ladder.  Re-entrancy guarded. *)

val finish_completed : ctx -> Trace.t -> unit
(** End the active trace after a completion and resync the profiler. *)

val finish_partial : ctx -> Trace.t -> unit
(** End the active trace after a side exit (the mismatching block has
    not been processed yet) and resync the profiler. *)

val deopt : ctx -> Osr.t -> Trace.t -> resume:Cfg.Layout.gid -> reason:Osr.reason -> unit
(** OSR deoptimization: abandon the active trace at the current position
    and resume block dispatch at [resume].  Performs the side-exit
    bookkeeping ({!finish_partial}: event, profiler resync, unpin),
    records the abandoned residue, checks the materialized interpreter
    continuation against [resume] (TL219 on mismatch) and emits
    [Deopt_entered]. *)

val deopt_active : ctx -> reason:Osr.reason -> unit
(** Mid-flight cut-over: deoptimize the currently executing trace (a
    sweep is condemning it) at whatever block the interpreter
    materializes.  No-op when no trace is active or OSR is off. *)

val validate_dispatch :
  ctx -> Trace.t -> prev:Cfg.Layout.gid -> cur:Cfg.Layout.gid -> string option
(** Validate a trace produced by the dispatch lookup before entering
    it; [Some code] names the first violated invariant. *)

val follow :
  step:(ctx -> Cfg.Layout.gid -> unit) ->
  deopt_resume:(ctx -> Cfg.Layout.gid -> unit) ->
  ctx ->
  Cfg.Layout.gid ->
  unit
(** Follow the active trace, if any; a block outside every trace goes
    to [step].  An active trace is followed to its end regardless of
    health-level changes mid-trace.  Each followed position counts as
    one guard — [guards_elided] when [Trace.pruned] covers it,
    [guards_checked] otherwise — and an organic mismatch on a pruned
    position is reported as a TL217 disproof under [debug_checks].

    A guard fails organically (mismatching block) or by an armed FT008
    flip ({!Faults.flip_now}).  Without OSR both take the classic side
    exit and reprocess the block through the full dispatch path; with
    OSR both {!deopt} and resume through [deopt_resume]. *)

val observe :
  step:(ctx -> Cfg.Layout.gid -> unit) ->
  deopt_resume:(ctx -> Cfg.Layout.gid -> unit) ->
  ctx ->
  Cfg.Layout.gid ->
  unit
(** The full VM observer a backend's [on_block] is built from: stamp
    the event clock, {!follow}, then run the decay-boundary invariant
    sweep when armed. *)
