(** The dispatch function.

    A {e backend} is one way of processing the VM's block-dispatch
    stream — the paper's ladder of execution modes made explicit:

    - [Interp] — pure interpretation, not even the profiler hook;
    - [Profile] — block dispatch with BCG profiling;
    - [Trace] — trace-cache dispatch over the profiled stream, with hot
      traces priced on the compiled micro-IR tier when
      {!Config.tier_enabled} is on.

    The engine owns one {!ctx} (the state every strategy shares) and
    picks the {!kind} per dispatch from the {!Health} ladder, so
    degradation is a backend {e switch} rather than mode flags threaded
    through one loop.  All three strategies observe the same stream and
    keep the VM's results bit-identical — a backend only changes what
    bookkeeping rides along.  They differ only in how a block outside
    any trace is dispatched; trace construction, entry, following and
    exit, the health-ladder walk and the invariant sweep are shared. *)

type ctx = {
  config : Config.t;
  layout : Cfg.Layout.t;
  profiler : Profiler.t;
  cache : Trace_cache.t;
  events : Events.t;
  ledger : Ledger.t;
      (** the decision ledger, fed by the event tap the engine
          installs *)
  health : Health.t;
  faults : Faults.t;
  osr : Osr.t option;
      (** on-stack replacement state; [None] when [Config.osr_enabled] is off *)
  flightrec : Flightrec.t option;
      (** the always-on black box; [None] only when
          [Config.flightrec_capacity = 0].  Dump triggers fire from
          the invariant sweep, the ladder bottom and snapshot
          rejection; the intake rides the event tap. *)
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
          [Health], [Faults]) stay zero here; {!counters} fills them
          in on a copy. *)
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
(** The engine's dispatch state, shared by every strategy.  The engine
    creates and owns it; read its counters through [Engine.counters]. *)

type kind = Interp | Profile | Trace
(** The dispatch strategies, in ladder order (bottom up). *)

val describe : kind -> string * string
(** [(name, description)]: the stable one-word identifier (["interp"] /
    ["profile"] / ["trace"]) and a one-line description of the
    strategy. *)

val on_block : ctx -> kind -> Cfg.Layout.gid -> unit
(** The VM observer: feed one dispatched block under strategy [kind].
    An active trace is followed to its end whatever the kind; a block
    outside every trace is dispatched the way [kind] says.

    Each followed position counts as one checked guard.  A guard fails
    organically (mismatching block) or by an armed FT008 flip
    ({!Faults.flip_now}).  Without OSR both take the classic side exit
    and reprocess the block through the full dispatch path; with OSR
    both deoptimize and resume with a block dispatch that never consults
    the trace cache.

    Under [Trace], a cache hit enters the trace; with
    {!Config.tier_enabled} the entry first runs the tier cost model
    ([Tier.maybe_compile]) and, for a trace holding a lowered body,
    accounts the entry and every followed position on the compiled
    tier.  Under self-healing every candidate trace is validated before
    entry.  When {!Config.snapshot_period} is positive, every
    [period]-th dispatch first publishes a [Phase_snapshot] stamped
    with its 1-based index ([clock + 1]), sampled from the five
    histograms, {!counters} and the cache, recorder and ledger state.
    After the dispatch, a decay boundary runs the invariant
    sweep when {!Config.debug_checks} is on. *)

val on_signal : ctx -> Bcg.signal -> unit
(** The profiler-signal subscriber: when {!Config.build_traces} is on,
    rebuild every trace the signalled branch can affect
    ([Trace_builder.on_signal]), fold the outcome into [counts] and run
    the construction-boundary sweep when {!Config.debug_checks} is on. *)

val clock : ctx -> int
(** The engine's dispatch clock ([counts.block_dispatches +
    counts.trace_dispatches]) — the cache clock and the event stream's
    timestamp base alike. *)

val counters : ctx -> Stats.t
(** Every counter as it stands now, in a fresh record: a copy of
    [counts] with the counters other modules own filled in.  The fields
    only the VM knows ([instructions], [wall_seconds]) are zero. *)

val fr_trigger : ctx -> Flightrec.dump_reason -> unit
(** Fire a flight-recorder dump trigger; no-op when the recorder is
    disarmed. *)

val run_debug_checks : ctx -> unit
(** The invariant sweep ({!Config.debug_checks}): count and publish
    every finding; also translation-validates traces the sweep has not
    seen yet ([Trace_prover.validate_new] — TL212–TL218).  Under
    self-healing the sweep heals flagged BCG nodes, quarantines flagged
    traces (deoptimizing first when OSR is on and the flagged trace is
    executing) and strikes the ladder.  Re-entrancy guarded. *)
