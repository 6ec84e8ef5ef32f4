(** The complete system: VM + profiler + trace cache (paper §4).

    The VM's block-dispatch stream drives the profiler; profiler signals
    drive trace reconstruction; and the trace cache overlays trace
    dispatch onto the stream.

    The engine is a thin shell over {!Backend}: it owns one
    [Backend.ctx] (the dispatch state every strategy shares) and picks
    the dispatch strategy per observed block from the {!Health} ladder
    — [Full_tracing] maps to [Trace] (or [Profile] when
    {!Config.build_traces} is off), [Profiling_only] to [Profile],
    [Interp_only] to [Interp] — so walking the degradation ladder {e is}
    switching backends ([Stats.backend_switches]).  The compiled micro-IR
    tier ({!Config.tier_enabled}) is part of trace dispatch, not a
    strategy of its own.  A backend can also be pinned at {!create}.

    Dispatch accounting mirrors the modified SableVM:

    - a block dispatched outside any trace executes the profiler hook and
      counts as one {e block dispatch};
    - a dispatch whose transition enters a trace executes the hook once
      and counts as one {e trace dispatch}; the trace's interior blocks
      are inlined — no dispatch, no hook;
    - on a side exit or completion the profiler context is
      resynchronized to the last two executed blocks and normal
      dispatching resumes.

    Tracing is a pure overlay: results and instruction counts are
    identical with and without it.

    {2 Observing the engine}

    The engine type is abstract.  Its accounting is read through
    {!counters} (live) or, end-of-run, through {!stats}; its lifecycle
    is published on {!events}, the typed {!Events} stream every
    component emits on ([Signal_raised], [Trace_constructed],
    [Trace_entered], [Side_exit], [Trace_completed], [Trace_replaced],
    [Decay_pass], …).  Subscribe before driving the engine; a run with
    no subscribers — the default, where only the flight recorder and
    the ledger tap the stream — allocates nothing per dispatch.  With
    [Config.snapshot_period] positive the engine also samples its
    histograms, every {!Stats.counters} entry (bar [instructions]) and
    its cache, recorder and ledger state every [period] dispatches, and
    publishes each sample as a [Phase_snapshot] event: the stream is
    the phase-analysis time series. *)

type t

type backend_kind = Backend.kind = Interp | Profile | Trace
(** The dispatch strategies, in ladder order (bottom up). *)

val backend_kind_name : backend_kind -> string
(** ["interp"] / ["profile"] / ["trace"]: the name half of
    {!Backend.describe}. *)

val backends : backend_kind list
(** Every strategy: [[Interp; Profile; Trace]]. *)

val create :
  ?config:Config.t ->
  ?events:Events.t ->
  ?cache:Trace_cache.t ->
  ?backend:backend_kind ->
  Cfg.Layout.t ->
  t
(** [events] is the stream the engine and its components publish on; a
    fresh (disabled) stream is created when omitted.  Subscribe to the
    stream {e before} driving the engine to capture the full timeline.

    [cache] injects an existing trace cache instead of creating a
    private one — the [Session] layer uses this to share traces between
    engines running the same layout.  The injected cache keeps the
    capacity/healing parameters of its creator.
    @raise Invalid_argument if the cache was built over another layout.

    [backend] pins the dispatch strategy: the health ladder still runs
    its accounting but the strategy is never re-selected.  When omitted
    the backend follows the ladder. *)

val on_block : t -> Cfg.Layout.gid -> unit
(** The VM observer: feed one dispatched block.  Exposed so the engine
    can be driven by any block stream (the baselines and tests do). *)

val counters : t -> Stats.t
(** Every counter as it stands now, in a fresh record that later
    dispatches do not change.  The fields only the VM knows
    ([instructions], [wall_seconds]) are zero. *)

val stats : t -> vm_result:Vm.Interp.result -> wall_seconds:float -> Stats.t
(** {!counters} completed with the VM's instruction count and the wall
    time. *)

(** {2 Accessors} *)

val config : t -> Config.t

val layout : t -> Cfg.Layout.t

val profiler : t -> Profiler.t

val cache : t -> Trace_cache.t

val events : t -> Events.t

val active_trace : t -> Trace.t option
(** The trace currently being followed, if any (e.g. when the program
    trapped mid-trace). *)

val total_dispatches : t -> int
(** The dispatch clock: [block_dispatches + trace_dispatches] so far. *)

val health : t -> Health.t
(** The degradation ladder ({!Config.self_heal}); stays at
    [Full_tracing] when self-healing is off. *)

(** {2 Deep observability} *)

val flightrec : t -> Flightrec.t option
(** The flight recorder (black box); [None] only when
    [Config.flightrec_capacity] was 0 at creation.  Its intake taps
    the event stream out of band, so an armed recorder does not count
    as an event subscriber.  Install a dump sink with
    [Flightrec.set_on_dump] to capture postmortems. *)

val ledger : t -> Ledger.t option
(** The decision ledger, fed from the event tap it shares with the
    flight recorder.  Always [Some]: every engine keeps one.  The option
    type stays because existing readers (perfbench among them) match
    on it. *)

val attr_self : t -> int array
(** Per-gid dispatches outside any trace; [[||]] unless
    [Config.obs_attribution] was on.  Sums to [block_dispatches]. *)

val attr_inlined : t -> int array
(** Per-gid block executions inlined inside traces; [[||]] unless
    attribution was on.  Sums to
    [completed_blocks + partial_blocks + inflight_matched_blocks]. *)

val inflight_matched_blocks : t -> int
(** Blocks matched so far by the currently active trace (0 when no trace
    is active) — the attribution remainder of a run that ends
    mid-trace. *)

val trace_len_hist : t -> Metrics.histogram
(** Blocks per executed (completed) trace. *)

val exit_distance_hist : t -> Metrics.histogram
(** Blocks matched before a side exit (trace completion distance). *)

val build_len_hist : t -> Metrics.histogram
(** Transitions per maximum-likelihood builder walk. *)

val backoff_hist : t -> Metrics.histogram
(** Finite quarantine backoff durations, in dispatch ticks. *)

val deopt_residue_hist : t -> Metrics.histogram
(** Trace positions abandoned past each OSR deopt point. *)

val arm_guard_flip : t -> pos:int -> unit
(** Arm one FT008 guard flip at trace position [pos] directly
    ({!Faults.arm_flip}), bypassing the probabilistic schedule — the
    deopt-at-every-position tests drive this.
    @raise Invalid_argument if [pos < 1]. *)

val debug_sweep : t -> unit
(** Run one invariant sweep ({!Backend.run_debug_checks}) on demand,
    outside the scheduled decay/construction boundaries — exposed so
    tests can condemn a corrupted trace {e while it is executing} and
    observe the mid-flight cut-over. *)

val attach : t -> Vm.Interp.handle -> unit
(** Point the OSR state-materialization hook at the live interpreter
    handle; {!drive} does this automatically, external drivers
    ([Session], tests stepping a handle themselves) call it once after
    [Vm.Interp.start].  No-op when OSR is off. *)

(** {2 Backend selection} *)

val backend_kind : t -> backend_kind
(** The strategy currently dispatching. *)

val backend_name : t -> string

val backend_pinned : t -> bool
(** Whether the backend was pinned at {!create}. *)

(** {2 Warm starts} *)

val snapshot : t -> string
(** The engine's profile state — the profiler's BCG plus the live trace
    cache — as one {!Persist}-encoded binary snapshot, stamped for this
    engine's layout.  Typically taken at end of run and fed to
    {!restore} in a later process. *)

type restore_info = {
  restored_traces : int;
  restored_blocks : int;  (** live cache blocks after the restore *)
  restored_bcg_nodes : int;
  restored_bcg_edges : int;
  recompiled_traces : int;
      (** traces re-lowered onto the compiled tier from the restored
          heat ([Tier.recompile_restored]); [0] with the tier off *)
}

val restore : t -> string -> (restore_info, Persist.error) result
(** Validate and install a {!snapshot} into a freshly created engine,
    before it is driven.  On success the BCG and trace cache resume
    where the snapshot left them and a [Cache_restored] event is
    emitted; on [Error] nothing was installed, [snapshots_rejected] is
    bumped and a [Snapshot_rejected] event is emitted.  Because tracing
    is a pure overlay, a warm-started run produces results bit-identical
    to a cold one.
    @raise Invalid_argument if this engine was already driven (its BCG
    is non-empty). *)

(** {2 Running} *)

type run_result = {
  engine : t;
  vm_result : Vm.Interp.result;
  run_stats : Stats.t;
}

val drive : ?max_instructions:int -> t -> run_result
(** Execute the engine's program through {!on_block} and collect
    statistics — {!create} (optionally {!restore}) then [drive] is the
    warm-start flow. *)

val run :
  ?config:Config.t ->
  ?events:Events.t ->
  ?max_instructions:int ->
  ?backend:backend_kind ->
  Cfg.Layout.t ->
  run_result
(** {!create} + {!drive}: execute the program under the full system and
    collect statistics.  [backend] pins the dispatch strategy as in
    {!create}. *)
