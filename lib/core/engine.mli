(** The complete system: VM + profiler + trace cache (paper §4).

    The VM's block-dispatch stream drives the profiler; profiler signals
    drive trace reconstruction; and the trace cache overlays trace
    dispatch onto the stream.

    One module owns the dispatch state, the dispatch function
    ({!on_block}) and the engine's life cycle.  Each observed block is
    dispatched under a {!backend_kind} picked from the {!Health} ladder
    — [Full_tracing] maps to [Trace] (or [Profile] when
    {!Config.build_traces} is off), [Profiling_only] to [Profile],
    [Interp_only] to [Interp] — so walking the degradation ladder {e is}
    switching backends ([Stats.backend_switches]).  The kinds differ
    only in how a block outside any trace is dispatched; trace
    construction, entry, following and exit, the ladder walk and the
    invariant sweep are shared.  The compiled micro-IR tier
    ({!Config.tier_enabled}) is part of trace dispatch, not a kind of
    its own.  A backend can also be pinned at {!create}.

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
    [Decay_pass], [Path_walked], …).  Subscribe before driving the
    engine; a run with no subscribers — the default, where only the
    flight recorder and the ledger tap the stream — allocates nothing
    per dispatch.  The stream is the one record of every per-event
    observation: the engine keeps no histograms and no per-block
    counts.  A distribution such as executed-trace length is a fold of
    event fields ([Harness.Oracle]'s tally keeps five), and a block's
    dispatches outside traces are its executions in a plain run minus
    the positions the exit events inline.  With
    [Config.snapshot_period] positive the engine also samples every
    {!Stats.counters} entry (bar [instructions]) and its cache,
    recorder and ledger state every [period] dispatches, and publishes
    each sample as a [Phase_snapshot] event: the stream is the
    phase-analysis time series. *)

type t

type backend_kind = Interp | Profile | Trace
(** The dispatch strategies, in ladder order (bottom up). *)

val describe_backend : backend_kind -> string * string
(** [(name, description)]: the stable one-word identifier (["interp"] /
    ["profile"] / ["trace"]) and a one-line description of the
    strategy. *)

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
    can be driven by any block stream (the baselines and tests do).

    The backend is re-selected first when the ladder moved since the
    last block.  An active trace is then followed to its end whatever
    the kind; a block outside every trace is dispatched the way the
    kind says.  Each followed position counts as one checked guard.  A
    guard fails organically (mismatching block) or by an armed FT008
    flip ({!Faults.flip_now}).  Without OSR both take the classic side
    exit and reprocess the block through the full dispatch path; with
    OSR both deoptimize and resume with a block dispatch that never
    consults the trace cache.

    Under [Trace], a cache hit enters the trace; with
    {!Config.tier_enabled} the entry first runs the tier cost model
    ([Tier.maybe_compile]).  Under self-healing every candidate trace is
    validated before entry.  When {!Config.snapshot_period} is positive,
    every [period]-th dispatch first publishes a [Phase_snapshot]
    stamped with its 1-based index.  After the dispatch, a decay
    boundary runs {!debug_sweep} when {!Config.debug_checks} is on. *)

val counters : t -> Stats.t
(** Every counter as it stands now, in a fresh record that later
    dispatches do not change: the engine's own counts, OSR's and the
    ladder's among them, plus the counters [Profiler], [Bcg],
    [Trace_cache] and [Faults] own.  The fields only the VM knows
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
(** The dispatch clock: [block_dispatches + traces_entered] so far. *)

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

val inflight_matched_blocks : t -> int
(** Blocks matched so far by the currently active trace (0 when no trace
    is active) — the inlined executions of a run that ends mid-trace,
    which no exit event covers yet. *)

val arm_guard_flip : t -> pos:int -> unit
(** Arm one FT008 guard flip at trace position [pos] directly
    ({!Faults.arm_flip}), bypassing the probabilistic schedule — the
    deopt-at-every-position tests drive this.
    @raise Invalid_argument if [pos < 1]. *)

val debug_sweep : t -> unit
(** The invariant sweep ({!Config.debug_checks}): run {!Invariants}
    over the BCG and the cache, count and publish every finding.  Under
    self-healing the sweep heals flagged BCG nodes, quarantines flagged
    traces (deoptimizing first when OSR is on and the flagged trace is
    executing) and strikes the ladder.  Re-entrancy guarded.  The
    engine runs it at decay and construction boundaries; calling it
    directly lets tests condemn a corrupted trace {e while it is
    executing} and observe the mid-flight cut-over. *)

val attach : t -> Vm.Interp.handle -> unit
(** Point the OSR state-materialization hook at the live interpreter
    handle; {!drive} does this automatically, external drivers
    ([Session], tests stepping a handle themselves) call it once after
    [Vm.Interp.start].  No-op when OSR is off. *)

(** {2 Backend kinds} *)

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
