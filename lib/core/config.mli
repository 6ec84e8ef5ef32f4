(** Parameters of the profiling and trace-generation algorithm (paper
    §5.2) and of the subsystems layered on it.

    The two parameters the paper sweeps are [start_state_delay]
    (1 / 64 / 4096) and [threshold] (1.00 … 0.95); the paper fixes the
    rest: a 256-dispatch decay period and 16-bit saturating counters
    ({!counter_max}).

    A configuration is built one way, with {!make}, which validates it,
    and read one way, through the leaf accessors.  Two values concern
    observation, a period ({!snapshot_period}) and a size
    ({!flightrec_capacity}); the hot report needs none, since it
    derives its per-block split after the run. *)

(** The trace cache's eviction policy. *)
module Cache : sig
  type eviction_policy =
    | Lru  (** condemn the least recently dispatched entry (default) *)
    | Footprint_aware
        (** condemn the entry with the worst estimated i-cache bytes per
            use (footprint/heat ratio, ties broken by recency) — keeps
            hot-but-large traces over cold-but-small ones *)

  val eviction_policy_to_string : eviction_policy -> string
  (** Stable lowercase tag: ["lru"] / ["footprint"]. *)
end

type t

val default : t
(** The paper's preferred operating point: delay 64, threshold 0.97,
    decay 256, 16-bit counters; every subsystem at its default. *)

val make :
  ?start_state_delay:int ->
  ?threshold:float ->
  ?decay_period:int ->
  ?build_traces:bool ->
  ?snapshot_period:int ->
  ?debug_checks:bool ->
  ?max_cache_traces:int ->
  ?eviction_policy:Cache.eviction_policy ->
  ?self_heal:bool ->
  ?fault_spec:string ->
  ?fault_seed:int ->
  ?osr:bool ->
  ?osr_promote_after:int ->
  ?tier:bool ->
  ?tier_compile_after:int ->
  ?tier_compile_budget:int ->
  ?flightrec_capacity:int ->
  unit ->
  t
(** Every omitted parameter keeps its {!default}; the leaf accessors
    below document each one.
    @raise Invalid_argument on out-of-range parameters. *)

(** {2 Constants}

    Fixed by the paper, by the builder's defensive caps, or by the
    self-healing schedule. *)

val counter_max : int
(** Saturation value of the correlation counters: 16-bit, 65535. *)

val min_trace_blocks : int
(** Traces shorter than this (2) are not cached: a 1-block trace is a
    no-op. *)

val max_trace_blocks : int
(** Defensive cap on trace length in blocks (64). *)

val max_walk : int
(** Cap on the maximum-likelihood walk length (256). *)

val max_backtrack : int
(** Cap on entry-point backtracking depth (128). *)

val heal_max_rebuilds : int
(** Quarantines of one entry transition before it is permanently
    blacklisted (3). *)

val heal_backoff : int
(** Cache clock units before a quarantined entry may be rebuilt (512);
    doubles on every further quarantine of the same entry. *)

val heal_demote_after : int
(** Detections before dropping one health level (3). *)

val heal_recover_after : int
(** Consecutive clean dispatches before climbing one health level back
    up (400). *)

(** {2 The profiler and trace builder} *)

val start_state_delay : t -> int
(** Executions before a branch node leaves the newly-created state;
    filters rarely executed code.  Paper values: 1, 64 (default),
    4096. *)

val threshold : t -> float
(** Minimum expected trace completion probability, in (0, 1]; also the
    strong/weak correlation boundary.  Paper values: 1.00, 0.99, 0.98,
    0.97 (default, best), 0.95. *)

val decay_period : t -> int
(** Node executions between periodic exponential decay passes (paper
    and default: 256). *)

val build_traces : t -> bool
(** When [false] the engine profiles every dispatch but never enters
    traces — the configuration of the paper's Table VI overhead
    measurement.  Default [true]. *)

val snapshot_period : t -> int
(** Dispatches between the engine's [Phase_snapshot] events; [0]
    (default) disables them. *)

val debug_checks : t -> bool
(** Run the trace/BCG invariant checks ([Invariants]) at
    trace-construction and decay boundaries, emitting an
    [Invariant_violation] event per finding.  Off by default: the checks
    walk every node and trace. *)

(** {2 The trace cache} *)

val max_cache_traces : t -> int
(** Bound on live traces in the cache; [0] (default) = unbounded.
    Exceeding it evicts a victim chosen by {!eviction_policy}, so memory
    pressure degrades hit rate instead of crashing. *)

val eviction_policy : t -> Cache.eviction_policy
(** Default [Lru]. *)

(** {2 Self-healing} *)

val self_heal : t -> bool
(** Validate traces at dispatch, quarantine any trace a TL2xx check or
    an injected fault touches, heal corrupted BCG nodes, and walk the
    [Health] degradation ladder (full tracing → profiling-only → pure
    interpretation) with recovery probes back up, on the fixed schedule
    of the [heal_*] constants above.  Off by default. *)

(** {2 Fault injection} *)

val fault_spec : t -> string
(** Fault-injection schedule (see [Faults.parse] for the DSL); [""]
    (default) disables injection.  The engine parses it at creation and
    raises [Invalid_argument] on a malformed spec. *)

val fault_seed : t -> int
(** PRNG seed of the fault injector (default 1). *)

(** {2 On-stack replacement} *)

val osr_enabled : t -> bool
(** When on, a guard failure (or a mid-flight condemnation of the
    executing trace) {e deoptimizes}: interpreter state is materialized
    at the failing block and block dispatch resumes there; and hot loop
    headers are {e promoted} into freshly built traces mid-iteration.
    Off by default. *)

val osr_promote_after : t -> int
(** Outside-trace dispatches of one loop header before the mid-loop
    promotion fires (default 96 — past the default [start_state_delay],
    so the loop's BCG nodes are followable by the time the builder
    runs). *)

(** {2 The compiled tier} *)

val tier_enabled : t -> bool
(** When on, traces whose cache heat crosses {!tier_compile_after} are
    lowered to register micro-IR ([Microir]) and trace dispatch
    accounts their entries and positions on the compiled tier.  Results are bit-identical either way: the
    lowered body only changes what dispatch {e accounts}.  Off by
    default. *)

val tier_compile_after : t -> int
(** Cache uses of one trace before the cost model compiles it
    (default 32). *)

val tier_compile_budget : t -> int
(** Bound on simultaneously compiled traces; exceeding it demotes the
    coldest compiled trace, except pinned (executing) ones
    (default 64). *)

(** {2 Observability} *)

val flightrec_capacity : t -> int
(** Flight-recorder ring capacity in entries (default 512).  The
    recorder is always on — O(1) per record, bounded retention — and
    dumps its window on invariant violations, chaos divergence, snapshot
    rejection or degradation to interp-only.  0 disarms it. *)
