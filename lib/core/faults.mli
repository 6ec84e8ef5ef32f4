(** Deterministic, seedable fault injection for the self-healing engine.

    A fault {e schedule} is parsed from a small DSL (see {!create}):

    {v kind@prob    fire with probability prob at every dispatch
kind!tick    fire once, at the first dispatch >= tick
budget=K     cap the total number of injected faults v}

    separated by commas and/or whitespace, e.g.
    ["corrupt-trace@0.003,fail-install!500,budget=32"].

    Each fault kind (the FT0xx catalogue, {!catalogue}) targets a
    structure one of the TL2xx invariant checks guards, so every injected
    corruption is detectable by the existing linter — the injector
    measures the {e detection and recovery} machinery, never silently
    breaks the VM.  All randomness comes from a seeded xorshift64 PRNG:
    a schedule is a pure function of (spec, seed, dispatch stream), so
    chaos runs replay bit-identically. *)

val catalogue : (string * string) list
(** Code/description pairs: FT001–FT008 (injectable faults, each naming
    the TL2xx check that detects it) plus FT901/FT902, the chaos gate's
    own verdict codes. *)

type t

val create : seed:int -> string -> t
(** Parse a schedule and seed its PRNG ([seed 0] is remapped to a fixed
    non-zero constant — xorshift has no zero state).  Kind names are
    accepted hyphenated or underscored ([guard-flip] and [guard_flip]).
    An empty spec yields an inactive injector.
    @raise Invalid_argument on a malformed spec. *)

val is_active : t -> bool
(** [true] while the schedule has arms and budget remaining. *)

val tick :
  t ->
  now:int ->
  bcg:Bcg.t ->
  cache:Trace_cache.t ->
  events:Events.t ->
  counts:Stats.t ->
  active:Trace.t option ->
  (string * string) list
(** Evaluate every arm of the schedule at dispatch [now], applying the
    faults that fire; returns a [(code, detail)] pair per fault actually
    injected; [events] and [counts] take an allocation-pressure fault's
    evictions.  [active] pins the currently dispatching trace — it is
    never picked as a corruption victim.  An arm whose fault finds no
    eligible victim (empty cache, no BCG edges) fires without effect and
    does not consume budget.

    A [Guard_flip] arm does not corrupt anything at tick time: it {e
    arms} a pending flip, consumed later by the dispatch loop's guard
    comparison ({!flip_now}) inside the next followed trace.  A
    [Fail_install] arm likewise arms a pending failure, consumed by this
    injector's engine's next trace installation
    ({!take_install_failure}). *)

val take_install_failure : t -> bool
(** Consume one pending FT006 installation failure: [true] when one was
    armed, and the installation asking must then fail.  The engine hands
    this to [Trace_cache.install] as its [~fail], so on a cache
    shared by a [Session] only the injecting member's installations
    fail. *)

(** {2 FT008 guard flips}

    [tick] runs in the dispatch prologue — outside any trace — so a
    guard flip cannot fire there.  Instead it is armed as a pending
    position and consumed by the trace-following loop. *)

val flip_now : t -> pos:int -> n_blocks:int -> bool
(** Called by the dispatch loop at guard position [pos] of a followed
    trace of [n_blocks] blocks: [true] exactly once, when the armed
    (clamped) position is reached — the caller must then treat the guard
    as failed.  [false] when nothing is armed. *)
