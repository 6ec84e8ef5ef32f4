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

type kind =
  | Corrupt_trace
      (** FT001: negate one block gid of an installed trace (TL210) *)
  | Corrupt_instrs
      (** FT002: skew one per-block instruction count (TL211) *)
  | Zero_counter  (** FT003: zero one BCG edge weight (TL204) *)
  | Saturate_counter
      (** FT004: push one edge weight past saturation (TL204) *)
  | Drop_best
      (** FT005: clear a node's cached most-likely successor (TL205) *)
  | Fail_install  (** FT006: fail the next trace installation *)
  | Alloc_pressure  (** FT007: evict half of the live trace cache *)
  | Guard_flip
      (** FT008: force a guard failure at a chosen position of the next
          followed trace, exercising the side-exit / OSR deoptimization
          path.  Transparent by construction: tracing is an overlay, so
          a flipped guard must never change VM results. *)

val kind_name : kind -> string
(** The DSL name: ["corrupt-trace"], ["zero-counter"], … *)

val code : kind -> string
(** The stable catalogue code: ["FT001"] … ["FT008"]. *)

val kind_of_name : string -> kind option
(** Accepts both hyphenated and underscored spellings ([guard-flip] and
    [guard_flip]). *)

val catalogue : (string * string) list
(** Code/description pairs: FT001–FT008 (injectable faults, each naming
    the TL2xx check that detects it) plus FT901/FT902, the chaos gate's
    own verdict codes. *)

type t

val create : seed:int -> string -> t
(** Parse a schedule and seed its PRNG ([seed 0] is remapped to a fixed
    non-zero constant — xorshift has no zero state).  An empty spec
    yields an inactive injector.
    @raise Invalid_argument on a malformed spec. *)

val is_active : t -> bool
(** [true] while the schedule has arms and budget remaining. *)

val budget_left : t -> int

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
    comparison ({!flip_now}) inside the next followed trace. *)

(** {2 FT008 guard flips}

    [tick] runs in the dispatch prologue — outside any trace — so a
    guard flip cannot fire there.  Instead it is armed as a pending
    position and consumed by the trace-following loop. *)

val arm_flip : t -> pos:int -> unit
(** Directly arm a guard flip at trace position [pos >= 1] (tests and
    the deopt-at-every-position sweep use this; chaos schedules arm via
    the DSL).  The position is clamped to the followed trace's length at
    consumption time.
    @raise Invalid_argument if [pos < 1]. *)

val flip_now : t -> pos:int -> n_blocks:int -> bool
(** Called by the dispatch loop at guard position [pos] of a followed
    trace of [n_blocks] blocks: [true] exactly once, when the armed
    (clamped) position is reached — the caller must then treat the guard
    as failed.  [false] when nothing is armed. *)
