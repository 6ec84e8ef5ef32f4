(** The engine's graceful-degradation ladder.

    Three operating levels, in descending capability:

    - {!Full_tracing} — profile every dispatch, build and dispatch
      traces (the normal mode);
    - {!Profiling_only} — profile every dispatch, never build or enter
      traces (the paper's Table-VI configuration, reached after trace
      faults);
    - {!Interp_only} — pure block interpretation, no profiling at all
      (the last resort after profiler-structure faults persist).

    Detected faults — a quarantined trace, a healed BCG node — are
    {e strikes} ({!strike}); {!Config.heal_demote_after} strikes
    without an intervening recovery window drop the engine one level.
    Every dispatch that completes without a detection is a recovery
    probe ({!clean_dispatch}): after {!Config.heal_recover_after}
    consecutive clean dispatches the engine climbs one level back up, and at full tracing
    the same window forgives stale strikes, so isolated faults never
    accumulate into a demotion across a long run. *)

type level = Full_tracing | Profiling_only | Interp_only

val level_to_string : level -> string
(** ["full-tracing"] / ["profiling-only"] / ["interp-only"] — the
    stable names the events and the JSONL schema use. *)

val level_rank : level -> int
(** [0] (full) to [2] (interp-only); exported as the [final_health]
    counter. *)

type transition = Stay | Changed of level * level  (** (from, to) *)

type t

val create : unit -> t
(** Starts at {!Full_tracing}. *)

val level : t -> level

val is_degraded : t -> bool

val strikes : t -> int
(** Strikes accumulated at the current level since the last demotion or
    forgiveness window. *)

val demotions : t -> int

val promotions : t -> int

val strike : t -> transition
(** Record one detected fault; may demote. *)

val clean_dispatch : t -> transition
(** Record one clean dispatch; may promote.  Costs one branch when the
    engine is healthy and strike-free. *)

val pp : Format.formatter -> t -> unit
