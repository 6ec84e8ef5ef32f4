(** Decision ledger: every decision-kind event of one engine's stream,
    kept for the whole run.

    The ledger records nothing of its own.  The engine feeds it from
    the cold side of its event tap, the intake it shares with the
    flight recorder, so a decision is written once, as its
    {!Events.payload}, and the ledger is a projection of the stream:
    unbounded where the recorder's ring forgets, and restricted to the
    kinds in {!kinds}.  [Harness.Oracle.ledger_checks] reconciles its
    per-kind counts against [Stats]. *)

val kinds : string list
(** The decision kinds, as {!Events.kind} tags: trace construction
    (new and reused), entry replacement, quarantine, eviction, tier
    compilation and demotion, OSR promotion and deoptimization. *)

val is_decision : Events.payload -> bool
(** Whether the payload's kind is in {!kinds}, decided by its
    constructor. *)

type t

val create : unit -> t

val observe : t -> Events.event -> unit
(** Keep [event] if its kind is in {!kinds}; drop it otherwise. *)

val length : t -> int
(** Entries kept so far. *)

val iter : (Events.event -> unit) -> t -> unit
(** Oldest first; [event.time] is the dispatch tick of the decision. *)

val to_list : t -> Events.event list
(** Oldest first. *)
