(** The events-vs-stats-vs-ledger reconciliation oracle.

    The event stream, the end-of-run statistics and the decision ledger
    are three views of the same execution.  This module owns the exact
    agreements between them, so [repro_cli events], the chaos harness
    and the tests all check one list instead of private copies that can
    drift. *)

type check = { name : string; got : int; want : int }

val check_ok : check -> bool
val all_ok : check list -> bool
val failures : check list -> check list

val report : source:string -> check list -> bool
(** Print one [# ok:] or [# MISMATCH:] line per check to stderr, naming
    [source] (["timeline"], ["ledger"], ["report"]) as the side that
    disagrees with the statistics; [true] iff every check holds. *)

(** {2 Event tally} *)

type tally
(** Per-kind event counts plus the refinements the checks need
    (new-vs-reused constructions, the eviction-reason split, the
    pruned-guard sum). *)

val create_tally : unit -> tally

val observe : tally -> Tracegen.Events.payload -> unit
(** Count one delivered payload (for callers with their own
    subscription). *)

val attach : Tracegen.Events.t -> tally
(** Subscribe a fresh tally to the stream — every subsequent event is
    counted.  Attach before the run starts. *)

val count : tally -> string -> int
(** Occurrences of one event kind (by {!Tracegen.Events.kind} tag). *)

val n_kinds : tally -> int

(** {2 The reconciliations} *)

val event_checks :
  tally -> engine:Tracegen.Engine.t -> Tracegen.Stats.t -> check list
(** Every identity over the event timeline.  Most are rows of one
    table: the occurrences of an event kind equal the
    {!Tracegen.Stats.counters} entry the row names.  Written out beside
    them: the new/reused construction split, the side-exit balance
    (entered − completed − in-flight), the eviction-reason split and
    the pruned-guard sum. *)

val ledger_checks :
  Tracegen.Ledger.t -> Tracegen.Stats.t -> check list
(** The same identities over a tally of the ledger's events, restricted
    to the kinds in {!Tracegen.Ledger.kinds}. *)

val run_checks :
  tally -> engine:Tracegen.Engine.t -> Tracegen.Stats.t -> check list
(** {!event_checks} plus {!ledger_checks} — the full reconciliation for
    a finished solo-engine run. *)
