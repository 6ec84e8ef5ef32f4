(** The events-vs-stats-vs-ledger reconciliation oracle.

    The event stream, the end-of-run statistics and the decision ledger
    are three views of the same execution.  This module owns the exact
    agreements between them, so [repro_cli events], the chaos harness
    and the tests all check one list instead of private copies that can
    drift.

    The stream is also the one record of every per-event observation:
    the engine keeps no histograms, and the tally folds the run's five
    distributions from the fields of the events it counts. *)

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
    instruction sums of completions and side exits) and the five
    histograms. *)

val attach : Tracegen.Events.t -> tally
(** Subscribe a fresh tally to the stream — every subsequent event is
    counted.  Attach before the run starts. *)

val n_kinds : tally -> int
(** Distinct event kinds seen. *)

val histograms : tally -> Tracegen.Metrics.histogram list
(** The run's distributions, each a fold of one event field, in this
    order:
    - [executed_trace_len]: [trace_completed.n_blocks];
    - [completion_distance]: [side_exit.at_block];
    - [builder_path_len]: [path_walked.transitions];
    - [quarantine_backoff]: [trace_quarantined]'s [until] minus the
      event's time, finite [until] only;
    - [deopt_residue]: [deopt_entered.residue_blocks]. *)

(** {2 The reconciliations} *)

val event_checks :
  tally -> engine:Tracegen.Engine.t -> Tracegen.Stats.t -> check list
(** Every identity over the event timeline.  Most are rows of one
    table: the occurrences of an event kind equal the
    {!Tracegen.Stats.counters} entry the row names.  Written out beside
    them: the new/reused construction split, the side-exit balance
    (entered − completed − in-flight), the eviction-reason split, the
    deopt residue (the [residue_blocks] of every [deopt_entered] sum to
    [deopt_residue_blocks]) and the hot exit events' fields: the
    [n_blocks] and [n_instrs] of every [trace_completed] sum to
    [completed_blocks] and [completed_instrs], the [at_block] and
    [matched_instrs] of every [side_exit] to [partial_blocks] and
    [partial_instrs]. *)

val ledger_checks :
  Tracegen.Ledger.t -> Tracegen.Stats.t -> check list
(** The same identities over a tally of the ledger's events, restricted
    to the kinds in {!Tracegen.Ledger.kinds}. *)

val run_checks :
  tally -> engine:Tracegen.Engine.t -> Tracegen.Stats.t -> check list
(** {!event_checks} plus {!ledger_checks} — the full reconciliation for
    a finished solo-engine run. *)
