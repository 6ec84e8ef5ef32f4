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

(** {2 Event tally} *)

type tally
(** Per-kind event counts plus the refinements the checks need
    (new-vs-reused constructions, the eviction-reason split). *)

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
(** The event-timeline agreements: every counted kind against its
    statistics counter, including the side-exit balance
    (entered − completed − in-flight) and the eviction-reason split. *)

val ledger_checks :
  Tracegen.Ledger.t -> Tracegen.Stats.t -> check list
(** The decision-ledger aggregates against the same counters: Build
    sums against constructions/reuses, Compile counts against
    [traces_compiled] (including restore-time recompilation), Evict
    against [traces_evicted], and so on. *)

val run_checks :
  tally -> engine:Tracegen.Engine.t -> Tracegen.Stats.t -> check list
(** {!event_checks} plus, when the engine kept a ledger,
    {!ledger_checks} — the full reconciliation for a finished
    solo-engine run. *)
