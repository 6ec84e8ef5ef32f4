(** The events-vs-stats-vs-ledger reconciliation oracle.

    The event stream, the end-of-run statistics and the decision ledger
    are three views of the same execution.  This module owns the exact
    agreements between them, so [repro_cli events], the chaos harness
    and the tests all check one list instead of private copies that can
    drift.  A fourth view, a counted plain run of the same program
    ({!executed}), gives each block's executions; the hot report splits
    them into self dispatches and inlined positions ({!block_checks}).

    The stream is also the one record of every per-event observation:
    the engine keeps no histograms and no per-trace counters, and the
    tally folds the run's five distributions and its per-trace rows
    from the fields of the events it counts. *)

type check = { name : string; got : int; want : int }

val all_ok : check list -> bool

val report : source:string -> check list -> bool
(** Print one [# ok:] or [# MISMATCH:] line per check to stderr, naming
    [source] (["timeline"], ["ledger"], ["report"]) as the side that
    disagrees with the statistics; [true] iff every check holds. *)

(** {2 Event tally} *)

type trace_row = private {
  id : int;
  first : Cfg.Layout.gid;
  body : Cfg.Layout.gid array;  (** [trace_constructed.blocks] *)
  n_instrs : int;
  prob : float;
  mutable entered : int;
  mutable completed : int;
  exits : int array;  (** side exits by [at_block] *)
  mutable partial_instrs : int;  (** instructions executed on side exits *)
}
(** One trace: the first [trace_constructed] event naming it, then every
    hot event naming it.  Evicted, quarantined and corrupted traces keep
    their rows. *)

type tally
(** Per-kind event counts plus the refinements the checks need
    (new-vs-reused constructions, the eviction-reason split), the five
    histograms and one {!trace_row} per constructed trace. *)

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

val traces : tally -> trace_row list
(** Every trace row, in no particular order. *)

val entered : tally -> int -> int
(** [entered t id]: trace [id]'s row's count, 0 without a row (a
    restored trace); [completed] likewise. *)

val completed : tally -> int -> int
val side_exits : trace_row -> int

val inlined : tally -> engine:Tracegen.Engine.t -> int array
(** Per-gid block executions inlined inside traces: a completion covers
    its trace's body, a side exit at [at_block] the first [at_block]
    positions, and a run that stopped mid-trace the positions matched
    so far. *)

val executed : ?max_instructions:int -> Tracegen.Engine.t -> int array
(** Per-gid block executions of one counted {!Vm.Interp.run} of the
    engine's layout under [max_instructions], which must be the engine
    run's own cap.  Trace dispatch is an overlay, so these are the
    engine run's executions too; {!block_checks} splits them. *)

(** {2 The reconciliations} *)

val event_checks :
  tally -> engine:Tracegen.Engine.t -> Tracegen.Stats.t -> check list
(** Every identity over the event timeline, one named row each.  Most
    say the occurrences of an event kind equal the
    {!Tracegen.Stats.counters} entry the row names; the rest tie event
    fields to counters: the new/reused construction split, the
    side-exit balance, the eviction-reason split, the deopt residue,
    the block and instruction sums of the exit events, and the trace
    rows the hot report reads — every hot event names a constructed
    trace whose sizes it repeats, a reuse repeats the trace's first
    construction, the completed rows count [static_traces] and
    [static_blocks], and the {!inlined} counts sum to the inlined
    positions.  Events outlive their traces, so all of these hold under
    eviction, quarantine and corruption (a restored trace has no row). *)

val block_checks :
  executed:int array ->
  tally ->
  engine:Tracegen.Engine.t ->
  Tracegen.Stats.t ->
  check list
(** The per-block identity: every execution of a block ({!executed}) is
    either a dispatch outside any trace or an {!inlined} position inside
    one.  No block has more inlined positions than executions, and the
    self dispatches (executed − inlined) sum to [block_dispatches].
    They run wherever a hot report is built. *)

val ledger_checks :
  Tracegen.Ledger.t -> Tracegen.Stats.t -> check list
(** The same identities over a tally of the ledger's events, restricted
    to the kinds in {!Tracegen.Ledger.kinds}. *)

val run_checks :
  tally -> engine:Tracegen.Engine.t -> Tracegen.Stats.t -> check list
(** {!event_checks} plus {!ledger_checks} — the full reconciliation for
    a finished run.  For a [Session] member, only the rows folding trace
    bodies fail, on traces another member built. *)
