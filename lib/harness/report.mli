(** The hot-report: where did a run's dispatches and instructions go?

    A fold of the event stream.  The per-trace rows are
    {!Oracle.traces}, which keep the traces a run evicted, quarantined
    or corrupted; a block's inlined executions are {!Oracle.inlined}.
    No event marks a dispatch outside a trace, and none is needed:
    trace dispatch is an overlay, so a block's self dispatches are its
    executions in a counted plain run ({!Oracle.executed}) minus its
    inlined positions.  Every column sums to its [Stats] total under
    any configuration: {!Oracle.event_checks} and
    {!Oracle.block_checks} state the identities and [repro_cli top]
    enforces them. *)

type trace_row = {
  trace_id : int;
  entry : string;  (** human-readable entering transition *)
  n_blocks : int;
  prob : float;
  entered : int;  (** self dispatch count: one per trace dispatch *)
  completed : int;
  partial_exits : int;
  instrs : int;  (** instructions attributed to the trace body *)
  tier : string;
      (** ["compiled"] when the trace holds a micro-IR body
          ([Config.tier_enabled]), ["interp"] otherwise *)
}

type block_row = {
  gid : Cfg.Layout.gid;
  block : string;
  self : int;  (** dispatches outside any trace *)
  inlined : int;  (** executions inlined inside traces *)
}

type t = {
  traces : trace_row list;  (** ranked by self dispatch count, descending *)
  blocks : block_row list;  (** ranked by self + inlined, descending *)
}

val of_engine : executed:int array -> Oracle.tally -> Tracegen.Engine.t -> t
(** Collect the report from a finished engine, the tally attached to its
    stream before the run and the run's {!Oracle.executed} counts. *)

val render : ?top:int -> t -> string
(** Human-readable ranked tables ([top] rows each, default 10). *)

val json : workload:string -> t -> Codec.json
(** The whole report as one schema-versioned object naming [workload]
    ([repro_cli top --json]): the ranked trace and block rows with the
    same columns as the rendered tables. *)

val hist_summary : Tracegen.Metrics.histogram list -> string
(** One line per non-empty distribution: count, mean and the
    p50/p90/p99/max percentile summary ({!Tracegen.Metrics.percentile}).
    Shared by [repro_cli top] and [repro_cli events --stats-only]. *)
