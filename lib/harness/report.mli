(** The hot-report: where did a run's dispatches and instructions go?

    Per-trace rows come from each trace's own counters; per-block rows
    come from the engine's attribution arrays
    ([Config.obs_attribution]).  Both are maintained by the same
    dispatch loop that maintains [Stats], so every column sums to the
    matching [Stats] total — {!checks} states those identities and
    [repro_cli top] enforces them. *)

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

val of_engine : Tracegen.Engine.t -> t
(** Collect the report from a finished engine.  Block rows are empty
    unless the engine ran with [Config.obs_attribution]. *)

val checks : t -> Tracegen.Engine.t -> Tracegen.Stats.t -> Oracle.check list
(** The reconciliation identities; each must have [got = want].  Exact
    for a run over an unbounded, non-healing cache (eviction with
    hash-cons purging can lose condemned traces' counters). *)

val render : ?top:int -> t -> string
(** Human-readable ranked tables ([top] rows each, default 10). *)

val json : t -> Codec.json
(** The whole report as one schema-versioned object ([repro_cli top
    --json]): the ranked trace and block rows with the same columns as
    the rendered tables. *)

val hist_summary : Tracegen.Metrics.histogram list -> string
(** One line per non-empty distribution: count, mean and the
    p50/p90/p99/max percentile summary ({!Tracegen.Metrics.percentile}).
    Shared by [repro_cli top] and [repro_cli events --stats-only]. *)
