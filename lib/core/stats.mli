(** The dependent values of the paper's evaluation (§5.2), and the raw
    counts they derive from. *)

type t = {
  mutable instructions : int;
      (** bytecodes executed — the Figure-1 per-instruction dispatch
          count *)
  mutable block_dispatches : int;  (** dispatches outside traces (profiled) *)
  mutable traces_entered : int;
      (** trace entries: the trace dispatches, one profiler hook each *)
  mutable traces_completed : int;
  mutable completed_blocks : int;
      (** sum over completion events of the trace's block count *)
  mutable partial_blocks : int;
      (** blocks executed by partially executed traces *)
  mutable completed_instrs : int;
      (** instructions executed by completed traces *)
  mutable partial_instrs : int;
      (** instructions executed by partially executed traces *)
  mutable signals : int;
  mutable traces_constructed : int;
  mutable builder_reuses : int;
      (** builder walks that re-derived an already cached trace *)
  mutable traces_replaced : int;
  mutable traces_live : int;
  mutable static_traces : int;
      (** distinct traces this engine completed, evicted ones included *)
  mutable static_blocks : int;  (** their total length in blocks *)
  mutable bcg_nodes : int;
  mutable bcg_edges : int;
  mutable ic_predictions : int;  (** profiler inline-cache hits *)
  mutable chained_entries : int;
      (** trace entries directly following another trace's completion *)
  mutable guards_checked : int;
      (** trace-position guards compared against the executed block
          during dispatch *)
  mutable invariant_violations : int;
      (** findings of the [Config.debug_checks] sweeps *)
  mutable faults_injected : int;  (** faults the injector actually applied *)
  mutable traces_quarantined : int;
      (** condemnations recorded (an entry condemned twice counts twice) *)
  mutable traces_evicted : int;
      (** capacity / allocation-pressure evictions *)
  mutable traces_blacklisted : int;  (** entries quarantined permanently *)
  mutable failed_installs : int;
      (** injected installation failures consumed *)
  mutable pin_refusals : int;
      (** quarantines refused because the target trace was executing *)
  mutable healed_nodes : int;  (** BCG nodes repaired in place *)
  mutable health_demotions : int;
  mutable health_promotions : int;
  mutable final_health : int;
      (** {!Health.level_rank} at end of run: [0] = full tracing *)
  mutable backend_switches : int;
      (** dispatch-strategy changes the health ladder caused; [0] when
          the backend is pinned *)
  mutable snapshots_rejected : int;  (** warm-start loads refused *)
  mutable deopts : int;
      (** OSR mid-trace deoptimizations taken; [0] with OSR off *)
  mutable deopt_residue_blocks : int;
      (** trace positions abandoned past the deopt points, summed *)
  mutable osr_promotions : int;  (** hot loops promoted mid-iteration *)
  mutable osr_entries : int;
      (** promoted traces entered on their armed back-edge *)
  mutable osr_state_checks : int;
      (** deopts that could materialize interpreter state *)
  mutable osr_state_mismatches : int;
      (** TL219 findings: materialized interpreter state disagreed with
          the deopt resume block.  [0] on a healthy engine. *)
  mutable traces_compiled : int;
      (** promotions to the compiled micro-IR tier (runtime and
          restore-time); [0] with the tier off *)
  mutable tier_demotions : int;
      (** compiled slots lost under [compile_budget] *)
  mutable demote_refusals : int;
      (** budget demotions refused because the compiled trace was
          executing ({!Trace_cache.n_demote_refusals}) *)
  mutable compiled_entries : int;
      (** trace entries that ran on the compiled tier *)
  mutable mi_positions : int;
      (** trace positions followed on the compiled tier *)
  mutable mi_ops : int;  (** micro-ops those positions dispatched *)
  mutable mi_fused : int;  (** superinstructions among them *)
  mutable mi_src_instrs : int;
      (** source bytecode instructions the same positions would have
          dispatched on the interpreted tier — the baseline of the
          dispatch-cost reduction *)
  mutable wall_seconds : float;
}
(** Every engine counter, defined once.  The engine advances the
    counters in place in its own record (the trace cache counts each
    decision into the record of the engine making it); readers get a
    {!copy} ([Engine.counters], [Engine.stats]) that does not change
    afterwards. *)

val zero : unit -> t
(** A fresh record with every counter at zero. *)

val copy : t -> t

val counters : (string * (t -> int)) list
(** Every integer field, by its name — the one table the counter
    fields of the engine's phase snapshots and the counter keys of
    [Harness.Export.stats_json] are generated from.  Adding a counter
    is one field plus one row here. *)

val total_dispatches : t -> int
(** Dispatches under the trace-dispatch model: blocks outside traces plus
    one per trace entry. *)

val avg_trace_length : t -> float
(** Average executed trace length in basic blocks, one term per distinct
    trace that ever completed (Table I). *)

val dynamic_trace_length : t -> float
(** Completion-event-weighted average length: what the dispatch stream
    actually executes; dominated by the hottest traces. *)

val coverage_completed : t -> float
(** Fraction of the instruction stream executed by traces that ran to
    completion (Table II). *)

val coverage_total : t -> float
(** Coverage counting partially executed traces too — the paper's 90.7%
    vs. 87.1% distinction. *)

val completion_rate : t -> float
(** Dynamic trace completion rate: completed / entered (Table III). *)

val dispatches_per_signal : t -> float
(** Dispatches per state-change signal (Table IV reports thousands). *)

val trace_events : t -> int
(** Signals plus traces constructed. *)

val trace_event_interval : t -> float
(** Dispatches per trace event (Table V reports thousands). *)

val linking_rate : t -> float
(** Fraction of trace entries chaining directly from a completion — the
    dispatch-level analogue of Dynamo's trace linking. *)

val dispatch_reduction : t -> float
(** How many block-model dispatches each trace-model dispatch replaces. *)

val quarantine_rate : t -> float
(** Condemnations per constructed trace. *)

val eviction_rate : t -> float
(** Capacity evictions per constructed trace. *)

val deopt_rate : t -> float
(** OSR deoptimizations per trace entry. *)

val deopt_residue : t -> float
(** Average trace positions abandoned past the deopt point. *)

val mi_ops_per_position : t -> float
(** Micro-ops dispatched per followed position on the compiled tier. *)

val mi_src_per_position : t -> float
(** Source instructions per position for the same positions. *)

val mi_dispatch_reduction : t -> float
(** Fraction of per-position dispatch work the lowered body removes. *)

val mi_fused_share : t -> float
(** Fraction of dispatched micro-ops that are superinstructions. *)

val pp : Format.formatter -> t -> unit
(** The resilience counters are rendered only when at least one of them
    is non-zero, so a healthy run's output is unchanged. *)
