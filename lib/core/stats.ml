(* The five dependent values of the evaluation (paper §5.2), plus the raw
   counts they derive from. *)

type t = {
  mutable instructions : int;
    (* bytecodes executed (= Figure-1 dispatch count) *)
  mutable block_dispatches : int; (* dispatches outside traces (profiled) *)
  mutable trace_dispatches : int; (* trace entries (one hook each) *)
  mutable traces_entered : int;
  mutable traces_completed : int;
  mutable completed_blocks : int;
    (* sum over completions of the trace's block count *)
  mutable partial_blocks : int;
    (* blocks executed by partially executed traces *)
  mutable completed_instrs : int;
    (* instructions executed by completed traces *)
  mutable partial_instrs : int;
    (* instructions executed by partially executed traces *)
  mutable signals : int;
  mutable traces_constructed : int;
  mutable builder_reuses : int;
    (* builder walks that re-derived an already cached trace *)
  mutable traces_replaced : int;
  mutable traces_live : int;
  (* static view over distinct traces that completed at least once *)
  mutable static_traces : int;
  mutable static_blocks : int;
  mutable bcg_nodes : int;
  mutable bcg_edges : int;
  mutable ic_predictions : int; (* inline-cache hits in the profiler *)
  mutable chained_entries : int;
    (* trace entries directly following another trace's completion *)
  mutable guards_checked : int;
    (* trace-position guards compared against the executed block *)
  (* resilience: the self-healing / chaos counters.  All zero on a
     healthy run without fault injection. *)
  mutable invariant_violations : int; (* findings of the debug_checks sweeps *)
  mutable faults_injected : int; (* faults the injector actually applied *)
  mutable traces_quarantined : int; (* condemnations (entries may repeat) *)
  mutable traces_evicted : int; (* capacity / pressure evictions *)
  mutable traces_blacklisted : int; (* entries quarantined permanently *)
  mutable failed_installs : int; (* injected installation failures consumed *)
  mutable pin_refusals : int; (* quarantines refused on an executing trace *)
  mutable healed_nodes : int; (* BCG nodes repaired in place *)
  mutable health_demotions : int;
  mutable health_promotions : int;
  mutable final_health : int; (* Health.level_rank: 0 = full tracing *)
  mutable backend_switches : int; (* strategy changes over the run *)
  mutable snapshots_rejected : int; (* warm-start loads refused *)
  (* on-stack replacement.  All zero with OSR off. *)
  mutable deopts : int; (* mid-trace deoptimizations taken *)
  mutable deopt_residue_blocks : int;
    (* trace positions abandoned past the deopt points, summed *)
  mutable osr_promotions : int; (* hot loops promoted mid-iteration *)
  mutable osr_entries : int; (* promoted traces entered on their back-edge *)
  mutable osr_state_checks : int; (* deopts that materialized VM state *)
  mutable osr_state_mismatches : int; (* TL219 findings *)
  (* the compiled micro-IR tier.  All zero with the tier off. *)
  mutable traces_compiled : int; (* promotions to the compiled tier *)
  mutable tier_demotions : int; (* compiled slots lost under compile_budget *)
  mutable demote_refusals : int; (* demotions refused on an executing trace *)
  mutable compiled_entries : int; (* trace entries on the compiled tier *)
  mutable mi_positions : int; (* trace positions followed on the tier *)
  mutable mi_ops : int; (* micro-ops those positions dispatched *)
  mutable mi_fused : int; (* superinstructions among them *)
  mutable mi_src_instrs : int;
    (* source instructions the same positions would have dispatched
       on the interpreted tier: the baseline of the reduction *)
  mutable wall_seconds : float;
}

let zero () =
  {
    instructions = 0;
    block_dispatches = 0;
    trace_dispatches = 0;
    traces_entered = 0;
    traces_completed = 0;
    completed_blocks = 0;
    partial_blocks = 0;
    completed_instrs = 0;
    partial_instrs = 0;
    signals = 0;
    traces_constructed = 0;
    builder_reuses = 0;
    traces_replaced = 0;
    traces_live = 0;
    static_traces = 0;
    static_blocks = 0;
    bcg_nodes = 0;
    bcg_edges = 0;
    ic_predictions = 0;
    chained_entries = 0;
    guards_checked = 0;
    invariant_violations = 0;
    faults_injected = 0;
    traces_quarantined = 0;
    traces_evicted = 0;
    traces_blacklisted = 0;
    failed_installs = 0;
    pin_refusals = 0;
    healed_nodes = 0;
    health_demotions = 0;
    health_promotions = 0;
    final_health = 0;
    backend_switches = 0;
    snapshots_rejected = 0;
    deopts = 0;
    deopt_residue_blocks = 0;
    osr_promotions = 0;
    osr_entries = 0;
    osr_state_checks = 0;
    osr_state_mismatches = 0;
    traces_compiled = 0;
    tier_demotions = 0;
    demote_refusals = 0;
    compiled_entries = 0;
    mi_positions = 0;
    mi_ops = 0;
    mi_fused = 0;
    mi_src_instrs = 0;
    wall_seconds = 0.0;
  }

let copy t = { t with wall_seconds = t.wall_seconds }

(* Every integer counter, by name: the one table the engine's gauges and
   the JSON export are generated from. *)
let counters : (string * (t -> int)) list =
  [
    ("instructions", fun s -> s.instructions);
    ("block_dispatches", fun s -> s.block_dispatches);
    ("trace_dispatches", fun s -> s.trace_dispatches);
    ("traces_entered", fun s -> s.traces_entered);
    ("traces_completed", fun s -> s.traces_completed);
    ("completed_blocks", fun s -> s.completed_blocks);
    ("partial_blocks", fun s -> s.partial_blocks);
    ("completed_instrs", fun s -> s.completed_instrs);
    ("partial_instrs", fun s -> s.partial_instrs);
    ("signals", fun s -> s.signals);
    ("traces_constructed", fun s -> s.traces_constructed);
    ("builder_reuses", fun s -> s.builder_reuses);
    ("traces_replaced", fun s -> s.traces_replaced);
    ("traces_live", fun s -> s.traces_live);
    ("static_traces", fun s -> s.static_traces);
    ("static_blocks", fun s -> s.static_blocks);
    ("bcg_nodes", fun s -> s.bcg_nodes);
    ("bcg_edges", fun s -> s.bcg_edges);
    ("ic_predictions", fun s -> s.ic_predictions);
    ("chained_entries", fun s -> s.chained_entries);
    ("guards_checked", fun s -> s.guards_checked);
    ("invariant_violations", fun s -> s.invariant_violations);
    ("faults_injected", fun s -> s.faults_injected);
    ("traces_quarantined", fun s -> s.traces_quarantined);
    ("traces_evicted", fun s -> s.traces_evicted);
    ("traces_blacklisted", fun s -> s.traces_blacklisted);
    ("failed_installs", fun s -> s.failed_installs);
    ("pin_refusals", fun s -> s.pin_refusals);
    ("healed_nodes", fun s -> s.healed_nodes);
    ("health_demotions", fun s -> s.health_demotions);
    ("health_promotions", fun s -> s.health_promotions);
    ("final_health", fun s -> s.final_health);
    ("backend_switches", fun s -> s.backend_switches);
    ("snapshots_rejected", fun s -> s.snapshots_rejected);
    ("deopts", fun s -> s.deopts);
    ("deopt_residue_blocks", fun s -> s.deopt_residue_blocks);
    ("osr_promotions", fun s -> s.osr_promotions);
    ("osr_entries", fun s -> s.osr_entries);
    ("osr_state_checks", fun s -> s.osr_state_checks);
    ("osr_state_mismatches", fun s -> s.osr_state_mismatches);
    ("traces_compiled", fun s -> s.traces_compiled);
    ("tier_demotions", fun s -> s.tier_demotions);
    ("demote_refusals", fun s -> s.demote_refusals);
    ("compiled_entries", fun s -> s.compiled_entries);
    ("mi_positions", fun s -> s.mi_positions);
    ("mi_ops", fun s -> s.mi_ops);
    ("mi_fused", fun s -> s.mi_fused);
    ("mi_src_instrs", fun s -> s.mi_src_instrs);
  ]

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den

(* All derived values of the evaluation, computed in one place so the
   tables, the pretty-printer and the exporters cannot drift apart.
   Field names deliberately shadow the projection functions below (value
   and field namespaces are distinct). *)
type derived = {
  total_dispatches : int;
      (* blocks dispatched outside traces plus one dispatch per trace
         entry — the trace-dispatch model's count *)
  trace_events : int; (* signals + traces constructed *)
  avg_trace_length : float;
      (* paper: completed static blocks / distinct completed traces *)
  dynamic_trace_length : float; (* completion-event-weighted length *)
  coverage_completed : float;
  coverage_total : float;
      (* coverage counting partial executions too (the paper's 90.7% vs.
         87.1% distinction) *)
  completion_rate : float;
  dispatches_per_signal : float;
  trace_event_interval : float;
  linking_rate : float;
      (* trace entries chaining directly from another trace's
         completion: the dispatch-level analogue of Dynamo linking *)
  dispatch_reduction : float;
      (* block-model dispatches each trace-model dispatch replaces *)
  quarantine_rate : float;
      (* condemnations per constructed trace: how much of the built
         population chaos claimed *)
  eviction_rate : float; (* capacity evictions per constructed trace *)
  guards_per_kinstr : float;
      (* guards checked per 1000 executed instructions *)
  deopt_rate : float;
      (* OSR deoptimizations per trace entry: how often a followed trace
         was abandoned mid-flight instead of completing or side-exiting
         at its natural end *)
  deopt_residue : float;
      (* average trace positions abandoned past the deopt point — the
         work a non-OSR side exit would have re-dispatched *)
  mi_ops_per_position : float;
      (* micro-ops dispatched per followed trace position on the
         compiled tier *)
  mi_src_per_position : float;
      (* source instructions per position — what the interpreted tier
         would have dispatched for the same positions *)
  mi_dispatch_reduction : float;
      (* 1 - mi_ops/mi_src_instrs: the fraction of per-position dispatch
         work the lowered body removes (folding, DCE, fusion) *)
  mi_fused_share : float;
      (* fraction of dispatched micro-ops that are superinstructions *)
}

let derived t : derived =
  let total_dispatches = t.block_dispatches + t.trace_dispatches in
  let trace_events = t.signals + t.traces_constructed in
  let block_model =
    t.block_dispatches + t.completed_blocks + t.partial_blocks
  in
  {
    total_dispatches;
    trace_events;
    avg_trace_length = ratio t.static_blocks t.static_traces;
    dynamic_trace_length = ratio t.completed_blocks t.traces_completed;
    coverage_completed = ratio t.completed_instrs t.instructions;
    coverage_total =
      ratio (t.completed_instrs + t.partial_instrs) t.instructions;
    completion_rate = ratio t.traces_completed t.traces_entered;
    dispatches_per_signal = ratio total_dispatches t.signals;
    trace_event_interval = ratio total_dispatches trace_events;
    linking_rate = ratio t.chained_entries t.traces_entered;
    dispatch_reduction =
      (if total_dispatches = 0 then 1.0
       else ratio block_model total_dispatches);
    quarantine_rate = ratio t.traces_quarantined t.traces_constructed;
    eviction_rate = ratio t.traces_evicted t.traces_constructed;
    guards_per_kinstr = 1000.0 *. ratio t.guards_checked t.instructions;
    deopt_rate = ratio t.deopts t.traces_entered;
    deopt_residue = ratio t.deopt_residue_blocks t.deopts;
    mi_ops_per_position = ratio t.mi_ops t.mi_positions;
    mi_src_per_position = ratio t.mi_src_instrs t.mi_positions;
    mi_dispatch_reduction =
      (if t.mi_src_instrs = 0 then 0.0
       else 1.0 -. ratio t.mi_ops t.mi_src_instrs);
    mi_fused_share = ratio t.mi_fused t.mi_ops;
  }

(* Projections, kept for call sites that want a single value. *)
let total_dispatches t = (derived t).total_dispatches

let trace_events t = (derived t).trace_events

let avg_trace_length t = (derived t).avg_trace_length

let dynamic_trace_length t = (derived t).dynamic_trace_length

let coverage_completed t = (derived t).coverage_completed

let coverage_total t = (derived t).coverage_total

let completion_rate t = (derived t).completion_rate

let dispatches_per_signal t = (derived t).dispatches_per_signal

let trace_event_interval t = (derived t).trace_event_interval

let linking_rate t = (derived t).linking_rate

let dispatch_reduction t = (derived t).dispatch_reduction

let quarantine_rate t = (derived t).quarantine_rate

let eviction_rate t = (derived t).eviction_rate

let deopt_rate t = (derived t).deopt_rate

let deopt_residue t = (derived t).deopt_residue

let mi_ops_per_position t = (derived t).mi_ops_per_position

let mi_src_per_position t = (derived t).mi_src_per_position

let mi_dispatch_reduction t = (derived t).mi_dispatch_reduction

let mi_fused_share t = (derived t).mi_fused_share

let pp ppf t =
  let d = derived t in
  Format.fprintf ppf
    "@[<v>instructions        %d@,\
     block dispatches    %d@,\
     trace dispatches    %d@,\
     entered/completed   %d/%d (%.2f%%)@,\
     avg trace length    %.2f blocks@,\
     coverage completed  %.1f%%@,\
     coverage total      %.1f%%@,\
     signals             %d@,\
     traces constructed  %d (replaced %d, live %d)@,\
     kdisp/signal        %.1f@,\
     kdisp/trace event   %.1f@,\
     linking rate        %.1f%%@,\
     bcg                 %d nodes, %d edges@]"
    t.instructions t.block_dispatches t.trace_dispatches t.traces_entered
    t.traces_completed
    (100.0 *. d.completion_rate)
    d.avg_trace_length
    (100.0 *. d.coverage_completed)
    (100.0 *. d.coverage_total)
    t.signals t.traces_constructed t.traces_replaced t.traces_live
    (d.dispatches_per_signal /. 1000.0)
    (d.trace_event_interval /. 1000.0)
    (100.0 *. d.linking_rate)
    t.bcg_nodes t.bcg_edges;
  (* guard accounting appears only once traces actually dispatched *)
  if t.guards_checked > 0 then
    Format.fprintf ppf "@,@[<v>guards checked      %d (%.2f/kinstr)@]"
      t.guards_checked d.guards_per_kinstr;
  (* OSR accounting appears only when on-stack replacement actually
     fired, so a run with OSR off renders unchanged *)
  if t.deopts > 0 || t.osr_promotions > 0 then
    Format.fprintf ppf
      "@,\
       @[<v>deopts              %d (%.2f%% of entries, avg residue %.1f blocks)@,\
       osr promotions      %d (%d armed entries taken)@]"
      t.deopts
      (100.0 *. d.deopt_rate)
      d.deopt_residue t.osr_promotions t.osr_entries;
  (* compiled-tier accounting appears only when the tier actually
     dispatched something, so a tier-off run renders unchanged *)
  if t.mi_positions > 0 || t.traces_compiled > 0 then
    Format.fprintf ppf
      "@,\
       @[<v>traces compiled     %d (%d demoted, %d compiled entries)@,\
       micro-IR dispatch   %.2f ops/position vs %.2f instrs \
       (%.1f%% reduction, %.1f%% fused)@]"
      t.traces_compiled t.tier_demotions t.compiled_entries
      d.mi_ops_per_position d.mi_src_per_position
      (100.0 *. d.mi_dispatch_reduction)
      (100.0 *. d.mi_fused_share);
  (* the resilience line only appears when something resilience-related
     happened, so a healthy run's rendering is unchanged *)
  if
    t.invariant_violations > 0 || t.faults_injected > 0
    || t.traces_quarantined > 0 || t.traces_evicted > 0
    || t.failed_installs > 0 || t.healed_nodes > 0 || t.health_demotions > 0
    || t.final_health > 0
  then
    Format.fprintf ppf
      "@,\
       @[<v>violations          %d (faults injected %d)@,\
       quarantined         %d (blacklisted %d, healed nodes %d)@,\
       evicted             %d (failed installs %d)@,\
       health              %d demotions, %d promotions, final level %d@]"
      t.invariant_violations t.faults_injected t.traces_quarantined
      t.traces_blacklisted t.healed_nodes t.traces_evicted t.failed_installs
      t.health_demotions t.health_promotions t.final_health
