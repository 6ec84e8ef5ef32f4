module Config = Tracegen.Config
module Engine = Tracegen.Engine
module Health = Tracegen.Health
module Stats = Tracegen.Stats
module Faults = Tracegen.Faults
module Interp = Vm.Interp

(* Chaos testing: run workloads under randomized fault schedules and hold
   the engine to two promises.

   1. Transparency (FT901): tracing is a pure observational overlay, so
      the VM's results must be bit-identical to a no-tracing baseline
      under ANY fault schedule — corrupted traces may cost performance,
      never correctness.

   2. Recovery (FT902): the fault budget is sized to exhaust early in
      the run, after which the self-healing machinery must climb the
      degradation ladder back to full tracing before the run ends.

   Schedules are deterministic per (spec, seed), so a failing seed is a
   reproducible bug report. *)

(* Every fault kind armed, probabilities tuned so a default-size workload
   sees its entire budget in the first few thousand dispatches and then
   has the rest of the run to recover. *)
let default_spec =
  "corrupt-trace@0.004,corrupt-instrs@0.003,zero-counter@0.003,\
   saturate-counter@0.002,drop-best@0.002,fail-install@0.003,\
   alloc-pressure@0.001,budget=24"

(* debug_checks is on so sweep-based healing runs; the cache is bounded
   so eviction paths are exercised too.  [osr] arms on-stack replacement
   (mid-trace deopt + mid-loop promotion): the transparency promise must
   hold with the deopt paths live, which is what the check.sh
   deopt-transparency gate drives with a guard-flip schedule.  [tier]
   arms the compiled micro-IR tier, putting compiled-trace dispatch (and
   deopt from the compiled tier, with [osr]) under the same gate. *)
let config ?(spec = default_spec) ?(osr = false) ?(tier = false) ~seed () =
  Config.make ~debug_checks:true ~self_heal:true ~max_cache_traces:48
    ~fault_spec:spec ~fault_seed:seed ~osr ~tier ()

type verdict = {
  workload : string;
  seed : int;
  identical : bool; (* FT901: VM results match the baseline *)
  recovered : bool; (* FT902: ended the run at full tracing *)
  reconciled : bool; (* FT903: events/ledger/stats agree (Oracle) *)
  stats : Stats.t;
}

let passed v = v.identical && v.recovered && v.reconciled

(* A comparable fingerprint of a VM result: outcome rendered to a string
   (structural, covers traps) plus both dispatch-model counts. *)
let fingerprint (r : Interp.result) : string * int * int =
  let outcome =
    match r.Interp.outcome with
    | Interp.Finished None -> "finished:"
    | Interp.Finished (Some v) -> "finished:" ^ Vm.Value.to_string v
    | Interp.Trapped (kind, msg) ->
        "trapped:" ^ Interp.error_kind_to_string kind ^ ":" ^ msg
  in
  (outcome, r.Interp.instructions, r.Interp.block_dispatches)

let run_one ?spec ?osr ?tier ?max_instructions ?dump_dir
    (w : Workloads.Workload.t) ~size ~seed : verdict =
  let layout = Experiment.layout_for w ~size in
  let baseline = Interp.run_plain ?max_instructions layout in
  let chaos_config = config ?spec ?osr ?tier ~seed () in
  (* the event stream feeds both the reconciliation oracle and — via the
     engine's tap — the flight recorder's post-mortem window *)
  let events = Tracegen.Events.create () in
  let tally = Oracle.attach events in
  let engine = Engine.create ~config:chaos_config ~events layout in
  (match dump_dir with
  | Some dir -> Postmortem.arm ~dir engine
  | None -> ());
  let result = Engine.drive ?max_instructions engine in
  let stats = result.Engine.run_stats in
  let identical =
    fingerprint baseline = fingerprint result.Engine.vm_result
  in
  (* a transparency breach is exactly what the black box is for: dump
     the surviving window (a file only when a dump sink is armed) *)
  (if not identical then
     match Engine.flightrec engine with
     | Some fr ->
         Tracegen.Flightrec.trigger fr Tracegen.Flightrec.Divergence
     | None -> ());
  {
    workload = w.Workloads.Workload.name;
    seed;
    identical;
    recovered = stats.Stats.final_health = 0;
    reconciled = Oracle.all_ok (Oracle.run_checks tally ~engine stats);
    stats;
  }

let describe v =
  Printf.sprintf
    "%-10s seed=%-6d %s %s %s faults=%d quarantined=%d evicted=%d healed=%d \
     demoted=%d promoted=%d violations=%d"
    v.workload v.seed
    (if v.identical then "identical" else "DIVERGED(FT901)")
    (if v.recovered then "recovered" else "DEGRADED(FT902)")
    (if v.reconciled then "reconciled" else "DRIFTED(FT903)")
    v.stats.Stats.faults_injected v.stats.Stats.traces_quarantined
    v.stats.Stats.traces_evicted v.stats.Stats.healed_nodes
    v.stats.Stats.health_demotions v.stats.Stats.health_promotions
    v.stats.Stats.invariant_violations
