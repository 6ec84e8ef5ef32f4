(* The events-vs-stats-vs-ledger reconciliation oracle.

   The event stream, the end-of-run statistics and the decision ledger
   are three views of the same execution; this module owns the exact
   agreements between them so every consumer (`repro_cli events`, the
   chaos harness, the tests) checks the same list rather than each
   keeping a private copy that can drift. *)

module Events = Tracegen.Events
module Stats = Tracegen.Stats
module Engine = Tracegen.Engine
module Ledger = Tracegen.Ledger

type check = { name : string; got : int; want : int }

let check_ok c = c.got = c.want

let all_ok checks = List.for_all check_ok checks

let failures checks = List.filter (fun c -> not (check_ok c)) checks

(* ------------------------------------------------------------------ *)
(* Event tally                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-kind counts plus the three refinements the checks need beyond
   raw kinds: new-vs-reused constructions and the eviction-reason
   split (quarantine removals count under traces_quarantined, the
   other reasons under traces_evicted). *)
type tally = {
  counts : (string, int) Hashtbl.t;
  mutable constructed_new : int;
  mutable evicted_counted : int;
  mutable evicted_quarantine : int;
}

let create_tally () =
  {
    counts = Hashtbl.create 16;
    constructed_new = 0;
    evicted_counted = 0;
    evicted_quarantine = 0;
  }

let count t k = try Hashtbl.find t.counts k with Not_found -> 0

let n_kinds t = Hashtbl.length t.counts

let observe t (payload : Events.payload) =
  let k = Events.kind payload in
  Hashtbl.replace t.counts k (1 + count t k);
  match payload with
  | Events.Trace_constructed { reused = false; _ } ->
      t.constructed_new <- t.constructed_new + 1
  (* exhaustive over the shared eviction-reason variant *)
  | Events.Trace_evicted { reason = Events.Quarantine; _ } ->
      t.evicted_quarantine <- t.evicted_quarantine + 1
  | Events.Trace_evicted
      { reason = Events.Capacity | Events.Pressure | Events.Footprint; _ } ->
      t.evicted_counted <- t.evicted_counted + 1
  | _ -> ()

let attach events =
  let t = create_tally () in
  let _sub =
    Events.subscribe events (fun e -> observe t e.Events.payload)
  in
  t

(* ------------------------------------------------------------------ *)
(* Events vs stats                                                     *)
(* ------------------------------------------------------------------ *)

let event_checks (t : tally) ~(engine : Engine.t) (s : Stats.t) : check list =
  let in_flight =
    match Engine.active_trace engine with Some _ -> 1 | None -> 0
  in
  [
    {
      name = "signal_raised = signals";
      got = count t "signal_raised";
      want = s.Stats.signals;
    };
    {
      name = "trace_constructed (new) = traces_constructed";
      got = t.constructed_new;
      want = s.Stats.traces_constructed;
    };
    {
      name = "trace_constructed (reused) = builder reuses";
      got = count t "trace_constructed" - t.constructed_new;
      want = s.Stats.builder_reuses;
    };
    {
      name = "trace_entered = traces_entered";
      got = count t "trace_entered";
      want = s.Stats.traces_entered;
    };
    {
      name = "trace_completed = traces_completed";
      got = count t "trace_completed";
      want = s.Stats.traces_completed;
    };
    {
      name = "side_exit = entered - completed - in-flight";
      got = count t "side_exit";
      want = s.Stats.traces_entered - s.Stats.traces_completed - in_flight;
    };
    {
      name = "trace_replaced = traces_replaced";
      got = count t "trace_replaced";
      want = s.Stats.traces_replaced;
    };
    {
      name = "fault_injected = faults_injected";
      got = count t "fault_injected";
      want = s.Stats.faults_injected;
    };
    {
      name = "trace_quarantined = traces_quarantined";
      got = count t "trace_quarantined";
      want = s.Stats.traces_quarantined;
    };
    (* quarantine removals also emit trace_evicted (reason "quarantine")
       but count under traces_quarantined, not traces_evicted *)
    {
      name = "trace_evicted (capacity+pressure) = traces_evicted";
      got = t.evicted_counted;
      want = s.Stats.traces_evicted;
    };
    {
      name = "trace_evicted (all reasons) = timeline total";
      got = t.evicted_counted + t.evicted_quarantine;
      want = count t "trace_evicted";
    };
    {
      name = "mode_degraded = health_demotions";
      got = count t "mode_degraded";
      want = s.Stats.health_demotions;
    };
    {
      name = "mode_recovered = health_promotions";
      got = count t "mode_recovered";
      want = s.Stats.health_promotions;
    };
    {
      name = "deopt_entered = deopts";
      got = count t "deopt_entered";
      want = s.Stats.deopts;
    };
    {
      name = "osr_promoted = osr_promotions";
      got = count t "osr_promoted";
      want = s.Stats.osr_promotions;
    };
    {
      name = "trace_compiled = traces_compiled";
      got = count t "trace_compiled";
      want = s.Stats.traces_compiled;
    };
    {
      name = "tier_demoted = tier_demotions";
      got = count t "tier_demoted";
      want = s.Stats.tier_demotions;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Ledger vs stats                                                     *)
(* ------------------------------------------------------------------ *)

(* The decision ledger's aggregates against the same counters.  The
   mapping mirrors where the engine records: every construction and
   reuse flows through a Build record, every tier compile (including
   restore-time recompilation) through Compile, every real eviction
   (capacity/pressure/footprint — not quarantine removal) through
   Evict, and so on. *)
let ledger_checks (l : Ledger.t) (s : Stats.t) : check list =
  let built = ref 0
  and reused = ref 0
  and guard_pruned = ref 0
  and quarantines = ref 0
  and evictions = ref 0
  and replacements = ref 0
  and compiles = ref 0
  and demotions = ref 0
  and osr_promotes = ref 0
  and deopts = ref 0 in
  Ledger.iter
    (fun r ->
      match r.Ledger.action with
      | Ledger.Build { new_traces; reused = re; pruned = _ } ->
          built := !built + new_traces;
          reused := !reused + re
      | Ledger.Guard_prune { pruned } -> guard_pruned := !guard_pruned + pruned
      | Ledger.Install { replaced; _ } ->
          if replaced then incr replacements
      | Ledger.Quarantine _ -> incr quarantines
      | Ledger.Evict _ -> incr evictions
      | Ledger.Compile _ -> incr compiles
      | Ledger.Demote _ -> incr demotions
      | Ledger.Osr_promote _ -> incr osr_promotes
      | Ledger.Deopt _ -> incr deopts)
    l;
  [
    {
      name = "ledger build.new = traces_constructed";
      got = !built;
      want = s.Stats.traces_constructed;
    };
    {
      name = "ledger build.reused = builder reuses";
      got = !reused;
      want = s.Stats.builder_reuses;
    };
    {
      name = "ledger guard_prune = guards_pruned";
      got = !guard_pruned;
      want = s.Stats.guards_pruned;
    };
    {
      name = "ledger install.replaced = traces_replaced";
      got = !replacements;
      want = s.Stats.traces_replaced;
    };
    {
      name = "ledger quarantine = traces_quarantined";
      got = !quarantines;
      want = s.Stats.traces_quarantined;
    };
    {
      name = "ledger evict = traces_evicted";
      got = !evictions;
      want = s.Stats.traces_evicted;
    };
    {
      name = "ledger compile = traces_compiled";
      got = !compiles;
      want = s.Stats.traces_compiled;
    };
    {
      name = "ledger demote = tier_demotions";
      got = !demotions;
      want = s.Stats.tier_demotions;
    };
    {
      name = "ledger osr_promote = osr_promotions";
      got = !osr_promotes;
      want = s.Stats.osr_promotions;
    };
    { name = "ledger deopt = deopts"; got = !deopts; want = s.Stats.deopts };
  ]

(* Both reconciliations for a finished solo-engine run.  Ledger checks
   apply only when the run actually kept a ledger. *)
let run_checks (t : tally) ~(engine : Engine.t) (s : Stats.t) : check list =
  event_checks t ~engine s
  @
  match Engine.ledger engine with
  | Some l -> ledger_checks l s
  | None -> []
