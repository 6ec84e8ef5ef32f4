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

let report ~source checks =
  List.fold_left
    (fun ok c ->
      if check_ok c then begin
        Printf.eprintf "# ok: %s (%d)\n" c.name c.got;
        ok
      end
      else begin
        Printf.eprintf "# MISMATCH: %s (%s %d, stats %d)\n" c.name source
          c.got c.want;
        false
      end)
    true checks

(* ------------------------------------------------------------------ *)
(* Event tally                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-kind counts plus the refinements the checks need beyond raw
   kinds: new-vs-reused constructions, the eviction-reason split
   (quarantine removals count under traces_quarantined, the other
   reasons under traces_evicted) and the deopt residue sum. *)
type tally = {
  counts : (string, int) Hashtbl.t;
  mutable constructed_new : int;
  mutable evicted_counted : int;
  mutable evicted_quarantine : int;
  mutable deopt_residue : int;
}

let create_tally () =
  {
    counts = Hashtbl.create 16;
    constructed_new = 0;
    evicted_counted = 0;
    evicted_quarantine = 0;
    deopt_residue = 0;
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
  | Events.Deopt_entered { residue_blocks; _ } ->
      t.deopt_residue <- t.deopt_residue + residue_blocks
  | _ -> ()

let attach events =
  let t = create_tally () in
  let _sub =
    Events.subscribe events (fun e -> observe t e.Events.payload)
  in
  t

(* ------------------------------------------------------------------ *)
(* The identities                                                      *)
(* ------------------------------------------------------------------ *)

(* The plain identities: occurrences of one event kind = one
   [Stats.counters] counter. *)
let kind_counters =
  [
    ("signal_raised", "signals");
    ("trace_entered", "traces_entered");
    ("trace_completed", "traces_completed");
    ("trace_replaced", "traces_replaced");
    ("fault_injected", "faults_injected");
    ("trace_quarantined", "traces_quarantined");
    ("mode_degraded", "health_demotions");
    ("mode_recovered", "health_promotions");
    ("deopt_entered", "deopts");
    ("osr_promoted", "osr_promotions");
    ("trace_compiled", "traces_compiled");
    ("tier_demoted", "tier_demotions");
  ]

(* Every identity, tagged with the event kind it counts.  [in_flight]
   is 1 when the run stopped inside a trace. *)
let identities ~in_flight (t : tally) (s : Stats.t) : (string * check) list =
  let stat name = (List.assoc name Stats.counters) s in
  let row kind name got want = (kind, { name; got; want }) in
  List.map
    (fun (kind, counter) ->
      row kind (kind ^ " = " ^ counter) (count t kind) (stat counter))
    kind_counters
  @ [
      row "trace_constructed" "trace_constructed (new) = traces_constructed"
        t.constructed_new (stat "traces_constructed");
      row "trace_constructed" "trace_constructed (reused) = builder_reuses"
        (count t "trace_constructed" - t.constructed_new)
        (stat "builder_reuses");
      row "side_exit" "side_exit = entered - completed - in-flight"
        (count t "side_exit")
        (stat "traces_entered" - stat "traces_completed" - in_flight);
      (* quarantine removals also emit trace_evicted (reason
         "quarantine") but count under traces_quarantined *)
      row "trace_evicted" "trace_evicted (capacity+pressure) = traces_evicted"
        t.evicted_counted (stat "traces_evicted");
      row "trace_evicted" "trace_evicted (all reasons) = timeline total"
        (t.evicted_counted + t.evicted_quarantine)
        (count t "trace_evicted");
      row "deopt_entered" "deopt_entered (residue) = deopt_residue_blocks"
        t.deopt_residue (stat "deopt_residue_blocks");
    ]

let event_checks (t : tally) ~(engine : Engine.t) (s : Stats.t) : check list =
  let in_flight =
    match Engine.active_trace engine with Some _ -> 1 | None -> 0
  in
  List.map snd (identities ~in_flight t s)

(* The same identities over a tally of the ledger's events, restricted
   to the kinds the ledger keeps. *)
let ledger_checks (l : Ledger.t) (s : Stats.t) : check list =
  let t = create_tally () in
  Ledger.iter (fun e -> observe t e.Events.payload) l;
  List.filter_map
    (fun (kind, c) ->
      if List.mem kind Ledger.kinds then
        Some { c with name = "ledger " ^ c.name }
      else None)
    (identities ~in_flight:0 t s)

(* Both reconciliations for a finished solo-engine run. *)
let run_checks (t : tally) ~(engine : Engine.t) (s : Stats.t) : check list =
  event_checks t ~engine s
  @
  match Engine.ledger engine with
  | Some l -> ledger_checks l s
  | None -> []
