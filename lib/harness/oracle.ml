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
module Metrics = Tracegen.Metrics

type check = { name : string; got : int; want : int }

let check_ok c = c.got = c.want

let all_ok checks = List.for_all check_ok checks

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
   reasons under traces_evicted), the run's five distributions, each a
   fold of one event field, and one row per constructed trace. *)
type trace_row = {
  id : int;
  first : Cfg.Layout.gid;
  body : Cfg.Layout.gid array; (* trace_constructed.blocks *)
  n_instrs : int;
  prob : float;
  mutable entered : int;
  mutable completed : int;
  exits : int array; (* side exits by at_block *)
  mutable partial_instrs : int; (* sum of side_exit.matched_instrs *)
}

type tally = {
  counts : (string, int) Hashtbl.t;
  rows : (int, trace_row) Hashtbl.t; (* by trace id, first construction *)
  mutable unknown_trace : int; (* hot events naming no constructed trace *)
  mutable mismatched : int; (* completions whose sizes are not the body's *)
  mutable restated : int; (* reuses that differ from the row they name *)
  mutable constructed_new : int;
  mutable evicted_counted : int;
  mutable evicted_quarantine : int;
  trace_len : Metrics.histogram; (* trace_completed.n_blocks *)
  exit_distance : Metrics.histogram; (* side_exit.at_block *)
  build_len : Metrics.histogram; (* path_walked.transitions *)
  backoff : Metrics.histogram;
      (* trace_quarantined: until - time, finite backoffs only *)
  deopt_residue : Metrics.histogram; (* deopt_entered.residue_blocks *)
}

let create_tally () =
  {
    counts = Hashtbl.create 16;
    rows = Hashtbl.create 64;
    unknown_trace = 0;
    mismatched = 0;
    restated = 0;
    constructed_new = 0;
    evicted_counted = 0;
    evicted_quarantine = 0;
    trace_len = Metrics.histogram "executed_trace_len";
    exit_distance = Metrics.histogram "completion_distance";
    build_len = Metrics.histogram "builder_path_len";
    backoff = Metrics.histogram "quarantine_backoff";
    deopt_residue = Metrics.histogram "deopt_residue";
  }

let count t k = try Hashtbl.find t.counts k with Not_found -> 0

let n_kinds t = Hashtbl.length t.counts

let histograms t =
  [ t.trace_len; t.exit_distance; t.build_len; t.backoff; t.deopt_residue ]

let traces t = Hashtbl.fold (fun _ row acc -> row :: acc) t.rows []

let row_count f t id =
  match Hashtbl.find_opt t.rows id with Some row -> f row | None -> 0

let entered = row_count (fun row -> row.entered)

let completed = row_count (fun row -> row.completed)

let side_exits row = Array.fold_left ( + ) 0 row.exits

let rows_sum t f = Hashtbl.fold (fun _ row acc -> acc + f row) t.rows 0

(* Fold a hot event into its trace's row, or count a row-less one. *)
let on_row t id f =
  match Hashtbl.find_opt t.rows id with
  | Some row -> f row
  | None -> t.unknown_trace <- t.unknown_trace + 1

let observe t (e : Events.event) =
  let k = Events.kind e.Events.payload in
  Hashtbl.replace t.counts k (1 + count t k);
  match e.Events.payload with
  | Events.Trace_constructed { trace_id; first; blocks; n_instrs; prob; reused }
    ->
      if not reused then t.constructed_new <- t.constructed_new + 1;
      (* a hash-cons reuse names a trace already seen: keep its row, which
         the reuse must repeat *)
      (match Hashtbl.find_opt t.rows trace_id with
      | Some row ->
          if prob <> row.prob || blocks <> row.body then
            t.restated <- t.restated + 1
      | None ->
          Hashtbl.replace t.rows trace_id
            { id = trace_id; first; body = blocks; n_instrs; prob; entered = 0;
              completed = 0; exits = Array.make (Array.length blocks) 0;
              partial_instrs = 0 })
  | Events.Trace_entered { trace_id; _ } ->
      on_row t trace_id (fun row -> row.entered <- row.entered + 1)
  (* exhaustive over the shared eviction-reason variant *)
  | Events.Trace_evicted { reason = Events.Quarantine; _ } ->
      t.evicted_quarantine <- t.evicted_quarantine + 1
  | Events.Trace_evicted
      { reason = Events.Capacity | Events.Pressure | Events.Footprint; _ } ->
      t.evicted_counted <- t.evicted_counted + 1
  | Events.Trace_completed { trace_id; n_blocks; n_instrs } ->
      Metrics.record t.trace_len n_blocks;
      on_row t trace_id (fun row ->
          row.completed <- row.completed + 1;
          if n_blocks <> Array.length row.body || n_instrs <> row.n_instrs then
            t.mismatched <- t.mismatched + 1)
  | Events.Side_exit { trace_id; at_block; matched_instrs } ->
      Metrics.record t.exit_distance at_block;
      on_row t trace_id (fun row ->
          (* an at_block outside the body goes unrecorded, and the
             inlined-positions identity catches it *)
          if at_block >= 0 && at_block < Array.length row.exits then
            row.exits.(at_block) <- row.exits.(at_block) + 1;
          row.partial_instrs <- row.partial_instrs + matched_instrs)
  | Events.Path_walked { transitions } -> Metrics.record t.build_len transitions
  | Events.Trace_quarantined { until; _ } when until <> max_int ->
      Metrics.record t.backoff (until - e.Events.time)
  | Events.Deopt_entered { residue_blocks; _ } ->
      Metrics.record t.deopt_residue residue_blocks
  | _ -> ()

let attach events =
  let t = create_tally () in
  Events.subscribe events (observe t);
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
        (Metrics.hist_sum t.deopt_residue)
        (stat "deopt_residue_blocks");
      (* the hot exit events' fields sum to the exit counters *)
      row "trace_completed" "trace_completed (blocks) = completed_blocks"
        (Metrics.hist_sum t.trace_len) (stat "completed_blocks");
      row "trace_completed" "trace_completed (instrs) = completed_instrs"
        (rows_sum t (fun r -> r.completed * r.n_instrs))
        (stat "completed_instrs");
      row "side_exit" "side_exit (at_block) = partial_blocks"
        (Metrics.hist_sum t.exit_distance) (stat "partial_blocks");
      row "side_exit" "side_exit (instrs) = partial_instrs"
        (rows_sum t (fun r -> r.partial_instrs))
        (stat "partial_instrs");
    ]

(* Completions cover whole bodies, side exits their first [at_block]
   positions, a run that stops mid-trace the positions matched so far. *)
let inlined t ~(engine : Engine.t) =
  let counts = Array.make (Engine.layout engine).Cfg.Layout.n_blocks 0 in
  (* the body's first [upto] positions, [k] times each *)
  let cover body upto k =
    for i = 0 to upto - 1 do
      counts.(body.(i)) <- counts.(body.(i)) + k
    done
  in
  Hashtbl.iter
    (fun _ row ->
      cover row.body (Array.length row.body) row.completed;
      Array.iteri (cover row.body) row.exits)
    t.rows;
  (match Engine.active_trace engine with
  | Some tr when Hashtbl.mem t.rows tr.Tracegen.Trace.id ->
      cover (Hashtbl.find t.rows tr.Tracegen.Trace.id).body
        (Engine.inflight_matched_blocks engine) 1
  | _ -> ());
  counts

(* Trace dispatch is an overlay, so the engine's run executed exactly
   the blocks a plain run of its layout under the same cap executes. *)
let executed ?max_instructions (engine : Engine.t) =
  let layout = Engine.layout engine in
  let counts = Array.make layout.Cfg.Layout.n_blocks 0 in
  ignore
    (Vm.Interp.run ?max_instructions layout ~on_block:(fun g ->
         counts.(g) <- counts.(g) + 1));
  counts

let event_checks (t : tally) ~(engine : Engine.t) (s : Stats.t) : check list =
  let in_flight =
    match Engine.active_trace engine with Some _ -> 1 | None -> 0
  in
  let sum = Array.fold_left ( + ) 0 in
  let row name got want = { name; got; want } in
  let completed_rows f =
    rows_sum t (fun r -> if r.completed > 0 then f r else 0)
  in
  List.map snd (identities ~in_flight t s)
  (* the per-trace rows the hot report reads *)
  @ [
      row "hot events name a constructed trace" t.unknown_trace 0;
      row "reused trace_constructed = the trace's first construction"
        t.restated 0;
      row "trace_completed (n_blocks, n_instrs) = constructed trace's"
        t.mismatched 0;
      row "trace rows completed = static_traces" (completed_rows (fun _ -> 1))
        s.Stats.static_traces;
      row "trace rows completed (body blocks) = static_blocks"
        (completed_rows (fun r -> Array.length r.body))
        s.Stats.static_blocks;
      row "inlined positions = completed + partial blocks + in-flight"
        (sum (inlined t ~engine))
        (s.Stats.completed_blocks + s.Stats.partial_blocks
        + Engine.inflight_matched_blocks engine);
    ]

(* Every execution of a block is either a dispatch outside any trace or
   an inlined position inside one. *)
let block_checks ~executed (t : tally) ~(engine : Engine.t) (s : Stats.t) :
    check list =
  let inlined = inlined t ~engine in
  let over = ref 0 and self = ref 0 in
  Array.iteri
    (fun g e ->
      if inlined.(g) > e then incr over;
      self := !self + e - inlined.(g))
    executed;
  [
    { name = "blocks inlined more often than executed"; got = !over; want = 0 };
    {
      name = "self dispatches (executed - inlined) = block_dispatches";
      got = !self;
      want = s.Stats.block_dispatches;
    };
  ]

(* The same identities over a tally of the ledger's events, restricted
   to the kinds the ledger keeps. *)
let ledger_checks (l : Ledger.t) (s : Stats.t) : check list =
  let t = create_tally () in
  Ledger.iter (observe t) l;
  List.filter_map
    (fun (kind, c) ->
      if List.mem kind Ledger.kinds then
        Some { c with name = "ledger " ^ c.name }
      else None)
    (identities ~in_flight:0 t s)

(* Both reconciliations for a finished run. *)
let run_checks (t : tally) ~(engine : Engine.t) (s : Stats.t) : check list =
  event_checks t ~engine s
  @
  match Engine.ledger engine with
  | Some l -> ledger_checks l s
  | None -> []
