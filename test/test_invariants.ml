(* The runtime invariant checks (Tracegen.Invariants) and the engine's
   debug_checks wiring:

   - a healthy run over every registered workload reports zero
     violations;
   - the sweeps are transparent (same result, same instruction count);
   - each seeded corruption of the BCG or the trace cache fires its
     TL-coded check. *)

module Engine = Tracegen.Engine
module Bcg = Tracegen.Bcg
module Trace_cache = Tracegen.Trace_cache
module Invariants = Tracegen.Invariants
module Config = Tracegen.Config
module Events = Tracegen.Events
module Diag = Analysis.Diag

(* Cache decisions made outside any engine go to a stream and counters
   nobody reads. *)
let install cache ~first ~blocks ~prob =
  let tr =
    Trace_cache.install cache ~events:(Events.create ())
      ~counts:(Tracegen.Stats.zero ()) ~first ~blocks ~len:(Array.length blocks) ~prob
  in
  if tr == Tracegen.Trace.none then Alcotest.fail "installation refused";
  tr

let tc = Alcotest.test_case
let check = Alcotest.check

let codes diags = List.map (fun d -> d.Diag.code) diags

let has_code c diags = List.mem c (codes diags)

(* The cache's findings, through the full sweep over an empty BCG, which
   adds none of its own. *)
let check_cache ?context cache =
  let n_blocks = (Trace_cache.layout cache).Cfg.Layout.n_blocks in
  Invariants.check_all ?context Config.default
    ~bcg:(Bcg.create Config.default ~n_blocks ~on_signal:ignore)
    ~cache

let debug_config = Config.make ~debug_checks:true ()

(* --------------------------------------------------------------- *)
(* healthy runs                                                      *)
(* --------------------------------------------------------------- *)

(* The acceptance property: the engine with debug_checks on reports zero
   violations across the whole workload registry, and a final end-of-run
   sweep agrees. *)
let test_workloads_zero_violations () =
  List.iter
    (fun w ->
      let name = w.Workloads.Workload.name in
      let layout =
        Cfg.Layout.build (Workloads.Workload.build_default w)
      in
      let r = Engine.run ~config:debug_config layout in
      let engine = r.Engine.engine in
      check Alcotest.int
        (Printf.sprintf "%s: zero violations during the run" name)
        0
        r.Engine.run_stats.Tracegen.Stats.invariant_violations;
      let final =
        Invariants.check_all ~context:name debug_config
          ~bcg:(Tracegen.Profiler.bcg (Engine.profiler engine))
          ~cache:(Engine.cache engine)
      in
      List.iter
        (fun d ->
          Alcotest.failf "%s: unexpected finding %s" name (Diag.to_string d))
        final)
    Workloads.Registry.all

let test_debug_checks_transparent () =
  let w = Workloads.Compress.workload in
  let layout = Cfg.Layout.build (w.Workloads.Workload.build ~size:2_000) in
  let plain = Engine.run layout in
  let checked = Engine.run ~config:debug_config layout in
  check Alcotest.bool "same outcome" true
    (plain.Engine.vm_result.Vm.Interp.outcome
    = checked.Engine.vm_result.Vm.Interp.outcome);
  check Alcotest.int "same instruction count"
    plain.Engine.vm_result.Vm.Interp.instructions
    checked.Engine.vm_result.Vm.Interp.instructions

(* a healthy run with the event stream live publishes no
   invariant_violation events *)
let test_no_violation_events () =
  let w = Workloads.Compress.workload in
  let layout = Cfg.Layout.build (w.Workloads.Workload.build ~size:2_000) in
  let events = Events.create () in
  let violations = ref 0 in
  let _sub =
    Events.subscribe events (fun e ->
        match e.Events.payload with
        | Events.Invariant_violation _ -> incr violations
        | _ -> ())
  in
  ignore (Engine.run ~config:debug_config ~events layout);
  check Alcotest.int "no invariant_violation events" 0 !violations

(* --------------------------------------------------------------- *)
(* seeded corruptions                                                *)
(* --------------------------------------------------------------- *)

(* a warmed engine whose BCG has nodes with edges to corrupt *)
let warm_engine () =
  let w = Workloads.Compress.workload in
  let layout = Cfg.Layout.build (w.Workloads.Workload.build ~size:1_000) in
  let r = Engine.run layout in
  let engine = r.Engine.engine in
  (layout, engine, Tracegen.Profiler.bcg (Engine.profiler engine))

(* The engine's full sweep: the BCG, then the cache. *)
let sweep engine bcg =
  Invariants.check_all Config.default ~bcg ~cache:(Engine.cache engine)

let find_node_with_edge bcg =
  let found = ref None in
  Bcg.iter_nodes bcg (fun n ->
      if !found = None && n.Bcg.edges <> [] then found := Some n);
  match !found with
  | Some n -> n
  | None -> Alcotest.fail "warm BCG has no node with edges"

let test_corrupt_edge_weight_fires_tl204 () =
  let _, engine, bcg = warm_engine () in
  check Alcotest.bool "healthy first" false
    (Diag.has_errors (sweep engine bcg));
  let n = find_node_with_edge bcg in
  let e = List.hd n.Bcg.edges in
  let saved = e.Bcg.weight in
  e.Bcg.weight <- -5;
  check Alcotest.bool "negative weight fires TL204" true
    (has_code "TL204" (sweep engine bcg));
  e.Bcg.weight <- Tracegen.Config.counter_max + 1;
  check Alcotest.bool "oversized weight fires TL204" true
    (has_code "TL204" (sweep engine bcg));
  e.Bcg.weight <- saved

let test_corrupt_best_fires_tl205 () =
  let _, engine, bcg = warm_engine () in
  let n = find_node_with_edge bcg in
  let saved = n.Bcg.best in
  n.Bcg.best <- None;
  check Alcotest.bool "edges without a best fires TL205" true
    (has_code "TL205" (sweep engine bcg));
  n.Bcg.best <- saved

let test_corrupt_decay_bookkeeping_fires_tl206 () =
  let _, engine, bcg = warm_engine () in
  let n = find_node_with_edge bcg in
  let saved = n.Bcg.since_decay in
  n.Bcg.since_decay <- (Tracegen.Config.decay_period Tracegen.Config.default) + 7;
  check Alcotest.bool "since_decay out of range fires TL206" true
    (has_code "TL206" (sweep engine bcg));
  n.Bcg.since_decay <- saved

(* trace cache corruptions: install traces whose recorded completion
   probability or length violates the construction guarantees *)
let tiny_layout () =
  let w = Workloads.Compress.workload in
  Cfg.Layout.build (w.Workloads.Workload.build ~size:500)

let test_bad_trace_prob_fires_tl201 () =
  let layout = tiny_layout () in
  let cache = Trace_cache.create layout in
  ignore (install cache ~first:0 ~blocks:[| 1; 2; 3 |] ~prob:1.5);
  let diags = check_cache cache in
  check Alcotest.bool "prob > 1 fires TL201" true (has_code "TL201" diags);
  let cache2 = Trace_cache.create layout in
  ignore (install cache2 ~first:0 ~blocks:[| 1; 2; 3 |] ~prob:0.5);
  let diags2 = check_cache cache2 in
  check Alcotest.bool "prob below threshold fires TL201" true
    (has_code "TL201" diags2)

let test_bad_trace_length_fires_tl209 () =
  let layout = tiny_layout () in
  let cache = Trace_cache.create layout in
  let too_long =
    Array.init
      (Tracegen.Config.max_trace_blocks + 1)
      (fun k -> (k + 1) mod layout.Cfg.Layout.n_blocks)
  in
  ignore (install cache ~first:0 ~blocks:too_long ~prob:1.0);
  let diags = check_cache cache in
  check Alcotest.bool "overlong trace fires TL209" true
    (has_code "TL209" diags);
  (* a single-block trace violates the minimum *)
  let cache2 = Trace_cache.create layout in
  ignore (install cache2 ~first:0 ~blocks:[| 1 |] ~prob:1.0);
  check Alcotest.bool "short trace fires TL209" true
    (has_code "TL209" (check_cache cache2))

let test_unrolled_transitions_fire_tl203 () =
  let layout = tiny_layout () in
  let cache = Trace_cache.create layout in
  (* the transition 1->2 appears three times: a loop unrolled twice *)
  ignore
    (install cache ~first:0
       ~blocks:[| 1; 2; 1; 2; 1; 2 |] ~prob:1.0);
  check Alcotest.bool "thrice-repeated transition fires TL203" true
    (has_code "TL203" (check_cache cache))

(* every corruption finding is error severity and renders with its code *)
let test_findings_render () =
  let layout = tiny_layout () in
  let cache = Trace_cache.create layout in
  ignore (install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:2.0);
  let diags = check_cache ~context:"seeded" cache in
  check Alcotest.bool "errors" true (Diag.has_errors diags);
  List.iter
    (fun d ->
      let s = Diag.to_string d in
      check Alcotest.bool "rendering carries the code" true
        (String.length s >= 5
        && String.sub s 0 6 = "seeded"
        &&
        let rec contains i =
          i + 5 <= String.length s
          && (String.sub s i 5 = d.Diag.code || contains (i + 1))
        in
        contains 0))
    diags

let () =
  Alcotest.run "invariants"
    [
      ( "healthy",
        [
          tc "workload registry, zero violations" `Slow
            test_workloads_zero_violations;
          tc "debug checks transparent" `Quick test_debug_checks_transparent;
          tc "no violation events" `Quick test_no_violation_events;
        ] );
      ( "seeded",
        [
          tc "edge weight -> TL204" `Quick test_corrupt_edge_weight_fires_tl204;
          tc "best cache -> TL205" `Quick test_corrupt_best_fires_tl205;
          tc "decay bookkeeping -> TL206" `Quick
            test_corrupt_decay_bookkeeping_fires_tl206;
          tc "trace prob -> TL201" `Quick test_bad_trace_prob_fires_tl201;
          tc "trace length -> TL209" `Quick test_bad_trace_length_fires_tl209;
          tc "loop unrolling -> TL203" `Quick
            test_unrolled_transitions_fire_tl203;
          tc "findings render" `Quick test_findings_render;
        ] );
    ]
