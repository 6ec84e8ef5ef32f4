(* The derived metrics, pinned with hand-built records. *)

module Stats = Tracegen.Stats

let tc = Alcotest.test_case
let check = Alcotest.check
let approx = Alcotest.float 1e-9

let sample =
  {
    (Stats.zero ()) with
    Stats.instructions = 1000;
    block_dispatches = 100;
    traces_entered = 50;
    traces_completed = 40;
    completed_blocks = 200;
    partial_blocks = 30;
    completed_instrs = 600;
    partial_instrs = 100;
    signals = 5;
    traces_constructed = 10;
    static_traces = 8;
    static_blocks = 40;
    chained_entries = 20;
  }

let test_totals () =
  check Alcotest.int "total dispatches" 150 (Stats.total_dispatches sample);
  check Alcotest.int "trace events" 15 (Stats.trace_events sample)

let test_lengths () =
  check approx "static avg length" 5.0 (Stats.avg_trace_length sample);
  check approx "dynamic avg length" 5.0 (Stats.dynamic_trace_length sample)

let test_coverage () =
  check approx "completed coverage" 0.6 (Stats.coverage_completed sample);
  check approx "total coverage" 0.7 (Stats.coverage_total sample)

let test_rates () =
  check approx "completion rate" 0.8 (Stats.completion_rate sample);
  check approx "dispatches per signal" 30.0 (Stats.dispatches_per_signal sample);
  check approx "trace event interval" 10.0 (Stats.trace_event_interval sample);
  check approx "linking rate" 0.4 (Stats.linking_rate sample)

let test_dispatch_reduction () =
  (* block model: 100 outside + 200 completed + 30 partial = 330 over 150 *)
  check approx "reduction" (330.0 /. 150.0) (Stats.dispatch_reduction sample)

let test_resilience_rates () =
  let s =
    {
      sample with
      Stats.traces_quarantined = 4;
      traces_evicted = 2;
      faults_injected = 6;
    }
  in
  check approx "quarantine rate" 0.4 (Stats.quarantine_rate s);
  check approx "eviction rate" 0.2 (Stats.eviction_rate s);
  (* a healthy record rates at zero, and so does one with quarantines but
     no constructions (no division by zero) *)
  check approx "healthy quarantine rate" 0.0 (Stats.quarantine_rate sample);
  check approx "no constructions" 0.0
    (Stats.quarantine_rate { (Stats.zero ()) with Stats.traces_quarantined = 3 })

let test_resilience_pp () =
  (* healthy record: no resilience block *)
  let healthy = Format.asprintf "%a" Stats.pp sample in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "healthy pp omits violations" false
    (contains healthy "violations");
  let chaotic =
    Format.asprintf "%a" Stats.pp
      { sample with Stats.faults_injected = 5; traces_quarantined = 2 }
  in
  check Alcotest.bool "chaotic pp shows violations line" true
    (contains chaotic "violations");
  check Alcotest.bool "chaotic pp shows quarantine count" true
    (contains chaotic "quarantined")

let test_zero_division_safety () =
  let z = Stats.zero () in
  check approx "length" 0.0 (Stats.avg_trace_length z);
  check approx "coverage" 0.0 (Stats.coverage_completed z);
  check approx "completion" 0.0 (Stats.completion_rate z);
  check approx "per signal" 0.0 (Stats.dispatches_per_signal z);
  check approx "interval" 0.0 (Stats.trace_event_interval z);
  check approx "linking" 0.0 (Stats.linking_rate z);
  check approx "reduction" 1.0 (Stats.dispatch_reduction z)

let test_pp () =
  let s = Format.asprintf "%a" Stats.pp sample in
  check Alcotest.bool "pp mentions coverage" true
    (String.length s > 50)

let test_invariants_from_run () =
  let w = Workloads.Compress.workload in
  let layout = Cfg.Layout.build (w.Workloads.Workload.build ~size:2_000) in
  let s = (Tracegen.Engine.run layout).Tracegen.Engine.run_stats in
  check Alcotest.bool "entered >= completed" true
    (s.Stats.traces_entered >= s.Stats.traces_completed);
  check Alcotest.bool "chained <= entered" true
    (s.Stats.chained_entries <= s.Stats.traces_entered);
  check Alcotest.bool "static traces <= constructed" true
    (s.Stats.static_traces <= s.Stats.traces_constructed);
  check Alcotest.bool "coverage total <= 1" true (Stats.coverage_total s <= 1.0);
  check Alcotest.bool "reduction >= 1 on a traced run" true
    (Stats.dispatch_reduction s >= 1.0);
  (* chaining must actually occur on a loopy workload *)
  check Alcotest.bool "linking rate meaningful" true
    (Stats.linking_rate s > 0.5)

(* ---- the counter table: one definition drives snapshots and JSON ---- *)

module Engine = Tracegen.Engine
module Metrics = Tracegen.Metrics

let compress_layout size =
  let w = Workloads.Compress.workload in
  Cfg.Layout.build (w.Workloads.Workload.build ~size)

let test_counter_names () =
  let names = List.map fst Stats.counters in
  check Alcotest.int "names are unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  let keys =
    match Harness.Export.stats_json (Stats.zero ()) with
    | Harness.Codec.J_obj fields -> List.map fst fields
    | _ -> Alcotest.fail "stats_json is not an object"
  in
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " is a stats_json key") true
        (List.mem name keys))
    names

(* A phase snapshot holds every counter but [instructions] (only the VM
   knows it), equal to [Engine.counters] read in the same dispatch:
   subscribers run synchronously, inside the dispatch that took the
   snapshot.  The run moves the OSR, tier and self-healing counters. *)
let test_gauges_match_stats () =
  let config =
    Tracegen.Config.make ~osr:true ~tier:true ~self_heal:true
      ~debug_checks:true ~snapshot_period:997
      ~fault_spec:"corrupt-trace@0.005,budget=20" ()
  in
  let events = Tracegen.Events.create () in
  let engine = Engine.create ~config ~events (compress_layout 2_000) in
  let snapshots = ref 0 in
  let _ =
    Tracegen.Events.subscribe events (fun e ->
        match e.Tracegen.Events.payload with
        | Tracegen.Events.Phase_snapshot snap ->
            incr snapshots;
            let live = Engine.counters engine in
            List.iter
              (fun (name, get) ->
                let field =
                  Array.find_opt
                    (fun (n, _) -> n = name)
                    snap.Metrics.values
                in
                if name = "instructions" then
                  check Alcotest.(option int) "no instructions field" None
                    (Option.map snd field)
                else
                  check Alcotest.(option int) (name ^ " field")
                    (Some (get live)) (Option.map snd field))
              Stats.counters
        | _ -> ())
  in
  let s = (Engine.drive engine).Engine.run_stats in
  check Alcotest.bool "snapshots were taken" true (!snapshots > 0);
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " moved") true
        (List.assoc name Stats.counters s > 0))
    [ "guards_checked"; "traces_compiled"; "deopts"; "faults_injected" ]

let values s = List.map (fun (_, get) -> get s) Stats.counters

(* A returned record is a snapshot: it does not move with the engine,
   and no two engines share a counter record. *)
let test_counters_are_copies () =
  let layout = compress_layout 500 in
  let r = Engine.run layout in
  let e = r.Engine.engine and stats = r.Engine.run_stats in
  let idle = Engine.create layout in
  let live = Engine.counters e in
  let before = values live and stats_before = values stats in
  (* keep feeding the engine after the run *)
  for g = 0 to 99 do
    Engine.on_block e (g mod layout.Cfg.Layout.n_blocks)
  done;
  check Alcotest.bool "the engine kept counting" true
    (Engine.total_dispatches e > Stats.total_dispatches live);
  check Alcotest.(list int) "counters copy unchanged" before (values live);
  check Alcotest.(list int) "stats copy unchanged" stats_before (values stats);
  check Alcotest.bool "two reads are distinct records" true
    (Engine.counters e != Engine.counters e);
  check Alcotest.(list int) "an idle engine saw none of it"
    (values (Stats.zero ()))
    (values (Engine.counters idle));
  let z = Stats.zero () in
  z.Stats.block_dispatches <- 7;
  check Alcotest.int "zero is fresh every time" 0
    (Stats.zero ()).Stats.block_dispatches

let () =
  Alcotest.run "stats"
    [
      ( "derived",
        [
          tc "totals" `Quick test_totals;
          tc "lengths" `Quick test_lengths;
          tc "coverage" `Quick test_coverage;
          tc "rates" `Quick test_rates;
          tc "dispatch reduction" `Quick test_dispatch_reduction;
          tc "resilience rates" `Quick test_resilience_rates;
          tc "resilience pp" `Quick test_resilience_pp;
          tc "zero safety" `Quick test_zero_division_safety;
          tc "pp" `Quick test_pp;
        ] );
      ("integration", [ tc "run invariants" `Quick test_invariants_from_run ]);
      ( "counters",
        [
          tc "names unique and exported" `Quick test_counter_names;
          tc "gauges match stats" `Quick test_gauges_match_stats;
          tc "returned records are copies" `Quick test_counters_are_copies;
        ] );
    ]
