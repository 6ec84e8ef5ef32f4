(* The observability layer: the typed event stream and the histograms
   in isolation, and the engine's phase snapshots on a full run. *)

open Workloads.Dsl
module S = Bytecode.Structured
module Engine = Tracegen.Engine
module Events = Tracegen.Events
module Metrics = Tracegen.Metrics
module Config = Tracegen.Config
module Stats = Tracegen.Stats

let tc = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* the stream in isolation                                              *)
(* ------------------------------------------------------------------ *)

let some_payload = Events.Decay_pass { decays = 1 }

let test_disabled_is_noop () =
  let t = Events.create () in
  check Alcotest.bool "fresh stream is disabled" false (Events.enabled t);
  Events.emit t some_payload;
  Events.emit t some_payload;
  check Alcotest.int "nothing delivered" 0 (Events.emitted t);
  (* a subscriber enables the stream from then on *)
  Events.subscribe t (fun _ -> ());
  check Alcotest.bool "enabled with a subscriber" true (Events.enabled t);
  Events.emit t some_payload;
  check Alcotest.int "counted once subscribed" 1 (Events.emitted t)

let test_subscriber_ordering () =
  let t = Events.create () in
  let order = ref [] in
  let _a = Events.subscribe t (fun _ -> order := "a" :: !order) in
  let _b = Events.subscribe t (fun _ -> order := "b" :: !order) in
  let _c = Events.subscribe t (fun _ -> order := "c" :: !order) in
  Events.emit t some_payload;
  check
    Alcotest.(list string)
    "delivered in subscription order" [ "a"; "b"; "c" ] (List.rev !order);
  Events.emit t some_payload;
  check Alcotest.int "every subscriber sees every event" 6 (List.length !order)

(* Subscriptions last the stream's lifetime: one added between emits
   sees only the later events, after every earlier subscriber, whose
   order it leaves as it was. *)
let test_late_subscriber () =
  let t = Events.create () in
  let seen = ref [] in
  Events.subscribe t (fun _ -> seen := "a" :: !seen);
  Events.subscribe t (fun _ -> seen := "c" :: !seen);
  Events.emit t some_payload;
  Events.subscribe t (fun _ -> seen := "b" :: !seen);
  Events.emit t some_payload;
  check
    Alcotest.(list string)
    "earlier subscribers keep their order" [ "a"; "c"; "a"; "c"; "b" ]
    (List.rev !seen)

let test_time_stamping () =
  let t = Events.create () in
  let times = ref [] in
  let _s = Events.subscribe t (fun e -> times := e.Events.time :: !times) in
  Events.set_now t 7;
  Events.emit t some_payload;
  Events.set_now t 42;
  Events.emit t some_payload;
  check Alcotest.(list int) "events carry the clock" [ 7; 42 ] (List.rev !times);
  Events.emit t some_payload;
  check Alcotest.int "now readable" 42 (List.hd !times)

(* One payload per constructor: each has a stable tag, and the
   ledger's constructor match agrees with its list of decision kinds. *)
let test_kind_tags () =
  let payloads =
    [
      Events.Signal_raised
        {
          x = 0;
          y = 1;
          old_state = Tracegen.State.Newly_created;
          new_state = Tracegen.State.Unique;
          best_changed = true;
        };
      Events.Trace_constructed
        {
          trace_id = 0;
          first = 0;
          blocks = [| 1 |];
          n_instrs = 1;
          prob = 1.0;
          reused = false;
        };
      Events.Trace_replaced { first = 0; head = 1; trace_id = 0 };
      Events.Trace_entered { trace_id = 0; chained = false };
      Events.Side_exit
        { trace_id = 0; at_block = 1; matched_instrs = 1 };
      Events.Trace_completed { trace_id = 0; n_blocks = 1; n_instrs = 1 };
      Events.Decay_pass { decays = 1 };
      Events.Path_walked { transitions = 3 };
      Events.Phase_snapshot { Metrics.at = 0; values = [||] };
      Events.Invariant_violation
        { code = "TL204"; severity = "error"; message = "m" };
      Events.Fault_injected { code = "FT001"; detail = "d" };
      Events.Trace_quarantined
        { trace_id = 0; first = 0; head = 1; code = "TL204"; attempts = 1;
          until = 512 };
      Events.Trace_evicted
        { trace_id = 0; first = 0; head = 1; n_live = 0;
          reason = Events.Capacity; footprint = 8; heat = 1; stamp = 0 };
      Events.Mode_degraded
        { from_level = Tracegen.Health.Full_tracing;
          to_level = Tracegen.Health.Profiling_only };
      Events.Mode_recovered
        { from_level = Tracegen.Health.Profiling_only;
          to_level = Tracegen.Health.Full_tracing };
      Events.Cache_restored
        { traces = 1; cache_blocks = 2; bcg_nodes = 3; bcg_edges = 4 };
      Events.Snapshot_rejected { reason = "r" };
      Events.Deopt_entered
        { trace_id = 0; at_block = 1; resume_block = 2; residue_blocks = 1;
          reason = "guard-failure" };
      Events.Osr_promoted { trace_id = 0; header = 1; latch = 2; hotness = 96 };
      Events.Trace_compiled
        { trace_id = 0; ops = 4; fused = 1; src_instrs = 5; heat = 32 };
      Events.Tier_demoted { trace_id = 0; uses = 1; winner_heat = 2 };
    ]
  in
  check
    Alcotest.(list string)
    "stable JSONL tags"
    [
      "signal_raised";
      "trace_constructed";
      "trace_replaced";
      "trace_entered";
      "side_exit";
      "trace_completed";
      "decay_pass";
      "path_walked";
      "phase_snapshot";
      "invariant_violation";
      "fault_injected";
      "trace_quarantined";
      "trace_evicted";
      "mode_degraded";
      "mode_recovered";
      "cache_restored";
      "snapshot_rejected";
      "deopt_entered";
      "osr_promoted";
      "trace_compiled";
      "tier_demoted";
    ]
    (List.map Events.kind payloads);
  (* the ledger keeps exactly the kinds it lists *)
  List.iter
    (fun p ->
      let ledger = Tracegen.Ledger.create () in
      Tracegen.Ledger.observe ledger { Events.time = 0; payload = p };
      check Alcotest.bool
        (Events.kind p ^ ": kept = listed in Ledger.kinds")
        (List.mem (Events.kind p) Tracegen.Ledger.kinds)
        (Tracegen.Ledger.length ledger = 1))
    payloads

(* ------------------------------------------------------------------ *)
(* histograms                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_empty () =
  let h = Metrics.histogram "lat" in
  check Alcotest.int "no observations" 0 (Metrics.hist_count h);
  check Alcotest.int "zero sum" 0 (Metrics.hist_sum h);
  check (Alcotest.float 1e-9) "zero mean" 0.0 (Metrics.hist_mean h);
  check Alcotest.int "p0 of empty" 0 (Metrics.percentile h 0.0);
  check Alcotest.int "p50 of empty" 0 (Metrics.percentile h 50.0);
  check Alcotest.int "p100 of empty" 0 (Metrics.percentile h 100.0)

let test_histogram_single_value () =
  let h = Metrics.histogram "lat" in
  for _ = 1 to 9 do
    Metrics.record h 7
  done;
  check Alcotest.int "count" 9 (Metrics.hist_count h);
  check Alcotest.int "sum" 63 (Metrics.hist_sum h);
  check Alcotest.int "min" 7 (Metrics.percentile h 0.0);
  check Alcotest.int "max" 7 (Metrics.hist_max h);
  (* a single-valued histogram answers every percentile exactly: the
     bucket edge is clamped to the observed min/max *)
  check Alcotest.int "p0 exact" 7 (Metrics.percentile h 0.0);
  check Alcotest.int "p50 exact" 7 (Metrics.percentile h 50.0);
  check Alcotest.int "p100 exact" 7 (Metrics.percentile h 100.0)

(* The buckets as [percentile] reads them: it reports the upper edge of
   the bucket holding rank [ceil(p/100 * count)], clamped to the
   observed min and max. *)
let test_histogram_buckets_and_overflow () =
  let h = Metrics.histogram "small" in
  (* 16 buckets: [<=0], [1,1], [2,3], [4,7], … and the overflow
     [2^14, inf) *)
  List.iter (Metrics.record h) [ -5; 0; 1; 2; 3; 4; 1 lsl 14; 1 lsl 20 ];
  let at rank = Metrics.percentile h (100.0 *. float_of_int rank /. 8.0) in
  check Alcotest.int "negatives clamp into bucket 0" 0 (at 2);
  check Alcotest.int "bucket [1,1]" 1 (at 3);
  check Alcotest.int "bucket [2,3]" 3 (at 4);
  check Alcotest.int "bucket [2,3] holds two" 3 (at 5);
  check Alcotest.int "bucket [4,7]" 7 (at 6);
  (* 2^14 would top a bucket [2^14, 2^15 - 1]; the overflow bucket's
     edge is unbounded, so only the max clamps it *)
  check Alcotest.int "overflow bucket catches the rest" (1 lsl 20) (at 7);
  check Alcotest.int "max tracked through overflow" (1 lsl 20)
    (Metrics.hist_max h);
  check Alcotest.int "p0 = min, which saw the clamp" 0
    (Metrics.percentile h 0.0);
  (* rank ceil(0.5 * 8) = 4 lands in bucket [2,3]: upper edge 3 *)
  check Alcotest.int "p50 upper bound" 3 (Metrics.percentile h 50.0);
  check Alcotest.int "p100 = max, not the bucket edge" (1 lsl 20)
    (Metrics.percentile h 100.0)

(* ------------------------------------------------------------------ *)
(* wired through the engine                                             *)
(* ------------------------------------------------------------------ *)

let layout_of body =
  let p = S.create () in
  S.def_method p ~name:"main" ~args:[] ~ret:S.I ~body ();
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  Cfg.Layout.build program

let hot_loop =
  layout_of
    [
      decl_i "s" (i 0);
      for_ "k" (i 0) (i 20_000)
        [ set "s" ((v "s" +! v "k") &! i 0xFFFFF) ];
      ret (v "s");
    ]

let count_kinds layout config =
  let events = Events.create () in
  let tally = Hashtbl.create 8 in
  let timeline = ref [] in
  let _s =
    Events.subscribe events (fun e ->
        let k = Events.kind e.Events.payload in
        Hashtbl.replace tally k
          (1 + (try Hashtbl.find tally k with Not_found -> 0));
        timeline := e :: !timeline)
  in
  let r = Engine.run ~config ~events layout in
  (r, tally, List.rev !timeline)

let test_timeline_matches_stats () =
  let r, tally, timeline = count_kinds hot_loop Config.default in
  let s = r.Engine.run_stats in
  let count k = try Hashtbl.find tally k with Not_found -> 0 in
  check Alcotest.bool "events happened" true (timeline <> []);
  check Alcotest.int "signal events = signals counter" s.Stats.signals
    (count "signal_raised");
  check Alcotest.int "entered events = entered counter" s.Stats.traces_entered
    (count "trace_entered");
  check Alcotest.int "completed events = completed counter"
    s.Stats.traces_completed (count "trace_completed");
  check Alcotest.int "replaced events = replaced counter"
    s.Stats.traces_replaced (count "trace_replaced");
  let new_constructions =
    List.length
      (List.filter
         (fun e ->
           match e.Events.payload with
           | Events.Trace_constructed { reused = false; _ } -> true
           | _ -> false)
         timeline)
  in
  check Alcotest.int "new construction events = constructed counter"
    s.Stats.traces_constructed new_constructions;
  let in_flight =
    match Engine.active_trace r.Engine.engine with Some _ -> 1 | None -> 0
  in
  check Alcotest.int "side exits account for the rest"
    (s.Stats.traces_entered - s.Stats.traces_completed - in_flight)
    (count "side_exit");
  (* timestamps are monotone in dispatch time *)
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        a.Events.time <= b.Events.time && monotone rest
    | _ -> true
  in
  check Alcotest.bool "timeline is monotone" true (monotone timeline)

let test_run_without_subscribers_unchanged () =
  (* an engine run with a never-subscribed stream must behave identically
     to one with no stream passed at all *)
  let a = (Engine.run hot_loop).Engine.run_stats in
  let events = Events.create () in
  let b = (Engine.run ~events hot_loop).Engine.run_stats in
  check Alcotest.int "same dispatches" (Stats.total_dispatches a)
    (Stats.total_dispatches b);
  check Alcotest.int "same completions" a.Stats.traces_completed
    b.Stats.traces_completed;
  check Alcotest.int "no events delivered" 0 (Events.emitted events)

let snapshot_series config =
  let events = Events.create () in
  let series = ref [] in
  let _s =
    Events.subscribe events (fun e ->
        match e.Events.payload with
        | Events.Phase_snapshot s -> series := s :: !series
        | _ -> ())
  in
  let r = Engine.run ~config ~events hot_loop in
  (r, List.rev !series)

let test_deterministic_snapshot_series () =
  let config = Config.make ~snapshot_period:5_000 () in
  let _, a = snapshot_series config in
  let _, b = snapshot_series config in
  check Alcotest.bool "snapshots were taken" true (a <> []);
  check Alcotest.int "same series length" (List.length a) (List.length b);
  List.iter2
    (fun (x : Metrics.snapshot) (y : Metrics.snapshot) ->
      check Alcotest.int "same tick" x.Metrics.at y.Metrics.at;
      check Alcotest.bool "same values" true (x.Metrics.values = y.Metrics.values))
    a b

(* A snapshot is stamped with the dispatch it was taken in: one past the
   dispatches its own counters report, on every rung of the ladder and
   across OSR deopt resumes. *)
let test_snapshot_stamp_is_dispatch_clock () =
  let layout =
    Harness.Experiment.layout_for Workloads.Compress.workload ~size:1_000
  in
  List.iter
    (fun (label, config, moved) ->
      let events = Events.create () in
      let series = ref [] in
      let _s =
        Events.subscribe events (fun e ->
            match e.Events.payload with
            | Events.Phase_snapshot s -> series := s :: !series
            | _ -> ())
      in
      let r = Engine.run ~config ~events layout in
      check Alcotest.bool (label ^ ": snapshots were taken") true
        (!series <> []);
      List.iter
        (fun name ->
          check Alcotest.bool
            (Printf.sprintf "%s: %s moved" label name)
            true
            (List.assoc name Stats.counters r.Engine.run_stats > 0))
        moved;
      List.iter
        (fun (s : Metrics.snapshot) ->
          let get name = List.assoc name (Array.to_list s.Metrics.values) in
          check Alcotest.int (label ^ ": at = dispatches + 1")
            (get "block_dispatches" + get "traces_entered" + 1)
            s.Metrics.at)
        !series)
    [
      ("default", Config.make ~snapshot_period:997 (), [ "traces_entered" ]);
      ( "osr + self-heal, corrupt-trace",
        Config.make ~snapshot_period:997 ~osr:true ~self_heal:true
          ~fault_spec:"corrupt-trace@0.005,budget=20" (),
        [ "health_demotions"; "deopts" ] );
      ( "osr, guard-flip",
        Config.make ~snapshot_period:997 ~osr:true
          ~fault_spec:"guard_flip@0.05,budget=24" (),
        [ "deopts" ] );
    ]

(* A snapshot every [period] dispatches, at each boundary the run
   reached; its fields lead with the counters and close with the
   ledger's size, and [instructions], which only the VM knows, is not
   among them. *)
let test_periodic_snapshots () =
  let period = 1_000 in
  let r, series = snapshot_series (Config.make ~snapshot_period:period ()) in
  let total = Engine.total_dispatches r.Engine.engine in
  check
    Alcotest.(list int)
    "one snapshot per period boundary"
    (List.init (total / period) (fun k -> (k + 1) * period))
    (List.map (fun (s : Metrics.snapshot) -> s.Metrics.at) series);
  match series with
  | [] -> Alcotest.fail "expected snapshots"
  | s :: _ ->
      let names = Array.to_list (Array.map fst s.Metrics.values) in
      check Alcotest.string "the counters lead" "block_dispatches"
        (List.hd names);
      check Alcotest.string "the ledger closes" "ledger_records"
        (List.nth names (List.length names - 1));
      check Alcotest.bool "no instructions field" false
        (List.mem "instructions" names)

let test_disabled_period_no_snapshots () =
  let r, series = snapshot_series Config.default in
  check Alcotest.bool "the run dispatched" true
    (Engine.total_dispatches r.Engine.engine > 1_000);
  check Alcotest.int "period 0 never snapshots" 0 (List.length series)

let () =
  Alcotest.run "events"
    [
      ( "stream",
        [
          tc "disabled stream is a no-op" `Quick test_disabled_is_noop;
          tc "subscription order" `Quick test_subscriber_ordering;
          tc "unsubscribe keeps order" `Quick test_late_subscriber;
          tc "time stamping" `Quick test_time_stamping;
          tc "kind tags" `Quick test_kind_tags;
        ] );
      ( "metrics",
        [
          tc "snapshot stamp is the dispatch clock" `Quick
            test_snapshot_stamp_is_dispatch_clock;
          tc "periodic snapshots" `Quick test_periodic_snapshots;
          tc "period 0 disables" `Quick test_disabled_period_no_snapshots;
        ] );
      ( "histograms",
        [
          tc "empty histogram" `Quick test_histogram_empty;
          tc "single value answers exactly" `Quick
            test_histogram_single_value;
          tc "buckets and overflow" `Quick test_histogram_buckets_and_overflow;
        ] );
      ( "engine",
        [
          tc "timeline matches stats" `Quick test_timeline_matches_stats;
          tc "no subscribers, no change" `Quick
            test_run_without_subscribers_unchanged;
          tc "deterministic snapshot series" `Quick
            test_deterministic_snapshot_series;
        ] );
    ]
