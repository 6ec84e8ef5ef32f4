(* The observability layer: the typed event stream and the metrics
   registry, both in isolation and wired through a full engine run. *)

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
  (* subscribing then unsubscribing returns to the disabled state *)
  let s = Events.subscribe t (fun _ -> ()) in
  check Alcotest.bool "enabled with a subscriber" true (Events.enabled t);
  Events.emit t some_payload;
  Events.unsubscribe t s;
  check Alcotest.bool "disabled again" false (Events.enabled t);
  Events.emit t some_payload;
  check Alcotest.int "still nothing counted after unsubscribe" 1
    (Events.emitted t)

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

let test_unsubscribe_middle () =
  let t = Events.create () in
  let seen = ref [] in
  let _a = Events.subscribe t (fun _ -> seen := "a" :: !seen) in
  let b = Events.subscribe t (fun _ -> seen := "b" :: !seen) in
  let _c = Events.subscribe t (fun _ -> seen := "c" :: !seen) in
  Events.unsubscribe t b;
  (* unknown/duplicate unsubscribes are ignored *)
  Events.unsubscribe t b;
  Events.emit t some_payload;
  check
    Alcotest.(list string)
    "remaining subscribers keep their order" [ "a"; "c" ] (List.rev !seen)

let test_time_stamping () =
  let t = Events.create () in
  let times = ref [] in
  let _s = Events.subscribe t (fun e -> times := e.Events.time :: !times) in
  Events.set_now t 7;
  Events.emit t some_payload;
  Events.set_now t 42;
  Events.emit t some_payload;
  check Alcotest.(list int) "events carry the clock" [ 7; 42 ] (List.rev !times);
  check Alcotest.int "now readable" 42 (Events.now t)

let test_kind_tags () =
  let tags =
    List.map Events.kind
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
            n_blocks = 1;
            n_instrs = 1;
            prob = 1.0;
            reused = false;
          };
        Events.Trace_replaced { first = 0; head = 1; trace_id = 0 };
        Events.Trace_entered { trace_id = 0; chained = false };
        Events.Side_exit
          { trace_id = 0; at_block = 0; matched_blocks = 1; matched_instrs = 1 };
        Events.Trace_completed { trace_id = 0; n_blocks = 1; n_instrs = 1 };
        Events.Decay_pass { decays = 1 };
        Events.Phase_snapshot { Metrics.at = 0; values = [||] };
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
      "phase_snapshot";
    ]
    tags

(* ------------------------------------------------------------------ *)
(* the registry in isolation                                            *)
(* ------------------------------------------------------------------ *)

let test_gauges_and_groups () =
  let m = Metrics.create () in
  let g = ref 10 in
  Metrics.gauge m "depth" (fun () -> !g);
  let value name =
    let s = Metrics.force_snapshot m in
    match Array.find_opt (fun (n, _) -> n = name) s.Metrics.values with
    | Some (_, v) -> v
    | None -> Alcotest.failf "missing %s" name
  in
  check Alcotest.int "gauge polls" 10 (value "depth");
  g := 11;
  check Alcotest.int "gauge re-polls" 11 (value "depth");
  (* name clashes are rejected *)
  Alcotest.check_raises "gauge over gauge"
    (Invalid_argument "Metrics.gauge: depth already registered") (fun () ->
      Metrics.gauge m "depth" (fun () -> 0));
  (* a gauge group samples once per snapshot and reads like gauges *)
  let samples = ref 0 in
  Metrics.gauges m
    [ ("lo", fst); ("hi", snd) ]
    (fun () ->
      incr samples;
      (!g, !g * 2));
  samples := 0;
  let s = Metrics.force_snapshot m in
  check Alcotest.int "one sample per snapshot" 1 !samples;
  check
    Alcotest.(list (pair string int))
    "group flattens in order"
    [ ("depth", 11); ("lo", 11); ("hi", 22) ]
    (Array.to_list s.Metrics.values);
  Alcotest.check_raises "group member over gauge"
    (Invalid_argument "Metrics.gauges: depth already registered") (fun () ->
      Metrics.gauges m [ ("depth", Fun.id) ] (fun () -> 0));
  Alcotest.check_raises "gauge over group member"
    (Invalid_argument "Metrics.gauge: lo already registered") (fun () ->
      Metrics.gauge m "lo" (fun () -> 0))

let test_periodic_snapshots () =
  let m = Metrics.create ~period:3 () in
  let seen = ref 0 in
  Metrics.gauge m "ticks_seen" (fun () -> !seen);
  let reported = ref 0 in
  Metrics.on_snapshot m (fun _ -> incr reported);
  for _ = 1 to 10 do
    incr seen;
    Metrics.tick m
  done;
  (* snapshots at ticks 3, 6, 9 *)
  let snaps = Metrics.snapshots m in
  check Alcotest.int "three periodic snapshots" 3 (List.length snaps);
  check Alcotest.(list int) "taken at the period boundaries" [ 3; 6; 9 ]
    (List.map (fun s -> s.Metrics.at) snaps);
  check Alcotest.int "callback saw each" 3 !reported;
  List.iter
    (fun s ->
      match s.Metrics.values with
      | [| ("ticks_seen", v) |] ->
          check Alcotest.int "value captured at the boundary" s.Metrics.at v
      | _ -> Alcotest.fail "unexpected snapshot shape")
    snaps;
  check Alcotest.int "clock ran to 10" 10
    (Metrics.force_snapshot m).Metrics.at

let test_disabled_period_no_snapshots () =
  let m = Metrics.create () in
  Metrics.gauge m "c" (fun () -> 0);
  for _ = 1 to 1000 do
    Metrics.tick m
  done;
  check Alcotest.int "period 0 never snapshots" 0
    (List.length (Metrics.snapshots m));
  let s = Metrics.force_snapshot m in
  check Alcotest.int "forced snapshot at the current tick" 1000 s.Metrics.at;
  check Alcotest.int "forced snapshot joins the series" 1
    (List.length (Metrics.snapshots m))

(* ------------------------------------------------------------------ *)
(* histograms                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_empty () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  check Alcotest.int "no observations" 0 (Metrics.hist_count h);
  check Alcotest.int "zero sum" 0 (Metrics.hist_sum h);
  check (Alcotest.float 1e-9) "zero mean" 0.0 (Metrics.hist_mean h);
  check Alcotest.int "p0 of empty" 0 (Metrics.percentile h 0.0);
  check Alcotest.int "p50 of empty" 0 (Metrics.percentile h 50.0);
  check Alcotest.int "p100 of empty" 0 (Metrics.percentile h 100.0)

let test_histogram_single_value () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  for _ = 1 to 9 do
    Metrics.record h 7
  done;
  check Alcotest.int "count" 9 (Metrics.hist_count h);
  check Alcotest.int "sum" 63 (Metrics.hist_sum h);
  check Alcotest.int "min" 7 (Metrics.hist_min h);
  check Alcotest.int "max" 7 (Metrics.hist_max h);
  (* a single-valued histogram answers every percentile exactly: the
     bucket edge is clamped to the observed min/max *)
  check Alcotest.int "p0 exact" 7 (Metrics.percentile h 0.0);
  check Alcotest.int "p50 exact" 7 (Metrics.percentile h 50.0);
  check Alcotest.int "p100 exact" 7 (Metrics.percentile h 100.0)

let test_histogram_buckets_and_overflow () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:4 "small" in
  (* 4 buckets: [<=0], [1,1], [2,3] and the overflow [4, inf) *)
  check Alcotest.int "bucket count fixed at registration" 4
    (Metrics.n_buckets h);
  List.iter (Metrics.record h) [ -5; 0; 1; 2; 3; 4; 1000 ];
  check Alcotest.int "negatives clamp into bucket 0" 2
    (Metrics.bucket_count h 0);
  check Alcotest.int "bucket [1,1]" 1 (Metrics.bucket_count h 1);
  check Alcotest.int "bucket [2,3]" 2 (Metrics.bucket_count h 2);
  check Alcotest.int "overflow bucket catches the rest" 2
    (Metrics.bucket_count h 3);
  check
    Alcotest.(pair int int)
    "overflow bounds" (4, max_int)
    (Metrics.bucket_bounds h 3);
  check Alcotest.int "min saw the clamp" 0 (Metrics.hist_min h);
  check Alcotest.int "max tracked through overflow" 1000 (Metrics.hist_max h);
  check Alcotest.int "p0 = min" 0 (Metrics.percentile h 0.0);
  (* rank ceil(0.5 * 7) = 4 lands in bucket [2,3]: upper edge 3 *)
  check Alcotest.int "p50 upper bound" 3 (Metrics.percentile h 50.0);
  check Alcotest.int "p100 = max, not the bucket edge" 1000
    (Metrics.percentile h 100.0);
  (* find-or-register returns the same cell *)
  let h' = Metrics.histogram m "small" in
  Metrics.record h' 2;
  check Alcotest.int "same cell" 8 (Metrics.hist_count h)

let test_histogram_in_snapshot () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "len" in
  List.iter (Metrics.record h) [ 1; 2; 3; 4; 100 ];
  let s = Metrics.force_snapshot m in
  let fields = Array.to_list (Array.map fst s.Metrics.values) in
  check
    Alcotest.(list string)
    "six flattened fields"
    [ "len.count"; "len.sum"; "len.p50"; "len.p90"; "len.p99"; "len.max" ]
    fields;
  let get name =
    match Array.find_opt (fun (n, _) -> n = name) s.Metrics.values with
    | Some (_, v) -> v
    | None -> Alcotest.failf "missing %s" name
  in
  check Alcotest.int "count field" 5 (get "len.count");
  check Alcotest.int "sum field" 110 (get "len.sum");
  check Alcotest.int "p50 field" 3 (get "len.p50");
  check Alcotest.int "max field" 100 (get "len.max");
  (* a histogram's name cannot be re-registered as a gauge *)
  Alcotest.check_raises "gauge over histogram"
    (Invalid_argument "Metrics.gauge: len already registered") (fun () ->
      Metrics.gauge m "len" (fun () -> 0))

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

let test_snapshot_series_on_engine () =
  (* the engine registry's own series matches what the stream delivered *)
  let config = Config.make ~snapshot_period:5_000 () in
  let r, streamed = snapshot_series config in
  let own = Metrics.snapshots (Engine.metrics r.Engine.engine) in
  check Alcotest.int "registry series = streamed series"
    (List.length own) (List.length streamed);
  List.iter2
    (fun (x : Metrics.snapshot) (y : Metrics.snapshot) ->
      check Alcotest.int "same tick" x.Metrics.at y.Metrics.at)
    own streamed;
  (* snapshots poll the final counters consistently: the last snapshot's
     gauge values never exceed the end-of-run stats *)
  match List.rev own with
  | [] -> Alcotest.fail "expected snapshots"
  | last :: _ ->
      let final = r.Engine.run_stats in
      let get name =
        match
          Array.find_opt (fun (n, _) -> n = name) last.Metrics.values
        with
        | Some (_, v) -> v
        | None -> Alcotest.failf "missing gauge %s" name
      in
      check Alcotest.bool "completed monotone" true
        (get "traces_completed" <= final.Stats.traces_completed);
      check Alcotest.bool "dispatch gauges monotone" true
        (get "block_dispatches" + get "trace_dispatches"
        <= Stats.total_dispatches final)

let () =
  Alcotest.run "events"
    [
      ( "stream",
        [
          tc "disabled stream is a no-op" `Quick test_disabled_is_noop;
          tc "subscription order" `Quick test_subscriber_ordering;
          tc "unsubscribe keeps order" `Quick test_unsubscribe_middle;
          tc "time stamping" `Quick test_time_stamping;
          tc "kind tags" `Quick test_kind_tags;
        ] );
      ( "metrics",
        [
          tc "gauges and groups" `Quick test_gauges_and_groups;
          tc "periodic snapshots" `Quick test_periodic_snapshots;
          tc "period 0 disables" `Quick test_disabled_period_no_snapshots;
        ] );
      ( "histograms",
        [
          tc "empty histogram" `Quick test_histogram_empty;
          tc "single value answers exactly" `Quick
            test_histogram_single_value;
          tc "buckets and overflow" `Quick test_histogram_buckets_and_overflow;
          tc "snapshot flattening" `Quick test_histogram_in_snapshot;
        ] );
      ( "engine",
        [
          tc "timeline matches stats" `Quick test_timeline_matches_stats;
          tc "no subscribers, no change" `Quick
            test_run_without_subscribers_unchanged;
          tc "deterministic snapshot series" `Quick
            test_deterministic_snapshot_series;
          tc "registry series matches stream" `Quick
            test_snapshot_series_on_engine;
        ] );
    ]
