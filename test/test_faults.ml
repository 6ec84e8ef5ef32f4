(* The fault-injection and self-healing machinery:

   - the fault-schedule DSL (parse errors, determinism, the FT catalogue);
   - the bounded trace cache (remove, LRU eviction, pressure eviction);
   - quarantine (backoff, blacklisting, install refusals);
   - each cache decision counted in the [counts] record passed with it;
   - the degradation ladder (Health) and BCG node repair (heal_node). *)

module Config = Tracegen.Config
module Bcg = Tracegen.Bcg
module Trace_cache = Tracegen.Trace_cache
module Faults = Tracegen.Faults
module Health = Tracegen.Health
module Events = Tracegen.Events
module Stats = Tracegen.Stats

let tc = Alcotest.test_case
let check = Alcotest.check

(* A trace the cache must accept. *)
let install ~events ~counts cache ~first ~blocks ~prob =
  let len = Array.length blocks in
  let tr = Trace_cache.install cache ~events ~counts ~first ~blocks ~len ~prob in
  if tr == Tracegen.Trace.none then Alcotest.fail "installation refused";
  tr

let layout =
  lazy
    (let w = Workloads.Compress.workload in
     Cfg.Layout.build (w.Workloads.Workload.build ~size:500))

(* --------------------------------------------------------------- *)
(* DSL                                                               *)
(* --------------------------------------------------------------- *)

let test_parse_good () =
  let f = Faults.create ~seed:1 "corrupt-trace@0.5,fail-install!10,budget=3" in
  check Alcotest.bool "active" true (Faults.is_active f);
  (* whitespace-separated arms and an empty spec also parse *)
  ignore (Faults.create ~seed:1 "zero-counter@0.1 drop-best!5");
  let idle = Faults.create ~seed:1 "" in
  check Alcotest.bool "empty spec is inactive" false (Faults.is_active idle);
  (* a zero budget disarms the schedule *)
  let spent = Faults.create ~seed:1 "corrupt-trace@1.0,budget=0" in
  check Alcotest.bool "budget=0 is inactive" false (Faults.is_active spent)

let test_parse_bad () =
  let raises spec =
    match Faults.create ~seed:1 spec with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "spec %S should not parse" spec
  in
  raises "bogus@0.1";
  raises "corrupt-trace@1.5";
  raises "corrupt-trace@x";
  raises "corrupt-trace!-1";
  raises "corrupt-trace";
  raises "budget=-1";
  raises "quota=3"

(* a warm BCG + populated cache for the injector to corrupt *)
let warm_targets () =
  let layout = Lazy.force layout in
  let bcg = Bcg.create Config.default ~n_blocks:64 ~on_signal:(fun _ -> ()) in
  for k = 0 to 200 do
    let x = k land 7 and y = (k + 1) land 7 and z = (k + 2) land 7 in
    let ctx = Bcg.visit_node bcg ~x ~y in
    let target = Bcg.visit_node bcg ~x:y ~y:z in
    Bcg.record_successor bcg ~ctx ~target
  done;
  let cache = Trace_cache.create layout in
  let events = Events.create () and counts = Stats.zero () in
  for g = 0 to 9 do
    ignore
      (install ~events ~counts cache ~first:g
         ~blocks:[| g + 1; g + 2 |] ~prob:1.0)
  done;
  (bcg, cache)

let run_schedule ~seed ~ticks spec =
  let bcg, cache = warm_targets () in
  let f = Faults.create ~seed spec in
  let events = Events.create () and counts = Stats.zero () in
  let log = ref [] in
  for now = 0 to ticks - 1 do
    let fired = Faults.tick f ~now ~bcg ~cache ~events ~counts in
    log := List.rev_append fired !log
  done;
  List.rev !log

let test_catalogue () =
  let codes = List.map fst Faults.catalogue in
  List.iter
    (fun c ->
      check Alcotest.bool (c ^ " catalogued") true (List.mem c codes))
    [ "FT001"; "FT002"; "FT003"; "FT004"; "FT005"; "FT006"; "FT007";
      "FT008"; "FT901"; "FT902" ];
  (* every kind's DSL name parses, in either spelling, and the code its
     injection reports is catalogued *)
  List.iter
    (fun name ->
      List.iter
        (fun spelling ->
          check Alcotest.bool (spelling ^ " parses") true
            (Faults.is_active (Faults.create ~seed:1 (spelling ^ "@0.1"))))
        [ name; String.map (function '-' -> '_' | c -> c) name ];
      match run_schedule ~seed:1 ~ticks:1 (name ^ "@1.0") with
      | [ (code, _) ] ->
          check Alcotest.bool "code catalogued" true (List.mem code codes)
      | fired -> Alcotest.failf "%s fired %d times" name (List.length fired))
    [
      "corrupt-trace"; "corrupt-instrs"; "zero-counter"; "saturate-counter";
      "drop-best"; "fail-install"; "alloc-pressure"; "guard-flip";
    ]

let test_determinism () =
  let spec = "corrupt-trace@0.1,zero-counter@0.2,drop-best@0.1,budget=16" in
  let log1 = run_schedule ~seed:7 ~ticks:400 spec in
  let log2 = run_schedule ~seed:7 ~ticks:400 spec in
  check Alcotest.bool "some faults fired" true (log1 <> []);
  check Alcotest.int "same injection count" (List.length log1)
    (List.length log2);
  check
    Alcotest.(list (pair string string))
    "same (code, detail) sequence" log1 log2;
  (* seed 0 is legal (remapped internally, xorshift has no zero state) *)
  let log0 = run_schedule ~seed:0 ~ticks:400 spec in
  let log0' = run_schedule ~seed:0 ~ticks:400 spec in
  check Alcotest.int "seed 0 deterministic too" (List.length log0)
    (List.length log0');
  check Alcotest.(list (pair string string)) "seed 0 same log" log0 log0'

let test_budget_and_one_shot () =
  let log = run_schedule ~seed:3 ~ticks:400 "corrupt-trace@1.0,budget=5" in
  check Alcotest.int "budget caps injections" 5 (List.length log);
  (* a one-shot arm fires exactly once, at the first tick >= N *)
  let log1 = run_schedule ~seed:3 ~ticks:400 "fail-install!50" in
  check Alcotest.int "one-shot fires once" 1 (List.length log1);
  check Alcotest.string "with its FT code" "FT006" (fst (List.hd log1))

(* --------------------------------------------------------------- *)
(* bounded cache: remove / LRU / pressure                            *)
(* --------------------------------------------------------------- *)

let test_remove_consistency () =
  let layout = Lazy.force layout in
  let cache = Trace_cache.create layout in
  let events = Events.create () and counts = Stats.zero () in
  let install = install ~events ~counts cache in
  let t0 = install ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  let _t1 = install ~first:3 ~blocks:[| 4; 5 |] ~prob:1.0 in
  let _t2 = install ~first:6 ~blocks:[| 7; 8 |] ~prob:1.0 in
  check Alcotest.int "three live" 3 (Trace_cache.n_live cache);
  check Alcotest.int "six live blocks" 6 (Trace_cache.live_blocks cache);
  (match Trace_cache.remove cache ~first:0 ~head:1 with
  | Some tr -> check Alcotest.bool "the bound trace" true (tr == t0)
  | None -> Alcotest.fail "remove returned None for a bound entry");
  check Alcotest.int "two live after remove" 2 (Trace_cache.n_live cache);
  check Alcotest.int "four live blocks" 4 (Trace_cache.live_blocks cache);
  check Alcotest.(option reject) "entry unbound" None
    (Trace_cache.lookup cache ~prev:0 ~cur:1);
  check Alcotest.(option reject) "idempotent" None
    (Trace_cache.remove cache ~first:0 ~head:1);
  (* the removed trace left the hash-cons table: an identical
     reconstruction builds a fresh trace, not the condemned one *)
  let t0' = install ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  check Alcotest.bool "reinstall is a fresh trace" true (not (t0' == t0));
  check Alcotest.int "three live again" 3 (Trace_cache.n_live cache)

let test_lru_eviction () =
  let layout = Lazy.force layout in
  let events = Events.create () in
  let evicted = ref [] in
  let _sub =
    Events.subscribe events (fun e ->
        match e.Events.payload with
        | Events.Trace_evicted { first; head; _ } ->
            evicted := (first, head) :: !evicted
        | _ -> ())
  in
  let cache = Trace_cache.create ~max_traces:2 layout in
  let counts = Stats.zero () in
  let install = install ~events ~counts cache in
  ignore (install ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0);
  ignore (install ~first:3 ~blocks:[| 4; 5 |] ~prob:1.0);
  (* touch (0,1) so (3,4) is the least recently dispatched *)
  ignore (Trace_cache.lookup cache ~prev:0 ~cur:1);
  ignore (install ~first:6 ~blocks:[| 7; 8 |] ~prob:1.0);
  check Alcotest.int "cap holds" 2 (Trace_cache.n_live cache);
  check Alcotest.int "one eviction" 1 (Trace_cache.n_evicted cache);
  check Alcotest.int "counted for the installer" 1 counts.Stats.traces_evicted;
  check Alcotest.(list (pair int int)) "LRU victim" [ (3, 4) ] !evicted;
  check Alcotest.bool "touched entry survives" true
    (Trace_cache.lookup cache ~prev:0 ~cur:1 <> None);
  check Alcotest.bool "new entry live" true
    (Trace_cache.lookup cache ~prev:6 ~cur:7 <> None)

let test_pressure_eviction () =
  let layout = Lazy.force layout in
  let cache = Trace_cache.create layout in
  let events = Events.create () and counts = Stats.zero () in
  let install = install ~events ~counts cache in
  ignore (install ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0);
  ignore (install ~first:3 ~blocks:[| 4; 5 |] ~prob:1.0);
  ignore (install ~first:6 ~blocks:[| 7; 8 |] ~prob:1.0);
  (* pressure eviction: down to one live trace *)
  let n = Trace_cache.pressure_evict cache ~events ~counts ~down_to:1 in
  check Alcotest.int "evicted down to one" 1 (Trace_cache.n_live cache);
  check Alcotest.int "reported count" 2 n;
  check Alcotest.int "counted as evictions" n (Trace_cache.n_evicted cache);
  check Alcotest.int "counted for the evictor" n counts.Stats.traces_evicted;
  check Alcotest.int "two live blocks" 2 (Trace_cache.live_blocks cache);
  (* invalid caps are rejected at construction *)
  (match Trace_cache.create ~max_traces:(-1) layout with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative max_traces should be rejected")

(* --------------------------------------------------------------- *)
(* quarantine                                                        *)
(* --------------------------------------------------------------- *)

let test_quarantine_backoff () =
  let layout = Lazy.force layout in
  let cache = Trace_cache.create layout in
  let events = Events.create () and counts = Stats.zero () in
  let backoff = Config.heal_backoff in
  let refused () =
    Trace_cache.install cache ~events ~counts ~first:0 ~blocks:[| 1; 2 |]
      ~len:2 ~prob:1.0
    == Tracegen.Trace.none
  in
  let quarantine () =
    Trace_cache.quarantine cache ~events ~counts ~first:0 ~head:1
      ~code:"TL210"
  in
  let t0 =
    install ~events ~counts cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0
  in
  (match quarantine () with
  | Some tr -> check Alcotest.bool "condemned trace removed" true (tr == t0)
  | None -> Alcotest.fail "quarantine returned None for a bound entry");
  check Alcotest.int "unbound" 0 (Trace_cache.n_live cache);
  check Alcotest.int "quarantined now" 1
    (Trace_cache.n_quarantine_active cache);
  check Alcotest.int "one attempt" 1 counts.Stats.traces_quarantined;
  (* install refuses while the backoff holds, and not because an
     installation failed *)
  check Alcotest.bool "install refused" true (refused ());
  check Alcotest.int "no failed install" 0 counts.Stats.failed_installs;
  (* first backoff window: heal_backoff * 2^0 clock units from clock 0 *)
  let released = ref backoff in
  let window attempt =
    Trace_cache.set_clock cache (!released - 1);
    check Alcotest.int
      (Printf.sprintf "still quarantined before window %d ends" attempt)
      1
      (Trace_cache.n_quarantine_active cache);
    Trace_cache.set_clock cache (!released + 1);
    check Alcotest.int
      (Printf.sprintf "released after window %d" attempt)
      0
      (Trace_cache.n_quarantine_active cache);
    check Alcotest.bool "rebuild allowed" false (refused ())
  in
  window 1;
  (* every further condemnation doubles the backoff, up to
     heal_max_rebuilds condemnations in all *)
  for attempt = 2 to Config.heal_max_rebuilds do
    let now = !released + 1 in
    ignore (quarantine ());
    released := now + (backoff lsl (attempt - 1));
    window attempt
  done;
  check Alcotest.int "not yet blacklisted" 0 counts.Stats.traces_blacklisted;
  (* one condemnation past heal_max_rebuilds: permanent *)
  ignore (quarantine ());
  check Alcotest.int "blacklisted" 1 counts.Stats.traces_blacklisted;
  Trace_cache.set_clock cache 1_000_000_000;
  check Alcotest.int "blacklist never expires" 1
    (Trace_cache.n_quarantine_active cache);
  check Alcotest.int "every condemnation counted"
    (Config.heal_max_rebuilds + 1)
    counts.Stats.traces_quarantined

let test_inject_install_failure () =
  let layout = Lazy.force layout in
  let cache = Trace_cache.create layout in
  let events = Events.create () and counts = Stats.zero () in
  let faults = Faults.create ~seed:1 "fail-install!0" in
  (* what the install did: refused, built or reused *)
  let try_install () =
    let built = Trace_cache.n_constructed cache in
    let tr =
      Trace_cache.install cache
        ~fail:(fun () -> Faults.take_install_failure faults)
        ~events ~counts ~first:0 ~blocks:[| 1; 2 |] ~len:2 ~prob:1.0
    in
    if tr == Tracegen.Trace.none then `Refused
    else if Trace_cache.n_constructed cache > built then `Built
    else `Reused
  in
  let bcg =
    Bcg.create Config.default ~n_blocks:layout.Cfg.Layout.n_blocks
      ~on_signal:ignore
  in
  check
    Alcotest.(list string)
    "FT006 armed" [ "FT006" ]
    (List.map fst
       (Faults.tick faults ~now:0 ~bcg ~cache ~events ~counts));
  check Alcotest.bool "armed failure consumed" true
    (try_install () = `Refused);
  check Alcotest.int "counted" 1 counts.Stats.failed_installs;
  check Alcotest.bool "next install builds" true (try_install () = `Built);
  check Alcotest.bool "a third install reuses" true (try_install () = `Reused)

(* --------------------------------------------------------------- *)
(* the degradation ladder                                            *)
(* --------------------------------------------------------------- *)

let level =
  Alcotest.testable
    (fun ppf l -> Format.pp_print_string ppf (Health.level_to_string l))
    ( = )

let repeat n f =
  for _ = 1 to n do
    ignore (f ())
  done

let test_health_ladder () =
  let h = Health.create () in
  (* every level change, counted the way the engine counts it *)
  let demotions = ref 0 and promotions = ref 0 in
  let walk tr =
    (match tr with
    | Health.Changed (from_level, to_level) ->
        if Health.level_rank to_level > Health.level_rank from_level then
          incr demotions
        else incr promotions
    | Health.Stay -> ());
    tr
  in
  let strike () = walk (Health.strike h)
  and clean () = walk (Health.clean_dispatch h) in
  let demote_after = Config.heal_demote_after in
  let recover_after = Config.heal_recover_after in
  check level "starts at full tracing" Health.Full_tracing (Health.level h);
  repeat (demote_after - 1) strike;
  check level "strikes below the budget stay" Health.Full_tracing
    (Health.level h);
  check Alcotest.bool "the budget's last strike demotes" true
    (strike () = Health.Changed (Health.Full_tracing, Health.Profiling_only));
  check Alcotest.bool "degraded" true (Health.level h <> Health.Full_tracing);
  (* a second budget reaches the floor *)
  repeat demote_after strike;
  check level "at interp-only" Health.Interp_only (Health.level h);
  (* strikes at the floor do not demote further *)
  repeat demote_after strike;
  check level "still interp-only" Health.Interp_only (Health.level h);
  check Alcotest.int "two demotions" 2 !demotions;
  (* heal_recover_after clean dispatches climb one level at a time *)
  repeat (recover_after - 1) clean;
  check level "not yet" Health.Interp_only (Health.level h);
  check Alcotest.bool "the window's last clean dispatch promotes" true
    (clean () = Health.Changed (Health.Interp_only, Health.Profiling_only));
  repeat recover_after clean;
  check level "back to full tracing" Health.Full_tracing (Health.level h);
  check Alcotest.int "two promotions" 2 !promotions

let test_health_forgiveness () =
  let h = Health.create () in
  (* one strike, then a clean window: the stale strike is forgiven, so
     isolated faults never accumulate into a demotion *)
  check Alcotest.bool "stay" true (Health.strike h = Health.Stay);
  check Alcotest.int "one strike" 1 (Health.strikes h);
  repeat Config.heal_recover_after (fun () -> Health.clean_dispatch h);
  check Alcotest.int "forgiven" 0 (Health.strikes h);
  check Alcotest.bool "a much later strike stays again" true
    (Health.strike h = Health.Stay);
  check level "never left full tracing" Health.Full_tracing (Health.level h)

(* --------------------------------------------------------------- *)
(* BCG node repair                                                   *)
(* --------------------------------------------------------------- *)

let test_heal_node () =
  let bcg, _ = warm_targets () in
  let node =
    let found = ref None in
    Bcg.iter_nodes bcg (fun n ->
        if !found = None && n.Bcg.edges <> [] then found := Some n);
    match !found with
    | Some n -> n
    | None -> Alcotest.fail "warm BCG has no node with edges"
  in
  let e = List.hd node.Bcg.edges in
  e.Bcg.weight <- -5;
  check Alcotest.bool "heal repairs" true (Bcg.heal_node bcg node);
  check Alcotest.bool "weight back in range" true
    (e.Bcg.weight >= 1 && e.Bcg.weight <= Config.counter_max);
  check Alcotest.bool "clean node untouched" false (Bcg.heal_node bcg node);
  e.Bcg.weight <- (2 * Config.counter_max) + 1;
  check Alcotest.bool "saturation repaired too" true (Bcg.heal_node bcg node);
  check Alcotest.bool "clamped to counter_max" true
    (e.Bcg.weight <= Config.counter_max)

let () =
  Alcotest.run "faults"
    [
      ( "dsl",
        [
          tc "good specs parse" `Quick test_parse_good;
          tc "bad specs raise" `Quick test_parse_bad;
          tc "FT catalogue" `Quick test_catalogue;
          tc "deterministic per seed" `Quick test_determinism;
          tc "budget and one-shot arms" `Quick test_budget_and_one_shot;
        ] );
      ( "bounded cache",
        [
          tc "remove keeps n_live consistent" `Quick test_remove_consistency;
          tc "LRU eviction under max_traces" `Quick test_lru_eviction;
          tc "pressure eviction" `Quick test_pressure_eviction;
        ] );
      ( "quarantine",
        [
          tc "backoff and blacklist" `Quick test_quarantine_backoff;
          tc "injected install failure" `Quick test_inject_install_failure;
        ] );
      ( "health",
        [
          tc "ladder transitions" `Quick test_health_ladder;
          tc "forgiveness window" `Quick test_health_forgiveness;
        ] );
      ("healing", [ tc "heal_node clamps and rechecks" `Quick test_heal_node ]);
    ]
