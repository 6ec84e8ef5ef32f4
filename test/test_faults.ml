(* The fault-injection and self-healing machinery:

   - the fault-schedule DSL (parse errors, determinism, the FT catalogue);
   - the bounded trace cache (remove, LRU eviction, pressure eviction);
   - quarantine (backoff, blacklisting, try_install refusals);
   - the degradation ladder (Health) and BCG node repair (heal_node). *)

module Config = Tracegen.Config
module Bcg = Tracegen.Bcg
module Trace_cache = Tracegen.Trace_cache
module Faults = Tracegen.Faults
module Health = Tracegen.Health
module Events = Tracegen.Events

let tc = Alcotest.test_case
let check = Alcotest.check

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
  check Alcotest.int "budget" 3 (Faults.budget_left f);
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

let test_catalogue () =
  let codes = List.map fst Faults.catalogue in
  List.iter
    (fun c ->
      check Alcotest.bool (c ^ " catalogued") true (List.mem c codes))
    [ "FT001"; "FT002"; "FT003"; "FT004"; "FT005"; "FT006"; "FT007";
      "FT008"; "FT901"; "FT902" ];
  (* kind_name / kind_of_name round-trip, and codes line up *)
  List.iter
    (fun name ->
      match Faults.kind_of_name name with
      | Some k ->
          check Alcotest.string "name round-trips" name (Faults.kind_name k);
          check Alcotest.bool "code catalogued" true
            (List.mem (Faults.code k) codes)
      | None -> Alcotest.failf "kind %S unknown" name)
    [ "corrupt-trace"; "corrupt-instrs"; "zero-counter"; "saturate-counter";
      "drop-best"; "fail-install"; "alloc-pressure"; "guard-flip" ];
  check Alcotest.(option reject) "unknown kind" None
    (Faults.kind_of_name "bogus")

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
  for g = 0 to 9 do
    ignore
      (Trace_cache.install cache ~first:g ~blocks:[| g + 1; g + 2 |] ~prob:1.0)
  done;
  (bcg, cache)

let run_schedule ~seed ~ticks spec =
  let bcg, cache = warm_targets () in
  let f = Faults.create ~seed spec in
  let log = ref [] in
  for now = 0 to ticks - 1 do
    let fired = Faults.tick f ~now ~bcg ~cache ~active:None in
    log := List.rev_append fired !log
  done;
  (f, List.rev !log)

let test_determinism () =
  let spec = "corrupt-trace@0.1,zero-counter@0.2,drop-best@0.1,budget=16" in
  let f1, log1 = run_schedule ~seed:7 ~ticks:400 spec in
  let f2, log2 = run_schedule ~seed:7 ~ticks:400 spec in
  check Alcotest.bool "some faults fired" true (Faults.injected f1 > 0);
  check Alcotest.int "same injection count" (Faults.injected f1)
    (Faults.injected f2);
  check
    Alcotest.(list (pair string string))
    "same (code, detail) sequence" log1 log2;
  (* seed 0 is legal (remapped internally, xorshift has no zero state) *)
  let f0, log0 = run_schedule ~seed:0 ~ticks:400 spec in
  let f0', log0' = run_schedule ~seed:0 ~ticks:400 spec in
  check Alcotest.int "seed 0 deterministic too" (Faults.injected f0)
    (Faults.injected f0');
  check Alcotest.(list (pair string string)) "seed 0 same log" log0 log0'

let test_budget_and_one_shot () =
  let _, log = run_schedule ~seed:3 ~ticks:400 "corrupt-trace@1.0,budget=5" in
  check Alcotest.int "budget caps injections" 5 (List.length log);
  (* a one-shot arm fires exactly once, at the first tick >= N *)
  let _, log1 = run_schedule ~seed:3 ~ticks:400 "fail-install!50" in
  check Alcotest.int "one-shot fires once" 1 (List.length log1);
  check Alcotest.string "with its FT code" "FT006" (fst (List.hd log1))

(* --------------------------------------------------------------- *)
(* bounded cache: remove / LRU / pressure                            *)
(* --------------------------------------------------------------- *)

let test_remove_consistency () =
  let layout = Lazy.force layout in
  let cache = Trace_cache.create layout in
  let t0 = Trace_cache.install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  let _t1 = Trace_cache.install cache ~first:3 ~blocks:[| 4; 5 |] ~prob:1.0 in
  let _t2 = Trace_cache.install cache ~first:6 ~blocks:[| 7; 8 |] ~prob:1.0 in
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
  let t0' = Trace_cache.install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
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
  let cache = Trace_cache.create ~events ~max_traces:2 layout in
  ignore (Trace_cache.install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0);
  ignore (Trace_cache.install cache ~first:3 ~blocks:[| 4; 5 |] ~prob:1.0);
  (* touch (0,1) so (3,4) is the least recently dispatched *)
  ignore (Trace_cache.lookup cache ~prev:0 ~cur:1);
  ignore (Trace_cache.install cache ~first:6 ~blocks:[| 7; 8 |] ~prob:1.0);
  check Alcotest.int "cap holds" 2 (Trace_cache.n_live cache);
  check Alcotest.int "one eviction" 1 (Trace_cache.n_evicted cache);
  check Alcotest.(list (pair int int)) "LRU victim" [ (3, 4) ] !evicted;
  check Alcotest.bool "touched entry survives" true
    (Trace_cache.lookup cache ~prev:0 ~cur:1 <> None);
  check Alcotest.bool "new entry live" true
    (Trace_cache.lookup cache ~prev:6 ~cur:7 <> None)

let test_block_cap_and_pressure () =
  let layout = Lazy.force layout in
  let cache = Trace_cache.create ~max_blocks:5 layout in
  ignore (Trace_cache.install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0);
  ignore (Trace_cache.install cache ~first:3 ~blocks:[| 4; 5 |] ~prob:1.0);
  (* a third 2-block trace pushes live_blocks to 6 > 5: one eviction *)
  ignore (Trace_cache.install cache ~first:6 ~blocks:[| 7; 8 |] ~prob:1.0);
  check Alcotest.bool "block cap holds" true
    (Trace_cache.live_blocks cache <= 5);
  check Alcotest.int "one eviction" 1 (Trace_cache.n_evicted cache);
  (* pressure eviction: down to one live trace *)
  let n = Trace_cache.pressure_evict cache ~down_to:1 in
  check Alcotest.int "evicted down to one" 1 (Trace_cache.n_live cache);
  check Alcotest.int "reported count" n
    (Trace_cache.n_evicted cache - 1);
  (* invalid caps are rejected at construction *)
  (match Trace_cache.create ~max_traces:(-1) layout with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative max_traces should be rejected")

(* --------------------------------------------------------------- *)
(* quarantine                                                        *)
(* --------------------------------------------------------------- *)

let test_quarantine_backoff () =
  let layout = Lazy.force layout in
  let cache =
    Trace_cache.create ~heal_max_rebuilds:2 ~heal_backoff:100 layout
  in
  let t0 = Trace_cache.install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  (match Trace_cache.quarantine cache ~first:0 ~head:1 ~code:"TL210" with
  | Some tr -> check Alcotest.bool "condemned trace removed" true (tr == t0)
  | None -> Alcotest.fail "quarantine returned None for a bound entry");
  check Alcotest.int "unbound" 0 (Trace_cache.n_live cache);
  check Alcotest.bool "quarantined now" true
    (Trace_cache.is_quarantined cache ~first:0 ~head:1);
  check Alcotest.int "one attempt" 1
    (Trace_cache.quarantine_attempts cache ~first:0 ~head:1);
  (* try_install refuses while the backoff holds *)
  check Alcotest.bool "try_install refused" true
    (Trace_cache.try_install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0
    = None);
  check Alcotest.int "refusal counted" 1
    (Trace_cache.n_quarantine_rejects cache);
  (* first backoff window: heal_backoff * 2^0 = 100 clock units *)
  Trace_cache.set_clock cache 99;
  check Alcotest.bool "still quarantined at 99" true
    (Trace_cache.is_quarantined cache ~first:0 ~head:1);
  Trace_cache.set_clock cache 101;
  check Alcotest.bool "released at 101" false
    (Trace_cache.is_quarantined cache ~first:0 ~head:1);
  check Alcotest.bool "rebuild allowed" true
    (Trace_cache.try_install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0
    <> None);
  (* second condemnation doubles the backoff (until 101 + 200) *)
  ignore (Trace_cache.quarantine cache ~first:0 ~head:1 ~code:"TL210");
  Trace_cache.set_clock cache 300;
  check Alcotest.bool "still quarantined at 300" true
    (Trace_cache.is_quarantined cache ~first:0 ~head:1);
  Trace_cache.set_clock cache 302;
  check Alcotest.bool "released at 302" false
    (Trace_cache.is_quarantined cache ~first:0 ~head:1);
  (* third condemnation exceeds heal_max_rebuilds = 2: permanent *)
  ignore (Trace_cache.quarantine cache ~first:0 ~head:1 ~code:"TL210");
  check Alcotest.int "blacklisted" 1 (Trace_cache.n_blacklisted cache);
  Trace_cache.set_clock cache 1_000_000_000;
  check Alcotest.bool "blacklist never expires" true
    (Trace_cache.is_quarantined cache ~first:0 ~head:1);
  check Alcotest.int "three condemnations" 3 (Trace_cache.n_quarantines cache)

let test_inject_install_failure () =
  let layout = Lazy.force layout in
  let cache = Trace_cache.create layout in
  Trace_cache.inject_install_failure cache;
  check Alcotest.bool "armed failure consumed" true
    (Trace_cache.try_install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0
    = None);
  check Alcotest.int "counted" 1 (Trace_cache.n_failed_installs cache);
  check Alcotest.bool "next install succeeds" true
    (Trace_cache.try_install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0
    <> None)

(* --------------------------------------------------------------- *)
(* the degradation ladder                                            *)
(* --------------------------------------------------------------- *)

let level =
  Alcotest.testable
    (fun ppf l -> Format.pp_print_string ppf (Health.level_to_string l))
    ( = )

let test_health_ladder () =
  let h = Health.create ~demote_after:2 ~recover_after:3 in
  check level "starts at full tracing" Health.Full_tracing (Health.level h);
  check Alcotest.bool "first strike stays" true (Health.strike h = Health.Stay);
  check Alcotest.bool "second strike demotes" true
    (Health.strike h
    = Health.Changed (Health.Full_tracing, Health.Profiling_only));
  check Alcotest.bool "degraded" true (Health.is_degraded h);
  (* two more strikes reach the floor *)
  ignore (Health.strike h);
  ignore (Health.strike h);
  check level "at interp-only" Health.Interp_only (Health.level h);
  (* strikes at the floor do not demote further *)
  ignore (Health.strike h);
  ignore (Health.strike h);
  check level "still interp-only" Health.Interp_only (Health.level h);
  check Alcotest.int "two demotions" 2 (Health.demotions h);
  (* recover_after clean dispatches climb one level at a time *)
  ignore (Health.clean_dispatch h);
  ignore (Health.clean_dispatch h);
  check level "not yet" Health.Interp_only (Health.level h);
  check Alcotest.bool "third clean promotes" true
    (Health.clean_dispatch h
    = Health.Changed (Health.Interp_only, Health.Profiling_only));
  for _ = 1 to 3 do
    ignore (Health.clean_dispatch h)
  done;
  check level "back to full tracing" Health.Full_tracing (Health.level h);
  check Alcotest.int "two promotions" 2 (Health.promotions h)

let test_health_forgiveness () =
  let h = Health.create ~demote_after:2 ~recover_after:3 in
  (* one strike, then a clean window: the stale strike is forgiven, so
     isolated faults never accumulate into a demotion *)
  check Alcotest.bool "stay" true (Health.strike h = Health.Stay);
  check Alcotest.int "one strike" 1 (Health.strikes h);
  for _ = 1 to 3 do
    ignore (Health.clean_dispatch h)
  done;
  check Alcotest.int "forgiven" 0 (Health.strikes h);
  check Alcotest.bool "a much later strike stays again" true
    (Health.strike h = Health.Stay);
  check level "never left full tracing" Health.Full_tracing (Health.level h);
  (* constructor rejects nonsense windows *)
  match Health.create ~demote_after:0 ~recover_after:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "demote_after 0 should be rejected"

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
          tc "block cap and pressure eviction" `Quick
            test_block_cap_and_pressure;
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
