(* The pluggable dispatch backends and the multi-workload session layer:

   - each pinned backend (interp / profile / trace) yields a VM result
     bit-identical to the plain interpreter on every registered workload,
     also with OSR and the compiled tier armed;
   - under the compiled tier, a run pinned to trace dispatch and a run
     following the ladder agree on every counter;
   - backend selection follows the health ladder, counting only genuine
     strategy changes, and promotion out of interp-only resets the
     profiler context;
   - the resumable interpreter handle replays exactly the same stream as
     a one-shot run, whatever the batch size;
   - guard-pruning verdicts written into live traces mid-run leave every
     counter where a run without them puts it;
   - sessions share a trace cache per layout with observable
     cross-session reuse, preserving bit-identical results (also under a
     chaos fault schedule), and each member publishes and counts the
     cache decisions it makes;
   - the Health edge cases: forgiveness exactly at the clean-window
     boundary, and strike budgets resetting across a demote + recover
     cycle. *)

module Config = Tracegen.Config
module Engine = Tracegen.Engine
module Events = Tracegen.Events
module Session = Tracegen.Session
module Health = Tracegen.Health
module Bcg = Tracegen.Bcg
module Profiler = Tracegen.Profiler
module Stats = Tracegen.Stats
module Trace_cache = Tracegen.Trace_cache
module Trace_prover = Tracegen.Trace_prover
module Interp = Vm.Interp

let tc = Alcotest.test_case
let check = Alcotest.check

let fingerprint = Harness.Chaos.fingerprint

let compress_layout =
  lazy
    (let w = Workloads.Compress.workload in
     Cfg.Layout.build (w.Workloads.Workload.build ~size:500))

(* --------------------------------------------------------------- *)
(* pinned-backend equivalence                                        *)
(* --------------------------------------------------------------- *)

(* every registered workload, every backend, with and without OSR and
   the compiled tier: the overlay promise *)
let test_pinned_equivalence () =
  let max_instructions = 120_000 in
  let configs =
    [ ("default", Config.default);
      ("tier+osr", Config.make ~tier:true ~osr:true ()) ]
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let layout =
        Cfg.Layout.build (Workloads.Workload.build_default w)
      in
      let baseline = Interp.run_plain ~max_instructions layout in
      List.iter
        (fun ((label, config), k) ->
          let r = Engine.run ~config ~max_instructions ~backend:k layout in
          check Alcotest.bool
            (Printf.sprintf "%s/%s/%s identical" w.Workloads.Workload.name
               label (fst (Engine.describe_backend k)))
            true
            (fingerprint baseline = fingerprint r.Engine.vm_result);
          let s = r.Engine.run_stats in
          (match k with
          | Engine.Interp ->
              check Alcotest.int "interp: no signals" 0 s.Stats.signals;
              check Alcotest.int "interp: no trace dispatches" 0
                s.Stats.traces_entered;
              check Alcotest.int "interp: every dispatch is a block dispatch"
                baseline.Interp.block_dispatches s.Stats.block_dispatches
          | Engine.Profile ->
              check Alcotest.int "profile: no trace dispatches" 0
                s.Stats.traces_entered
          | Engine.Trace -> ());
          check Alcotest.int "pinned engines never switch" 0
            s.Stats.backend_switches)
        (List.concat_map
           (fun c -> List.map (fun k -> (c, k)) Engine.backends)
           configs))
    Workloads.Registry.all

(* every kind's name leads back to that kind, and a pinned engine
   reports the name *)
let test_backend_kind_names () =
  let layout = Lazy.force compress_layout in
  let name k = fst (Engine.describe_backend k) in
  check
    Alcotest.(list string)
    "three strategies, ladder order"
    [ "interp"; "profile"; "trace" ]
    (List.map name Engine.backends);
  List.iter
    (fun k ->
      let name_k, description = Engine.describe_backend k in
      check Alcotest.bool ("round trip " ^ name_k) true
        (List.filter (fun k' -> name k' = name_k) Engine.backends = [ k ]);
      check Alcotest.string ("pinned engine reports " ^ name_k) name_k
        (Engine.backend_name (Engine.create ~backend:k layout));
      check Alcotest.bool "description is not empty" true
        (String.length description > 0))
    Engine.backends

(* The compiled tier is a property of trace dispatch, not a strategy of
   its own: pinning the trace backend under the tier runs exactly what
   the ladder selects, hot traces compiled included. *)
let test_pinned_trace_compiles () =
  let layout = Lazy.force compress_layout in
  let config = Config.make ~tier:true () in
  let counters (r : Engine.run_result) =
    List.map (fun (name, get) -> (name, get r.Engine.run_stats)) Stats.counters
  in
  let pinned = Engine.run ~config ~backend:Engine.Trace layout in
  let ladder = Engine.run ~config layout in
  check Alcotest.string "the ladder selects trace dispatch" "trace"
    (Engine.backend_name ladder.Engine.engine);
  check
    Alcotest.(list (pair string int))
    "pinned and ladder runs agree" (counters ladder) (counters pinned);
  check Alcotest.bool "hot traces compiled" true
    (pinned.Engine.run_stats.Stats.traces_compiled > 0)

(* an unpinned engine starts on the backend the config implies *)
let test_unpinned_selection () =
  let layout = Lazy.force compress_layout in
  let e = Engine.create layout in
  check Alcotest.string "default: trace backend" "trace"
    (Engine.backend_name e);
  let e2 =
    Engine.create ~config:(Config.make ~build_traces:false ()) layout
  in
  check Alcotest.string "build_traces off: profile backend" "profile"
    (Engine.backend_name e2);
  let e3 = Engine.create ~backend:Engine.Interp layout in
  check Alcotest.string "pinned: interp backend" "interp"
    (Engine.backend_name e3)

(* --------------------------------------------------------------- *)
(* resumable interpreter                                             *)
(* --------------------------------------------------------------- *)

let test_stepped_equivalence () =
  let layout = Lazy.force compress_layout in
  let stream_once = ref [] in
  let once =
    Interp.run layout ~on_block:(fun g -> stream_once := g :: !stream_once)
  in
  (* odd batch size, so batches straddle calls and returns *)
  let stream_stepped = ref [] in
  let h =
    Interp.start layout ~on_block:(fun g ->
        stream_stepped := g :: !stream_stepped)
  in
  let batches = ref 0 in
  while Interp.running h do
    ignore (Interp.step_blocks h 7);
    incr batches
  done;
  let stepped = Interp.finish h in
  check Alcotest.bool "many batches" true (!batches > 1);
  check Alcotest.bool "identical result" true
    (fingerprint once = fingerprint stepped);
  check (Alcotest.list Alcotest.int) "identical dispatch stream"
    !stream_once !stream_stepped;
  (* finish is idempotent; step_blocks on a stopped handle is a no-op *)
  check Alcotest.int "no more blocks" 0 (Interp.step_blocks h 10);
  check Alcotest.bool "finish idempotent" true
    (fingerprint (Interp.finish h) = fingerprint stepped)

let test_stepped_trap () =
  (* a division by zero traps mid-step and is absorbed by the handle *)
  let open Workloads.Dsl in
  let module S = Bytecode.Structured in
  let p = S.create () in
  S.def_method p ~name:"main" ~args:[] ~ret:S.I
    ~body:[ ret (i 1 /! i 0) ] ();
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  let layout = Cfg.Layout.build program in
  let h = Interp.start layout ~on_block:(fun _ -> ()) in
  ignore (Interp.step_blocks h max_int);
  check Alcotest.bool "stopped" false (Interp.running h);
  match (Interp.result_of h).Interp.outcome with
  | Interp.Trapped (Interp.Division_by_zero, _) -> ()
  | _ -> Alcotest.fail "expected a division-by-zero trap"

(* Trace_prover's pruning verdicts are analysis output, not dispatch
   input: pruning every cached trace halfway through a run (as a replay
   over a finished engine's cache does) must leave every counter where
   the same run without the prune calls puts it. *)
let test_pruning_verdicts_inert () =
  let layout =
    let w = Workloads.Compress.workload in
    Cfg.Layout.build (w.Workloads.Workload.build ~size:2_000)
  in
  let counters s = List.map (fun (name, get) -> (name, get s)) Stats.counters in
  let plain = Engine.run layout in
  let halfway = Engine.total_dispatches plain.Engine.engine / 2 in
  let events = Tracegen.Events.create () in
  let tally = Harness.Oracle.attach events in
  let entered tr = Harness.Oracle.entered tally tr.Tracegen.Trace.id in
  let e = Engine.create ~events layout in
  let h = Interp.start layout ~on_block:(Engine.on_block e) in
  Engine.attach e h;
  ignore (Interp.step_blocks h halfway);
  check Alcotest.bool "still running halfway" true (Interp.running h);
  (* each pruned trace with its entry count at the prune *)
  let pruned = ref [] in
  Trace_cache.iter_all (Engine.cache e) (fun tr ->
      if Trace_prover.prune layout tr > 0 then
        pruned := (tr, entered tr) :: !pruned);
  check Alcotest.bool "the prover pruned live traces" true (!pruned <> []);
  let vm_result = Interp.finish h in
  check Alcotest.bool "pruned traces dispatched after the prune" true
    (List.exists
       (fun (tr, before) -> entered tr > before)
       !pruned);
  check Alcotest.bool "identical result" true
    (fingerprint plain.Engine.vm_result = fingerprint vm_result);
  check
    Alcotest.(list (pair string int))
    "every counter equal" (counters plain.Engine.run_stats)
    (counters (Engine.stats e ~vm_result ~wall_seconds:0.0))

(* --------------------------------------------------------------- *)
(* ladder-driven backend switching                                   *)
(* --------------------------------------------------------------- *)

(* a fixed number of direct strikes or clean dispatches on a ladder *)
let strike_n h n =
  for _ = 1 to n do
    ignore (Health.strike h)
  done

let clean_n h n =
  for _ = 1 to n do
    ignore (Health.clean_dispatch h)
  done

(* demote to interp-only by striking the ladder directly, recover by
   clean dispatches, and observe: the switch count, and the profiler
   context forgotten on promotion out of interp-only *)
let test_promotion_resets_profiler () =
  let layout = Lazy.force compress_layout in
  let config = Config.make ~build_traces:false ~self_heal:true () in
  let e = Engine.create ~config layout in
  check Alcotest.string "starts on profile" "profile" (Engine.backend_name e);
  (* profile a short stream: context is (1,2) afterwards *)
  List.iter (Engine.on_block e) [ 0; 1; 2 ];
  let bcg = Profiler.bcg (Engine.profiler e) in
  check Alcotest.bool "node (1,2) profiled" true
    (Bcg.find_node bcg ~x:1 ~y:2 != Bcg.no_node);
  (* two demotions' worth of direct strikes: full -> profiling -> interp *)
  strike_n (Engine.health e) (2 * Config.heal_demote_after);
  check Alcotest.bool "ladder at interp-only" true
    (Health.level (Engine.health e) = Health.Interp_only);
  (* a recovery window of unprofiled dispatches, the last one block 5;
     the promotion out of interp-only resets the profiler context *)
  for _ = 2 to Config.heal_recover_after do
    Engine.on_block e 3
  done;
  Engine.on_block e 5;
  (* the promotion lands mid-dispatch, so block 5 itself still ran on
     the interp backend; re-selection happens at the NEXT observed
     block *)
  check Alcotest.string "still on interp right after promoting" "interp"
    (Engine.backend_name e);
  List.iter (Engine.on_block e) [ 6; 7 ];
  check Alcotest.int "two genuine switches (profile->interp->profile)" 2
    (Engine.counters e).Stats.backend_switches;
  check Alcotest.bool "stale context not linked across the reset" true
    (Bcg.find_node bcg ~x:5 ~y:6 == Bcg.no_node);
  check Alcotest.bool "profiling resumed with a fresh context" true
    (Bcg.find_node bcg ~x:6 ~y:7 != Bcg.no_node);
  check Alcotest.bool "pre-demotion history kept" true
    (Bcg.find_node bcg ~x:1 ~y:2 != Bcg.no_node);
  check Alcotest.int "skipped dispatches counted" Config.heal_recover_after
    (Profiler.skipped (Engine.profiler e))

(* --------------------------------------------------------------- *)
(* health edge cases                                                 *)
(* --------------------------------------------------------------- *)

let test_forgiveness_boundary () =
  (* strikes are forgiven at exactly heal_recover_after clean
     dispatches, not one earlier *)
  let pending = Config.heal_demote_after - 1 in
  let h = Health.create () in
  strike_n h pending;
  check Alcotest.int "one strike short of demotion" pending
    (Health.strikes h);
  clean_n h (Config.heal_recover_after - 1);
  (* one dispatch short of the window: one more strike still demotes *)
  check Alcotest.int "still pending at window-1" pending (Health.strikes h);
  (match Health.clean_dispatch h with
  | Health.Stay -> ()
  | Health.Changed _ -> Alcotest.fail "forgiveness must not change level");
  check Alcotest.int "forgiven at exactly the window" 0 (Health.strikes h);
  check Alcotest.bool "still at full tracing" true
    (Health.level h = Health.Full_tracing);
  (* the same sequence, one clean dispatch shorter, demotes instead *)
  let h2 = Health.create () in
  strike_n h2 pending;
  clean_n h2 (Config.heal_recover_after - 1);
  (match Health.strike h2 with
  | Health.Changed (Health.Full_tracing, Health.Profiling_only) -> ()
  | _ -> Alcotest.fail "last strike inside the window must demote")

let test_strikes_across_demote_recover () =
  (* each demotion and each promotion grants the new level a fresh
     strike budget *)
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
  let repeat n f =
    for _ = 1 to n do
      ignore (f ())
    done
  in
  repeat (Config.heal_demote_after - 1) strike;
  (match strike () with
  | Health.Changed (Health.Full_tracing, Health.Profiling_only) -> ()
  | _ -> Alcotest.fail "last strike of the budget demotes");
  check Alcotest.int "budget reset after demotion" 0 (Health.strikes h);
  ignore (strike ());
  check Alcotest.int "one strike at profiling-only" 1 (Health.strikes h);
  (* recover: the strike from the degraded level must not survive *)
  repeat (Config.heal_recover_after - 1) clean;
  (match clean () with
  | Health.Changed (Health.Profiling_only, Health.Full_tracing) -> ()
  | _ -> Alcotest.fail "the window's last clean dispatch promotes");
  check Alcotest.int "budget reset after promotion" 0 (Health.strikes h);
  repeat (Config.heal_demote_after - 1) strike;
  (match strike () with
  | Health.Changed (Health.Full_tracing, Health.Profiling_only) -> ()
  | _ -> Alcotest.fail "a fresh budget demotes on its last strike again");
  check Alcotest.int "demotions counted" 2 !demotions;
  check Alcotest.int "promotions counted" 1 !promotions

(* --------------------------------------------------------------- *)
(* sessions                                                          *)
(* --------------------------------------------------------------- *)


(* A member has finished once its result can be read. *)
let finished m =
  match Session.vm_result m with
  | _ -> true
  | exception Invalid_argument _ -> false

let test_session_sharing () =
  let layout = Lazy.force compress_layout in
  let baseline = Interp.run_plain layout in
  let session = Session.create ~batch:512 () in
  let a = Session.add ~name:"a" session layout in
  let b = Session.add ~name:"b" session layout in
  check Alcotest.int "one shared cache" 1
    (List.length (Session.caches session));
  Session.run session;
  check Alcotest.bool "both finished" true (finished a && finished b);
  List.iter
    (fun m ->
      check Alcotest.bool
        (Session.member_name m ^ " identical to solo interpreter")
        true
        (fingerprint baseline = fingerprint (Session.vm_result m)))
    (Session.members session);
  check Alcotest.bool "cross-session trace entries observed" true
    (Session.cross_entries session > 0);
  (* the members really share: the engines report the same totals *)
  check Alcotest.bool "engines share the cache" true
    (Engine.cache (Session.engine a) == Engine.cache (Session.engine b));
  (* distinct layouts get distinct caches *)
  let other =
    Cfg.Layout.build
      (Workloads.Compress.workload.Workloads.Workload.build ~size:300)
  in
  ignore (Session.add ~name:"c" session other);
  check Alcotest.int "second layout, second cache" 2
    (List.length (Session.caches session));
  Session.run session

let test_session_solo_counts_nothing () =
  (* a single-member session never counts cross reuse *)
  let layout = Lazy.force compress_layout in
  let session = Session.create () in
  let m = Session.add session layout in
  Session.run session;
  check Alcotest.bool "finished" true (finished m);
  check Alcotest.int "no cross installs" 0 (Session.cross_installs session);
  check Alcotest.int "no cross entries" 0 (Session.cross_entries session)

let test_session_chaos_equivalence () =
  (* interleaving under an armed fault schedule keeps every member's
     result identical to the solo interpreter *)
  let layout = Lazy.force compress_layout in
  let baseline = Interp.run_plain layout in
  let config = Harness.Chaos.config ~seed:5 () in
  let session = Session.create ~batch:256 () in
  for u = 1 to 2 do
    ignore (Session.add ~name:(Printf.sprintf "u%d" u) ~config session layout)
  done;
  Session.run session;
  List.iter
    (fun m ->
      check Alcotest.bool
        (Session.member_name m ^ " identical under chaos")
        true
        (fingerprint baseline = fingerprint (Session.vm_result m)))
    (Session.members session)

(* Each member of a shared-cache session publishes and counts the cache
   decisions it makes: the replacement, eviction and quarantine events
   on its own stream equal its own Stats, and the members' evictions sum
   to the cache's.  A solo engine's evictions are the cache's. *)
let test_session_decisions_per_member () =
  let layout =
    Cfg.Layout.build
      (Workloads.Workload.build_default Workloads.Compress.workload)
  in
  let config ?self_heal ?fault_spec () =
    Config.make ?self_heal ?fault_spec ~max_cache_traces:8
      ~eviction_policy:Config.Cache.Footprint_aware ()
  in
  List.iter
    (fun (label, config) ->
      let session = Session.create () in
      let members =
        List.map
          (fun name ->
            let events = Events.create () in
            let seen = Hashtbl.create 8 in
            let _sub =
              Events.subscribe events (fun e ->
                  let k =
                    match e.Events.payload with
                    | Events.Trace_evicted { reason = Events.Quarantine; _ } ->
                        "trace_evicted (quarantine)"
                    | p -> Events.kind p
                  in
                  Hashtbl.replace seen k
                    (1 + Option.value (Hashtbl.find_opt seen k) ~default:0))
            in
            (Session.add ~name ~config ~events session layout, seen))
          [ "a"; "b" ]
      in
      Session.run session;
      let quarantined = ref 0 in
      let evicted =
        List.fold_left
          (fun sum (m, seen) ->
            let s = Session.stats m in
            let mine kind want =
              check Alcotest.int
                (Printf.sprintf "%s/%s: %s" label (Session.member_name m) kind)
                want
                (Option.value (Hashtbl.find_opt seen kind) ~default:0)
            in
            mine "trace_replaced" s.Stats.traces_replaced;
            mine "trace_evicted" s.Stats.traces_evicted;
            mine "trace_quarantined" s.Stats.traces_quarantined;
            quarantined := !quarantined + s.Stats.traces_quarantined;
            sum + s.Stats.traces_evicted)
          0 members
      in
      let cache = Engine.cache (Session.engine (fst (List.hd members))) in
      check Alcotest.bool (label ^ ": the cache evicted or quarantined") true
        (Trace_cache.n_evicted cache > 0 || !quarantined > 0);
      check Alcotest.int
        (label ^ ": the members' evictions sum to the cache's")
        (Trace_cache.n_evicted cache) evicted)
    [
      ("plain", config ());
      ( "self-heal",
        config ~self_heal:true ~fault_spec:"corrupt-trace@0.005,budget=20" ()
      );
    ];
  let r = Engine.run ~config:(config ()) layout in
  check Alcotest.int "solo: traces_evicted = the cache's"
    (Trace_cache.n_evicted (Engine.cache r.Engine.engine))
    r.Engine.run_stats.Stats.traces_evicted

(* FT006 in a session: an armed installation failure belongs to the
   member whose injector armed it, so each member's failed installs are
   its own injections, never another member's. *)
let test_session_fail_install_per_member () =
  let layout =
    Cfg.Layout.build
      (Workloads.Workload.build_default Workloads.Compress.workload)
  in
  let config = Config.make ~fault_spec:"fail-install@0.01,budget=20" () in
  let session = Session.create () in
  let members =
    List.map
      (fun name ->
        let events = Events.create () in
        let injected = ref 0 in
        let _sub =
          Events.subscribe events (fun e ->
              match e.Events.payload with
              | Events.Fault_injected { code = "FT006"; _ } -> incr injected
              | _ -> ())
        in
        (Session.add ~name ~config ~events session layout, injected))
      [ "a"; "b" ]
  in
  Session.run session;
  List.iter
    (fun (m, injected) ->
      check Alcotest.bool
        (Session.member_name m ^ " injected failures")
        true (!injected > 0);
      check Alcotest.int
        (Session.member_name m ^ ": failed installs are its own injections")
        !injected (Session.stats m).Stats.failed_installs)
    members

let test_session_validation () =
  (match Session.create ~batch:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "batch=0 must be rejected");
  (* a cache from one layout cannot serve an engine over another *)
  let layout = Lazy.force compress_layout in
  let other =
    Cfg.Layout.build
      (Workloads.Compress.workload.Workloads.Workload.build ~size:300)
  in
  let cache = Tracegen.Trace_cache.create layout in
  match Engine.create ~cache other with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "foreign-layout cache must be rejected"

let () =
  Alcotest.run "backends"
    [
      ( "equivalence",
        [
          tc "pinned backends vs interpreter" `Quick test_pinned_equivalence;
          tc "kind name round trip" `Quick test_backend_kind_names;
          tc "pinned trace compiles under the tier" `Quick
            test_pinned_trace_compiles;
          tc "unpinned selection" `Quick test_unpinned_selection;
        ] );
      ( "stepping",
        [
          tc "batched stepping replays the stream" `Quick
            test_stepped_equivalence;
          tc "trap mid-step" `Quick test_stepped_trap;
          tc "pruning verdicts leave the counters alone" `Quick
            test_pruning_verdicts_inert;
        ] );
      ( "ladder",
        [
          tc "promotion resets the profiler" `Quick
            test_promotion_resets_profiler;
          tc "forgiveness at the window boundary" `Quick
            test_forgiveness_boundary;
          tc "strike budgets across demote+recover" `Quick
            test_strikes_across_demote_recover;
        ] );
      ( "sessions",
        [
          tc "shared cache, identical results" `Quick test_session_sharing;
          tc "solo counts no cross reuse" `Quick
            test_session_solo_counts_nothing;
          tc "chaos equivalence" `Quick test_session_chaos_equivalence;
          tc "each member counts its own cache decisions" `Quick
            test_session_decisions_per_member;
          tc "each member fails only its own installs" `Quick
            test_session_fail_install_per_member;
          tc "validation" `Quick test_session_validation;
        ] );
    ]
