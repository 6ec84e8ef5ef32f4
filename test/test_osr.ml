(* On-stack replacement:

   - deoptimization is transparent: a guard flipped at any trace
     position abandons the residue and resumes block dispatch at the
     failing block, with VM results bit-identical to pure interpretation
     and the materialized interpreter state agreeing at every deopt
     (TL219 never fires on a healthy engine), and the residues the
     deopt events report sum to the engine's residue counter;
   - mid-loop promotion builds a hot loop's trace mid-iteration and
     enters it on the next back-edge, still bit-identical;
   - a currently executing trace is pinned: capacity/pressure eviction
     picks other victims and quarantine is refused outright;
   - an invariant sweep condemning the executing trace cuts over
     mid-flight under OSR (and defers, pin-refused, without). *)

module Config = Tracegen.Config
module Engine = Tracegen.Engine
module Events = Tracegen.Events
module Stats = Tracegen.Stats
module Trace = Tracegen.Trace
module Trace_cache = Tracegen.Trace_cache
module Interp = Vm.Interp

let tc = Alcotest.test_case
let check = Alcotest.check

(* A trace the cache must accept. *)
let install ~events ~counts cache ~first ~blocks ~prob =
  match Trace_cache.try_install cache ~events ~counts ~first ~blocks ~prob with
  | Trace_cache.Built tr | Trace_cache.Reused tr -> tr
  | Trace_cache.Refused -> Alcotest.fail "installation refused"
let fp = Alcotest.(triple string int int)
let fingerprint = Harness.Chaos.fingerprint

let layout_for ?(size = 300) w = Harness.Experiment.layout_for w ~size

let compress = Workloads.Compress.workload

(* --------------------------------------------------------------- *)
(* deoptimization transparency                                       *)
(* --------------------------------------------------------------- *)

(* Arm a guard flip at one fixed position before every dispatched block:
   every trace entered during the run deopts at (the clamp of) that
   position.  Sweeping positions covers deopt-at-every-position; each
   run must stay bit-identical to pure interpretation, and every deopt
   must pass the TL219 state-materialization check. *)
let test_deopt_every_position () =
  let layout = layout_for compress in
  let baseline = Interp.run_plain layout in
  let total_deopts = ref 0 in
  for pos = 1 to 6 do
    let config = Config.make ~debug_checks:true ~osr:true () in
    let eng = Engine.create ~config layout in
    let handle =
      Interp.start layout ~on_block:(fun g -> Engine.on_block eng g)
    in
    Engine.attach eng handle;
    while Interp.running handle do
      Engine.arm_guard_flip eng ~pos;
      ignore (Interp.step_blocks handle 1)
    done;
    let r = Interp.result_of handle in
    check fp
      (Printf.sprintf "bit-identical with flips at position %d" pos)
      (fingerprint baseline) (fingerprint r);
    let c = Engine.counters eng in
    check Alcotest.int
      (Printf.sprintf "every deopt at position %d materialized state" pos)
      c.Stats.deopts c.Stats.osr_state_checks;
    check Alcotest.int
      (Printf.sprintf "no TL219 mismatch at position %d" pos)
      0 c.Stats.osr_state_mismatches;
    total_deopts := !total_deopts + c.Stats.deopts
  done;
  check Alcotest.bool "the position sweep actually deopted" true
    (!total_deopts > 0)

(* The probabilistic FT008 schedule (pseudo-random positions) across
   every registered workload, with promotion armed too. *)
let test_flip_schedule_all_workloads () =
  let total_deopts = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let layout = layout_for ~size:w.Workloads.Workload.default_size w in
      let baseline = Interp.run_plain ~max_instructions:120_000 layout in
      let config =
        Config.make ~debug_checks:true ~self_heal:true ~osr:true
          ~osr_promote_after:48 ~fault_spec:"guard-flip@1.0,budget=500"
          ~fault_seed:11 ()
      in
      let result = Engine.run ~config ~max_instructions:120_000 layout in
      check fp
        (w.Workloads.Workload.name ^ " bit-identical under flip schedule")
        (fingerprint baseline)
        (fingerprint result.Engine.vm_result);
      let c = Engine.counters result.Engine.engine in
      check Alcotest.int
        (w.Workloads.Workload.name ^ " no TL219 mismatches")
        0 c.Stats.osr_state_mismatches;
      (* the end-of-run stats carry the same counters *)
      check Alcotest.int
        (w.Workloads.Workload.name ^ " stats carry the deopt count")
        c.Stats.deopts result.Engine.run_stats.Stats.deopts;
      total_deopts := !total_deopts + c.Stats.deopts)
    Workloads.Registry.all;
  check Alcotest.bool "the schedule deopted somewhere" true (!total_deopts > 0)

(* The Deopt_entered payload: positions and residues must describe a
   real trace suffix, and the resume block is known when a handle is
   attached. *)
let test_deopt_event_payload () =
  let layout = layout_for compress in
  let events = Events.create () in
  let payloads = ref [] in
  let _s =
    Events.subscribe events (fun e ->
        match e.Events.payload with
        | Events.Deopt_entered { at_block; resume_block; residue_blocks; reason; _ }
          ->
            payloads := (at_block, resume_block, residue_blocks, reason) :: !payloads
        | _ -> ())
  in
  let config = Config.make ~debug_checks:true ~osr:true () in
  let eng = Engine.create ~config ~events layout in
  let handle =
    Interp.start layout ~on_block:(fun g -> Engine.on_block eng g)
  in
  Engine.attach eng handle;
  while Interp.running handle do
    Engine.arm_guard_flip eng ~pos:2;
    ignore (Interp.step_blocks handle 1)
  done;
  check Alcotest.bool "events fired" true (!payloads <> []);
  List.iter
    (fun (at, resume, residue, reason) ->
      check Alcotest.bool "position past the entry" true (at >= 1);
      check Alcotest.bool "abandoned a non-empty residue" true (residue >= 1);
      check Alcotest.bool "resume block known (handle attached)" true
        (resume >= 0);
      (* organic mispredictions deopt alongside the armed flips *)
      check Alcotest.bool "reason catalogued" true
        (List.mem reason [ "guard-flip"; "guard-failure" ]))
    !payloads;
  check Alcotest.bool "the armed flips actually forced some deopts" true
    (List.exists (fun (_, _, _, r) -> r = "guard-flip") !payloads)

(* The counter oracle over a guard-flip schedule: every identity holds,
   and the residues the Deopt_entered events report sum to the
   engine's deopt_residue_blocks counter. *)
let test_deopt_residue_reconciles () =
  let layout = layout_for ~size:500 compress in
  let events = Events.create () in
  let tally = Harness.Oracle.attach events in
  let config =
    Config.make ~osr:true ~fault_spec:"guard_flip@0.05,budget=24" ()
  in
  let r = Engine.run ~config ~events layout in
  let s = r.Engine.run_stats in
  check Alcotest.bool "the schedule deopted" true (s.Stats.deopts > 0);
  let checks = Harness.Oracle.run_checks tally ~engine:r.Engine.engine s in
  List.iter
    (fun (c : Harness.Oracle.check) ->
      check Alcotest.int
        (Printf.sprintf "oracle: %s" c.Harness.Oracle.name)
        c.Harness.Oracle.want c.Harness.Oracle.got)
    checks;
  check Alcotest.bool "the residue identity is checked" true
    (List.exists
       (fun (c : Harness.Oracle.check) ->
         c.Harness.Oracle.name
         = "deopt_entered (residue) = deopt_residue_blocks"
         && c.Harness.Oracle.got > 0)
       checks)

(* --------------------------------------------------------------- *)
(* state materialization                                             *)
(* --------------------------------------------------------------- *)

(* The TL219 foundation, checked directly: an engine-driven run (OSR on,
   traces dispatching) materializes the same interpreter continuation as
   a plain run stepped the same number of blocks, at every checkpoint. *)
let test_materialize_lockstep () =
  let layout = layout_for ~size:200 compress in
  let plain = Interp.start layout ~on_block:(fun _ -> ()) in
  let config = Config.make ~osr:true () in
  let eng = Engine.create ~config layout in
  let engined =
    Interp.start layout ~on_block:(fun g -> Engine.on_block eng g)
  in
  Engine.attach eng engined;
  let continue_ = ref true in
  while !continue_ do
    let a = Interp.step_blocks plain 64 in
    let b = Interp.step_blocks engined 64 in
    check Alcotest.int "same dispatch progress" a b;
    check Alcotest.bool "materialized states equal" true
      (Interp.materialized_equal (Interp.materialize plain)
         (Interp.materialize engined));
    if a = 0 then continue_ := false
  done

(* --------------------------------------------------------------- *)
(* mid-loop promotion                                                *)
(* --------------------------------------------------------------- *)

let test_promotion_mid_loop () =
  let layout = layout_for ~size:400 compress in
  let baseline = Interp.run_plain layout in
  let events = Events.create () in
  let promoted = ref [] in
  let _s =
    Events.subscribe events (fun e ->
        match e.Events.payload with
        | Events.Osr_promoted { trace_id; header; latch; hotness } ->
            promoted := (trace_id, header, latch, hotness) :: !promoted
        | _ -> ())
  in
  let config =
    Config.make ~debug_checks:true ~osr:true ~osr_promote_after:6 ()
  in
  let result = Engine.run ~config ~events layout in
  check fp "bit-identical with promotion armed" (fingerprint baseline)
    (fingerprint result.Engine.vm_result);
  let eng = result.Engine.engine in
  let c = Engine.counters eng in
  check Alcotest.bool "promotions fired" true (c.Stats.osr_promotions > 0);
  check Alcotest.bool "a promoted trace was entered on its back-edge" true
    (c.Stats.osr_entries > 0);
  check Alcotest.int "every promotion was published" c.Stats.osr_promotions
    (List.length !promoted);
  (* each promoted trace self-chains: bound at (latch, header) with the
     latch being its own last block, and hot enough to cross the bar *)
  List.iter
    (fun (trace_id, header, latch, hotness) ->
      check Alcotest.bool "hotness crossed the threshold" true (hotness >= 6);
      match Trace_cache.peek (Engine.cache eng) ~first:latch ~head:header with
      | Some tr when tr.Trace.id = trace_id ->
          check Alcotest.int "latch is the trace's own last block" latch
            (Trace.last_block tr)
      | _ ->
          (* the binding may have been replaced later in the run; the
             event payload still had to be self-consistent *)
          ())
    !promoted;
  check Alcotest.int "stats carry the promotion counters"
    c.Stats.osr_promotions result.Engine.run_stats.Stats.osr_promotions

(* --------------------------------------------------------------- *)
(* execution pinning                                                 *)
(* --------------------------------------------------------------- *)

let test_pinned_trace_protected () =
  let layout = layout_for ~size:200 compress in
  let cache = Trace_cache.create ~max_traces:2 layout in
  let events = Events.create () and counts = Stats.zero () in
  let install = install ~events ~counts cache in
  let quarantine () =
    Trace_cache.quarantine cache ~events ~counts ~first:0 ~head:1
      ~code:"TL210"
  in
  let t0 = install ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  let _t1 = install ~first:3 ~blocks:[| 4; 5 |] ~prob:1.0 in
  Trace_cache.pin cache t0;
  check Alcotest.bool "pinned" true (Trace_cache.is_pinned cache t0);
  (* capacity eviction must pick the unpinned victim even though the
     pinned trace is least recently dispatched *)
  ignore (install ~first:6 ~blocks:[| 7; 8 |] ~prob:1.0);
  check Alcotest.bool "pinned trace survives capacity eviction" true
    (Trace_cache.lookup cache ~prev:0 ~cur:1 <> None);
  (* pressure eviction skips it too, even when asked to empty the cache *)
  ignore (Trace_cache.pressure_evict cache ~events ~counts ~down_to:0);
  check Alcotest.bool "pinned trace survives pressure eviction" true
    (Trace_cache.lookup cache ~prev:0 ~cur:1 <> None);
  check Alcotest.int "only the pinned trace is left" 1
    (Trace_cache.n_live cache);
  (* quarantine is refused wholly: no unbind, no blacklist record *)
  check Alcotest.bool "quarantine refused" true
    (quarantine () = None);
  check Alcotest.int "refusal counted" 1 counts.Stats.pin_refusals;
  check Alcotest.bool "entry not blacklisted by the refusal" false
    (Trace_cache.is_quarantined cache ~first:0 ~head:1);
  check Alcotest.bool "still live" true
    (Trace_cache.lookup cache ~prev:0 ~cur:1 <> None);
  (* pins are refcounted (shared session caches pin per member) *)
  Trace_cache.pin cache t0;
  Trace_cache.unpin cache t0;
  check Alcotest.bool "still pinned after one of two unpins" true
    (Trace_cache.is_pinned cache t0);
  Trace_cache.unpin cache t0;
  check Alcotest.bool "unpinned" false (Trace_cache.is_pinned cache t0);
  check Alcotest.bool "quarantine succeeds once unpinned" true
    (quarantine () <> None)

(* The PR-9 extension of the same promise: a pin also protects the
   trace's compiled-tier body.  Demoting a lowered body out from under
   the dispatch loop following it would leave the loop's micro-IR
   accounting pointing at freed state, so demote_lowered refuses exactly
   like quarantine does — and succeeds once the trace exits. *)
let test_pinned_trace_keeps_compiled_body () =
  let layout = layout_for ~size:200 compress in
  let cache = Trace_cache.create layout in
  let tr =
    install ~events:(Events.create ()) ~counts:(Stats.zero ()) cache ~first:0
      ~blocks:[| 1; 2 |] ~prob:1.0
  in
  tr.Trace.lowered <- Some (Tracegen.Tier.lower_trace layout tr);
  check Alcotest.int "one compiled trace" 1 (Trace_cache.n_compiled cache);
  Trace_cache.pin cache tr;
  check Alcotest.bool "demotion refused while executing" false
    (Trace_cache.demote_lowered cache tr);
  check Alcotest.bool "lowered body retained" true (tr.Trace.lowered <> None);
  check Alcotest.int "refusal counted" 1
    (Trace_cache.n_demote_refusals cache);
  (* refcounted like every pin: one of two unpins still protects *)
  Trace_cache.pin cache tr;
  Trace_cache.unpin cache tr;
  check Alcotest.bool "still protected after one of two unpins" false
    (Trace_cache.demote_lowered cache tr);
  Trace_cache.unpin cache tr;
  check Alcotest.bool "demotion succeeds once unpinned" true
    (Trace_cache.demote_lowered cache tr);
  check Alcotest.bool "body dropped" true (tr.Trace.lowered = None);
  check Alcotest.int "no compiled traces left" 0 (Trace_cache.n_compiled cache)

(* The refcount on a cache shared the way a Session shares it: two
   engines over one cache, stepped one block at a time in lockstep (a
   Session with a batch of one), until both are following the same
   trace and each holds a pin on it. *)
let test_shared_cache_pins () =
  let layout = layout_for ~size:200 compress in
  let e1 = Engine.create layout in
  let cache = Engine.cache e1 in
  let e2 = Engine.create ~cache layout in
  let h1 = Interp.start layout ~on_block:(Engine.on_block e1) in
  let h2 = Interp.start layout ~on_block:(Engine.on_block e2) in
  let step id h =
    Trace_cache.set_session cache id;
    ignore (Interp.step_blocks h 1)
  in
  let rec both_inside budget =
    if budget = 0 then Alcotest.fail "members never shared a trace"
    else begin
      step 1 h1;
      step 2 h2;
      match (Engine.active_trace e1, Engine.active_trace e2) with
      | Some a, Some b when a == b -> a
      | _ -> both_inside (budget - 1)
    end
  in
  let tr = both_inside 100_000 in
  let first, head = Trace.entry_key tr in
  check Alcotest.int "one pin per member" 2 tr.Trace.pins;
  check Alcotest.bool "pinned" true (Trace_cache.is_pinned cache tr);
  let still_bound () = Trace_cache.peek cache ~first ~head = Some tr in
  (* the test makes these decisions itself, outside both members *)
  let events = Events.create () and counts = Stats.zero () in
  let quarantine () =
    Trace_cache.quarantine cache ~events ~counts ~first ~head ~code:"TL210"
  in
  ignore (Trace_cache.pressure_evict cache ~events ~counts ~down_to:0);
  check Alcotest.bool "eviction skips it" true (still_bound ());
  check Alcotest.bool "quarantine refuses it" true (quarantine () = None);
  check Alcotest.int "refusal counted" 1 counts.Stats.pin_refusals;
  (* member 1 leaves the trace: member 2's pin still protects it *)
  let rec leave id h e =
    step id h;
    match Engine.active_trace e with
    | Some a when a == tr -> leave id h e
    | _ -> ()
  in
  leave 1 h1 e1;
  check Alcotest.int "one pin left" 1 tr.Trace.pins;
  check Alcotest.bool "still pinned" true (Trace_cache.is_pinned cache tr);
  ignore (Trace_cache.pressure_evict cache ~events ~counts ~down_to:0);
  check Alcotest.bool "eviction still skips it" true (still_bound ());
  check Alcotest.bool "quarantine still refuses it" true (quarantine () = None);
  (* a flush leaves the pin to its owner, whose unpin is then harmless *)
  Trace_cache.flush cache;
  check Alcotest.bool "pin survives the flush" true
    (Trace_cache.is_pinned cache tr);
  leave 2 h2 e2;
  check Alcotest.int "unpinned after both left" 0 tr.Trace.pins;
  check Alcotest.int "no trace pinned" 0 (Trace_cache.n_pinned cache);
  Trace_cache.unpin cache tr;
  check Alcotest.int "a stray unpin is a no-op" 0 tr.Trace.pins;
  check Alcotest.int "pinned count unchanged" 0 (Trace_cache.n_pinned cache);
  (* and neither member's result moved *)
  let plain = Interp.run_plain layout in
  List.iter
    (fun h ->
      check fp "bit-identical to plain" (fingerprint plain)
        (fingerprint (Interp.finish h)))
    [ h1; h2 ]

(* --------------------------------------------------------------- *)
(* mid-flight condemnation                                           *)
(* --------------------------------------------------------------- *)

(* Step an engine until it is inside a multi-block trace, corrupt that
   trace's tail (an out-of-range block id: TL210), then run a sweep. *)
let drive_into_corrupted_trace ~osr =
  let layout = layout_for compress in
  let baseline = Interp.run_plain layout in
  let events = Events.create () in
  let reasons = ref [] in
  let _s =
    Events.subscribe events (fun e ->
        match e.Events.payload with
        | Events.Deopt_entered { reason; _ } -> reasons := reason :: !reasons
        | _ -> ())
  in
  let config = Config.make ~debug_checks:true ~self_heal:true ~osr () in
  let eng = Engine.create ~config ~events layout in
  let handle =
    Interp.start layout ~on_block:(fun g -> Engine.on_block eng g)
  in
  Engine.attach eng handle;
  let corrupted = ref false in
  while (not !corrupted) && Interp.running handle do
    ignore (Interp.step_blocks handle 1);
    match Engine.active_trace eng with
    | Some tr when Trace.n_blocks tr >= 2 ->
        tr.Trace.blocks.(Trace.n_blocks tr - 1) <- -1;
        corrupted := true
    | _ -> ()
  done;
  check Alcotest.bool "found an executing trace to condemn" true !corrupted;
  Engine.debug_sweep eng;
  (baseline, eng, handle, reasons)

let test_condemned_cutover () =
  let baseline, eng, handle, reasons = drive_into_corrupted_trace ~osr:true in
  (* the sweep cut the executing trace over mid-flight *)
  check Alcotest.bool "deopted with the condemned reason" true
    (List.mem "condemned" !reasons);
  check Alcotest.bool "no trace active after the cut-over" true
    (Engine.active_trace eng = None);
  let c = Engine.counters eng in
  check Alcotest.bool "deopt counted" true (c.Stats.deopts > 0);
  (* the cut-over unpinned the trace, so the quarantine went through *)
  check Alcotest.int "quarantine not refused" 0 c.Stats.pin_refusals;
  let r = Interp.finish handle in
  check fp "bit-identical after the mid-flight cut-over"
    (fingerprint baseline) (fingerprint r)

let test_condemned_deferred_without_osr () =
  let baseline, eng, handle, reasons = drive_into_corrupted_trace ~osr:false in
  (* no OSR: the executing trace cannot be cut over, and the execution
     pin refuses the quarantine instead of condemning it mid-flight *)
  check Alcotest.(list string) "no deopt without OSR" [] !reasons;
  check Alcotest.bool "trace still executing" true
    (Engine.active_trace eng <> None);
  check Alcotest.bool "quarantine was pin-refused" true
    ((Engine.counters eng).Stats.pin_refusals > 0);
  let r = Interp.finish handle in
  check fp "still bit-identical (pure overlay)" (fingerprint baseline)
    (fingerprint r)

(* --------------------------------------------------------------- *)
(* health ladder under flips                                         *)
(* --------------------------------------------------------------- *)

(* Flips are transparent to the ladder: forcing deopts all run long must
   not demote a fault-free engine (a flip is not a detection), and the
   run ends at full tracing. *)
let test_flips_do_not_degrade () =
  let layout = layout_for compress in
  let config =
    Config.make ~debug_checks:true ~self_heal:true ~osr:true
      ~fault_spec:"guard-flip@1.0,budget=200" ~fault_seed:5 ()
  in
  let result = Engine.run ~config layout in
  let s = result.Engine.run_stats in
  check Alcotest.int "ended at full tracing" 0 s.Stats.final_health;
  check Alcotest.int "no invariant violations" 0 s.Stats.invariant_violations;
  check Alcotest.bool "deopt rate is populated" true
    (s.Stats.deopts = 0 || Stats.deopt_rate s > 0.0)

let () =
  Alcotest.run "osr"
    [
      ( "deopt",
        [
          tc "every position is transparent" `Quick test_deopt_every_position;
          tc "FT008 schedule across workloads" `Quick
            test_flip_schedule_all_workloads;
          tc "event payload is self-consistent" `Quick test_deopt_event_payload;
          tc "residue sum reconciles with stats" `Quick
            test_deopt_residue_reconciles;
          tc "ladder unmoved by flips" `Quick test_flips_do_not_degrade;
        ] );
      ( "materialize",
        [ tc "engine and plain runs agree" `Quick test_materialize_lockstep ] );
      ( "promotion",
        [ tc "mid-loop promotion is transparent" `Quick test_promotion_mid_loop ]
      );
      ( "pinning",
        [
          tc "eviction and quarantine respect pins" `Quick
            test_pinned_trace_protected;
          tc "tier demotion respects pins" `Quick
            test_pinned_trace_keeps_compiled_body;
          tc "shared cache pins are refcounted" `Quick test_shared_cache_pins;
        ] );
      ( "cut-over",
        [
          tc "condemned mid-flight deopts under OSR" `Quick
            test_condemned_cutover;
          tc "deferred without OSR" `Quick test_condemned_deferred_without_osr;
        ] );
    ]
