(* The compiled micro-IR tier (Tracegen.Microir / Tier, armed inside
   trace dispatch by Config.tier_enabled):

   - lowering round-trips on every workload: each compiled body passes
     the structural check against its trace's block sequence and
     re-derivation (TL220 clean), and the tiered run stays bit-identical
     to pure interpretation;
   - per-position accounting is internally consistent (segment starts
     monotone, per-position columns sum to the body totals) and fusion
     actually fires (superinstructions present, counted exactly);
   - a seeded miscompilation is caught by TL220;
   - deopt from the compiled tier is transparent (tier + OSR under a
     guard-flip schedule);
   - the cost model promotes exactly at the compile_after edge, demotes
     the strictly colder trace when the budget is full, refuses to
     thrash between equally hot traces, and never demotes a pinned
     (executing) trace out from under its dispatch loop. *)

module Config = Tracegen.Config
module Engine = Tracegen.Engine
module Events = Tracegen.Events
module Microir = Tracegen.Microir
module Stats = Tracegen.Stats
module Tier = Tracegen.Tier
module Trace = Tracegen.Trace
module Trace_cache = Tracegen.Trace_cache
module Interp = Vm.Interp

(* Cache decisions made outside any engine go to a stream and counters
   nobody reads. *)
let install cache ~first ~blocks ~prob =
  match
    Trace_cache.try_install cache ~events:(Events.create ())
      ~counts:(Stats.zero ()) ~first ~blocks ~prob
  with
  | Trace_cache.Built tr | Trace_cache.Reused tr -> tr
  | Trace_cache.Refused -> Alcotest.fail "installation refused"

let tc = Alcotest.test_case
let check = Alcotest.check
let fp = Alcotest.(triple string int int)
let fingerprint = Harness.Chaos.fingerprint

let compress = Workloads.Compress.workload

let layout_for ?(size = 300) w = Harness.Experiment.layout_for w ~size

(* a tiered engine run with a low promotion bar, so small test layouts
   still reach the compiled tier *)
let run_tiered ?(compile_after = 4) ?events layout =
  let config = Config.make ~tier:true ~tier_compile_after:compile_after () in
  Engine.run ~config ?events layout

(* events, stats and the decision ledger must agree even when dispatch
   ran through the compiled tier — the tier is where attribution is
   easiest to lose *)
let assert_reconciled tally (r : Engine.run_result) =
  List.iter
    (fun (c : Harness.Oracle.check) ->
      check Alcotest.int
        (Printf.sprintf "oracle: %s" c.Harness.Oracle.name)
        c.Harness.Oracle.want c.Harness.Oracle.got)
    (Harness.Oracle.run_checks tally ~engine:r.Engine.engine
       r.Engine.run_stats)

let compiled_traces engine =
  let acc = ref [] in
  Trace_cache.iter (Engine.cache engine) (fun tr ->
      if tr.Trace.lowered <> None then acc := tr :: !acc);
  !acc

(* --------------------------------------------------------------- *)
(* lowering round trip                                               *)
(* --------------------------------------------------------------- *)

let test_roundtrip_all_workloads () =
  let total_compiled = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let name = w.Workloads.Workload.name in
      let layout =
        layout_for ~size:w.Workloads.Workload.default_size w
      in
      let baseline = Interp.run_plain ~max_instructions:200_000 layout in
      let config = Config.make ~tier:true ~tier_compile_after:4 () in
      let r = Engine.run ~config ~max_instructions:200_000 layout in
      check fp (name ^ " bit-identical with the tier armed")
        (fingerprint baseline)
        (fingerprint r.Engine.vm_result);
      let engine = r.Engine.engine in
      List.iter
        (fun tr ->
          incr total_compiled;
          (match Tier.check_lowered ~context:name layout tr with
          | [] -> ()
          | diags ->
              Alcotest.failf "%s: trace %d failed TL220: %s" name tr.Trace.id
                (Analysis.Diag.to_string (List.hd diags)));
          match tr.Trace.lowered with
          | None -> assert false
          | Some body ->
              check
                Alcotest.(list string)
                (Printf.sprintf "%s: trace %d structurally sound" name
                   tr.Trace.id)
                []
                (Microir.check ~expect:tr.Trace.blocks body))
        (compiled_traces engine);
      check Alcotest.int (name ^ " stats agree with the cache")
        (Trace_cache.n_compiled (Engine.cache engine))
        (List.length (compiled_traces engine)))
    Workloads.Registry.all;
  check Alcotest.bool "the sweep compiled somewhere" true (!total_compiled > 0)

(* Per-position accounting: segment starts monotone, one segment per
   trace position, and the per-position columns sum to the body totals. *)
let test_accounting_identities () =
  let layout = layout_for compress in
  let r = run_tiered layout in
  let bodies = compiled_traces r.Engine.engine in
  check Alcotest.bool "compress compiled some traces" true (bodies <> []);
  List.iter
    (fun tr ->
      match tr.Trace.lowered with
      | None -> assert false
      | Some body ->
          let sum a = Array.fold_left ( + ) 0 a in
          check Alcotest.int "one segment per trace position"
            (Trace.n_blocks tr)
            (Microir.n_positions body);
          check Alcotest.int "pos_ops sums to the op count"
            (Microir.n_ops body) (sum body.Microir.pos_ops);
          check Alcotest.int "pos_src sums to the source instrs"
            body.Microir.src_instrs (sum body.Microir.pos_src);
          check Alcotest.int "pos_fused sums to the fusion count"
            body.Microir.fused (sum body.Microir.pos_fused);
          Array.iteri
            (fun i s ->
              if i > 0 then
                check Alcotest.bool "segment starts monotone" true
                  (s >= body.Microir.block_start.(i - 1)))
            body.Microir.block_start)
    bodies

(* --------------------------------------------------------------- *)
(* fusion                                                            *)
(* --------------------------------------------------------------- *)

let test_fusion_fires () =
  let layout = layout_for compress in
  let r = run_tiered layout in
  let bodies = compiled_traces r.Engine.engine in
  let fused_ops body =
    Array.fold_left
      (fun n op -> if Microir.is_fused op then n + 1 else n)
      0 body.Microir.ops
  in
  (* the fused counter counts exactly the superinstructions present *)
  List.iter
    (fun tr ->
      match tr.Trace.lowered with
      | None -> assert false
      | Some body ->
          check Alcotest.int "fused counter matches the op stream"
            (fused_ops body) body.Microir.fused)
    bodies;
  (* and fusion actually fires on a compare-heavy workload: some body
     ends a position in a fused compare+guard *)
  let any_cmp_guard =
    List.exists
      (fun tr ->
        match tr.Trace.lowered with
        | None -> false
        | Some body ->
            Array.exists
              (function
                | Microir.Cmp_guard _ | Microir.Cmpz_guard _ -> true
                | _ -> false)
              body.Microir.ops)
      bodies
  in
  check Alcotest.bool "a compare+guard superinstruction formed" true
    any_cmp_guard;
  (* a compiled body is cheaper to dispatch than the bytecode it
     replaces: micro-ops strictly below source instructions somewhere *)
  check Alcotest.bool "lowering shrank some body" true
    (List.exists
       (fun tr ->
         match tr.Trace.lowered with
         | None -> false
         | Some body -> Microir.n_ops body < body.Microir.src_instrs)
       bodies)

(* --------------------------------------------------------------- *)
(* TL220 on a seeded miscompilation                                  *)
(* --------------------------------------------------------------- *)

let test_tl220_catches_miscompilation () =
  let layout = layout_for compress in
  let r = run_tiered layout in
  match compiled_traces r.Engine.engine with
  | [] -> Alcotest.fail "no compiled trace to corrupt"
  | tr :: _ ->
      check Alcotest.(list string) "clean before corruption" []
        (List.map Analysis.Diag.to_string (Tier.check_lowered layout tr));
      (* drop the last op: the re-derivation can no longer match *)
      (match tr.Trace.lowered with
      | None -> assert false
      | Some body ->
          tr.Trace.lowered <-
            Some
              {
                body with
                Microir.ops =
                  Array.sub body.Microir.ops 0
                    (Array.length body.Microir.ops - 1);
              });
      let diags = Tier.check_lowered layout tr in
      check Alcotest.bool "TL220 fired" true
        (List.exists (fun d -> d.Analysis.Diag.code = "TL220") diags)

(* --------------------------------------------------------------- *)
(* deopt from the compiled tier                                      *)
(* --------------------------------------------------------------- *)

let test_deopt_from_compiled_tier () =
  let layout = layout_for compress in
  let baseline = Interp.run_plain layout in
  let config =
    Config.make ~debug_checks:true ~self_heal:true ~tier:true
      ~tier_compile_after:4 ~osr:true ~fault_spec:"guard-flip@0.5,budget=400"
      ~fault_seed:7 ()
  in
  let events = Events.create () in
  let tally = Harness.Oracle.attach events in
  let r = Engine.run ~config ~events layout in
  check fp "bit-identical under flips from the compiled tier"
    (fingerprint baseline)
    (fingerprint r.Engine.vm_result);
  let s = r.Engine.run_stats in
  check Alcotest.bool "traces were dispatched compiled" true
    (s.Stats.compiled_entries > 0);
  check Alcotest.bool "the schedule actually deopted" true (s.Stats.deopts > 0);
  check Alcotest.int "every deopt materialized state (no TL219)" 0
    s.Stats.osr_state_mismatches;
  (* the fault schedule must not desynchronize the three views *)
  assert_reconciled tally r

(* tier off vs on: same dispatch stream, and the stats overlay accounts
   micro-ops strictly below the source instructions they replaced *)
let test_tier_is_pure_overlay () =
  let layout = layout_for ~size:400 compress in
  let off = Engine.run layout in
  let events = Events.create () in
  let tally = Harness.Oracle.attach events in
  let on = run_tiered ~events layout in
  check fp "tier on/off fingerprints equal"
    (fingerprint off.Engine.vm_result)
    (fingerprint on.Engine.vm_result);
  let s_off = off.Engine.run_stats and s_on = on.Engine.run_stats in
  check Alcotest.int "identical dispatch totals"
    (Stats.total_dispatches s_off)
    (Stats.total_dispatches s_on);
  check Alcotest.bool "compiled positions accounted" true
    (s_on.Stats.mi_positions > 0);
  check Alcotest.bool "micro-ops below replaced source instrs" true
    (s_on.Stats.mi_ops < s_on.Stats.mi_src_instrs);
  check Alcotest.bool "fusion accounted" true (s_on.Stats.mi_fused > 0);
  check Alcotest.int "tier off never compiles" 0 s_off.Stats.traces_compiled;
  assert_reconciled tally on

(* --------------------------------------------------------------- *)
(* cost model                                                        *)
(* --------------------------------------------------------------- *)

let heat cache (tr : Trace.t) n =
  for _ = 1 to n do
    ignore
      (Trace_cache.lookup cache ~prev:tr.Trace.first ~cur:tr.Trace.blocks.(0))
  done

let test_promotion_edge () =
  let layout = layout_for ~size:200 compress in
  let cache = Trace_cache.create layout in
  let config = Config.make ~tier:true ~tier_compile_after:4 () in
  let events = Events.create () in
  let tr = install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  (* install stamps one use; stay strictly below the bar *)
  heat cache tr 2;
  check Alcotest.(pair int int) "below the bar: no compile" (0, 0)
    (Tier.maybe_compile config layout cache ~events tr);
  check Alcotest.bool "still interpreted" true (tr.Trace.lowered = None);
  heat cache tr 1;
  check Alcotest.(pair int int) "at the bar: compiled" (1, 0)
    (Tier.maybe_compile config layout cache ~events tr);
  check Alcotest.bool "holds a lowered body" true (tr.Trace.lowered <> None);
  check Alcotest.(pair int int) "already compiled: idempotent" (0, 0)
    (Tier.maybe_compile config layout cache ~events tr);
  (* the tier off is a hard gate regardless of heat *)
  let cold_config = Config.make () in
  let tr2 = install cache ~first:3 ~blocks:[| 4; 5 |] ~prob:1.0 in
  heat cache tr2 100;
  check Alcotest.(pair int int) "tier off: no compile" (0, 0)
    (Tier.maybe_compile cold_config layout cache ~events tr2)

let test_budget_demotion () =
  let layout = layout_for ~size:200 compress in
  let cache = Trace_cache.create layout in
  let config =
    Config.make ~tier:true ~tier_compile_after:4 ~tier_compile_budget:1 ()
  in
  let events = Events.create () in
  let a = install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  heat cache a 9;
  check Alcotest.(pair int int) "A compiled into the only slot" (1, 0)
    (Tier.maybe_compile config layout cache ~events a);
  (* an equally hot candidate must not thrash the slot *)
  let b = install cache ~first:3 ~blocks:[| 4; 5 |] ~prob:1.0 in
  heat cache b (Trace_cache.trace_uses cache a - 1);
  check Alcotest.(pair int int) "equal heat: no thrash" (0, 0)
    (Tier.maybe_compile config layout cache ~events b);
  check Alcotest.bool "A keeps its body" true (a.Trace.lowered <> None);
  (* strictly hotter: A is demoted, B takes the slot *)
  heat cache b 20;
  check Alcotest.(pair int int) "hotter candidate demotes the coldest" (1, 1)
    (Tier.maybe_compile config layout cache ~events b);
  check Alcotest.bool "B compiled" true (b.Trace.lowered <> None);
  check Alcotest.bool "A demoted" true (a.Trace.lowered = None);
  check Alcotest.int "one compiled slot in use" 1 (Trace_cache.n_compiled cache)

let test_pin_blocks_demotion () =
  let layout = layout_for ~size:200 compress in
  let cache = Trace_cache.create layout in
  let config =
    Config.make ~tier:true ~tier_compile_after:4 ~tier_compile_budget:1 ()
  in
  let events = Events.create () in
  let a = install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  heat cache a 9;
  ignore (Tier.maybe_compile config layout cache ~events a);
  check Alcotest.bool "A compiled" true (a.Trace.lowered <> None);
  (* the dispatch loop is following A's micro-IR: demotion must refuse *)
  Trace_cache.pin cache a;
  check Alcotest.bool "direct demotion refused while pinned" false
    (Trace_cache.demote_lowered cache a);
  check Alcotest.bool "body retained" true (a.Trace.lowered <> None);
  check Alcotest.int "refusal counted" 1 (Trace_cache.n_demote_refusals cache);
  (* a hotter candidate cannot claim the slot either: the pinned trace
     is not a victim, so the budget stays full and B stays interpreted *)
  let b = install cache ~first:3 ~blocks:[| 4; 5 |] ~prob:1.0 in
  heat cache b 50;
  check Alcotest.(pair int int) "budget full behind a pin: no compile" (0, 0)
    (Tier.maybe_compile config layout cache ~events b);
  check Alcotest.bool "B interpreted" true (b.Trace.lowered = None);
  (* once A exits, the same entry decision goes through *)
  Trace_cache.unpin cache a;
  check Alcotest.(pair int int) "after unpin the promotion lands" (1, 1)
    (Tier.maybe_compile config layout cache ~events b);
  check Alcotest.bool "A demoted after unpin" true (a.Trace.lowered = None);
  check Alcotest.bool "B compiled after unpin" true (b.Trace.lowered <> None)

let () =
  Alcotest.run "microir"
    [
      ( "lowering",
        [
          tc "round trip on every workload" `Quick test_roundtrip_all_workloads;
          tc "per-position accounting is consistent" `Quick
            test_accounting_identities;
        ] );
      ( "fusion",
        [ tc "superinstructions form and are counted" `Quick test_fusion_fires ]
      );
      ( "validation",
        [
          tc "TL220 catches a seeded miscompilation" `Quick
            test_tl220_catches_miscompilation;
        ] );
      ( "transparency",
        [
          tc "deopt from the compiled tier" `Quick test_deopt_from_compiled_tier;
          tc "tier on/off is a pure overlay" `Quick test_tier_is_pure_overlay;
        ] );
      ( "cost model",
        [
          tc "promotion at the compile_after edge" `Quick test_promotion_edge;
          tc "budget demotion prefers the coldest" `Quick test_budget_demotion;
          tc "pins block demotion" `Quick test_pin_blocks_demotion;
        ] );
    ]
