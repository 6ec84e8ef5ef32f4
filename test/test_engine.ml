(* The full system: semantic transparency, dispatch accounting, trace
   entry/completion bookkeeping, adaptation to phase changes. *)

open Workloads.Dsl
module S = Bytecode.Structured
module Engine = Tracegen.Engine
module Config = Tracegen.Config
module Stats = Tracegen.Stats
module Layout = Cfg.Layout

let tc = Alcotest.test_case
let check = Alcotest.check

let layout_of ?(defs = fun (_ : S.t) -> ()) body =
  let p = S.create () in
  defs p;
  S.def_method p ~name:"main" ~args:[] ~ret:S.I ~body ();
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  Layout.build program

let hot_loop_body =
  [
    decl_i "s" (i 0);
    for_ "k" (i 0) (i 20_000)
      [ set "s" ((v "s" +! v "k") &! i 0xFFFFF) ];
    ret (v "s");
  ]

let test_transparency () =
  (* the engine must not change program results *)
  let layout = layout_of hot_loop_body in
  let plain = Vm.Interp.result_value (Vm.Interp.run_plain layout) in
  let traced = Engine.run layout in
  let traced_value =
    Vm.Interp.result_value traced.Engine.vm_result
  in
  check Alcotest.bool "same result with and without the engine" true
    (plain = traced_value);
  (* and the instruction count is identical: traces are an overlay *)
  let plain_r = Vm.Interp.run_plain layout in
  check Alcotest.int "same instruction count"
    plain_r.Vm.Interp.instructions
    traced.Engine.vm_result.Vm.Interp.instructions

let test_hot_loop_gets_traced () =
  let layout = layout_of hot_loop_body in
  let r = Engine.run layout in
  let s = r.Engine.run_stats in
  check Alcotest.bool "traces were constructed" true
    (s.Stats.traces_constructed > 0);
  check Alcotest.bool "traces were entered" true (s.Stats.traces_entered > 0);
  check Alcotest.bool "high completion rate" true
    (Stats.completion_rate s > 0.95);
  check Alcotest.bool "good coverage on a hot loop" true
    (Stats.coverage_completed s > 0.5);
  (* under trace dispatch, total dispatches shrink well below the
     block-dispatch count of an untraced run *)
  let plain = Vm.Interp.run_plain layout in
  check Alcotest.bool "dispatch reduction" true
    (Stats.total_dispatches s < plain.Vm.Interp.block_dispatches)

let test_profile_only_mode () =
  let layout = layout_of hot_loop_body in
  let config = Config.make ~build_traces:false () in
  let r = Engine.run ~config layout in
  let s = r.Engine.run_stats in
  check Alcotest.int "no traces in profile-only mode" 0
    s.Stats.traces_constructed;
  check Alcotest.int "no trace dispatches" 0 s.Stats.traces_entered;
  check Alcotest.bool "profiling still happened" true (s.Stats.bcg_nodes > 0);
  (* every block dispatch executed the hook *)
  let plain = Vm.Interp.run_plain layout in
  check Alcotest.int "hook on every dispatch"
    plain.Vm.Interp.block_dispatches s.Stats.block_dispatches

let test_coverage_bounds () =
  let layout = layout_of hot_loop_body in
  let s = (Engine.run layout).Engine.run_stats in
  check Alcotest.bool "completed coverage within [0,1]" true
    (Stats.coverage_completed s >= 0.0 && Stats.coverage_completed s <= 1.0);
  check Alcotest.bool "total coverage within [0,1]" true
    (Stats.coverage_total s >= 0.0 && Stats.coverage_total s <= 1.0);
  check Alcotest.bool "total >= completed" true
    (Stats.coverage_total s >= Stats.coverage_completed s)

let test_accounting_identity () =
  (* every executed instruction is either outside traces, or attributed to
     a completed or partial trace: block dispatches carry their block's
     instructions, traces carry theirs *)
  let layout = layout_of hot_loop_body in
  let events = Tracegen.Events.create () in
  let tally = Harness.Oracle.attach events in
  let r = Engine.run ~events layout in
  let s = r.Engine.run_stats in
  let engine = r.Engine.engine in
  let traced = s.Stats.completed_instrs + s.Stats.partial_instrs in
  check Alcotest.bool "traced instructions do not exceed the total" true
    (traced <= s.Stats.instructions);
  check Alcotest.int "entered = completed + partial exits + in flight"
    s.Stats.traces_entered
    (s.Stats.traces_completed
    + List.fold_left
        (fun acc row -> acc + Harness.Oracle.side_exits row)
        0 (Harness.Oracle.traces tally)
    + (match Engine.active_trace engine with Some _ -> 1 | None -> 0))

let test_phase_change_adapts () =
  (* two phases: the same loop skeleton branches differently in each half;
     the cache must follow (replacements or new traces in phase 2) *)
  let body =
    [
      decl_i "s" (i 0);
      for_ "k" (i 0) (i 40_000)
        [
          if_
            (v "k" <! i 20_000)
            [ set "s" ((v "s" +! v "k") &! i 0xFFFFF) ]
            [ set "s" ((v "s" *! i 3 +! i 1) &! i 0xFFFFF) ];
        ];
      ret (v "s");
    ]
  in
  let layout = layout_of body in
  let r = Engine.run layout in
  let s = r.Engine.run_stats in
  check Alcotest.bool "phase change produced signals" true (s.Stats.signals > 1);
  check Alcotest.bool "still good total coverage across phases" true
    (Stats.coverage_total s > 0.5);
  check Alcotest.bool "completion stays high after adaptation" true
    (Stats.completion_rate s > 0.8)

let test_partial_exits_on_noise () =
  (* an unpredictable branch inside the hot loop forces side exits *)
  let defs p = Workloads.Dsl.define_prelude p in
  let body =
    [
      decl "st" (S.Arr S.I) (new_arr S.I (i 1));
      seti (v "st") (i 0) (i 42);
      decl_i "s" (i 0);
      for_ "k" (i 0) (i 8_000)
        [
          if_
            (call "rng_range" [ v "st"; i 2 ] =! i 0)
            [ set "s" (v "s" +! i 1) ]
            [ set "s" (v "s" +! i 2) ];
        ];
      ret (v "s");
    ]
  in
  let layout = layout_of ~defs body in
  let r = Engine.run layout in
  let s = r.Engine.run_stats in
  (* with a 50/50 branch the engine either avoids traces there (fine) or
     pays partial exits; either way transparency and bounds must hold *)
  check Alcotest.bool "bounded coverage" true (Stats.coverage_total s <= 1.0);
  check Alcotest.bool "completion rate sane" true
    (Stats.completion_rate s >= 0.0 && Stats.completion_rate s <= 1.0)

let test_dispatch_per_signal_metric () =
  let layout = layout_of hot_loop_body in
  let s = (Engine.run layout).Engine.run_stats in
  if s.Stats.signals > 0 then
    check Alcotest.bool "dispatches per signal positive" true
      (Stats.dispatches_per_signal s > 0.0);
  check Alcotest.bool "trace event interval positive" true
    (Stats.trace_event_interval s > 0.0)

let test_deterministic_stats () =
  let layout = layout_of hot_loop_body in
  let a = (Engine.run layout).Engine.run_stats in
  let b = (Engine.run layout).Engine.run_stats in
  check Alcotest.int "same signals" a.Stats.signals b.Stats.signals;
  check Alcotest.int "same traces" a.Stats.traces_constructed
    b.Stats.traces_constructed;
  check Alcotest.int "same completions" a.Stats.traces_completed
    b.Stats.traces_completed

(* Every out-of-range threshold is refused at construction, NaN too: it
   fails every comparison, so a range test written as "reject when
   outside" would let it through. *)
let test_threshold_validated () =
  List.iter
    (fun threshold ->
      match Config.make ~threshold () with
      | _ -> Alcotest.failf "threshold %g accepted" threshold
      | exception Invalid_argument _ -> ())
    [ Float.nan; 0.0; -0.5; 1.5; Float.infinity ];
  check (Alcotest.float 0.0) "1.0 accepted" 1.0
    (Config.threshold (Config.make ~threshold:1.0 ()))

let () =
  Alcotest.run "engine"
    [
      ( "transparency",
        [
          tc "results unchanged" `Quick test_transparency;
          tc "profile-only mode" `Quick test_profile_only_mode;
          tc "deterministic" `Quick test_deterministic_stats;
        ] );
      ( "tracing",
        [
          tc "hot loop traced" `Quick test_hot_loop_gets_traced;
          tc "coverage bounds" `Quick test_coverage_bounds;
          tc "accounting identity" `Quick test_accounting_identity;
          tc "phase change" `Quick test_phase_change_adapts;
          tc "noisy branch" `Quick test_partial_exits_on_noise;
          tc "signal metrics" `Quick test_dispatch_per_signal_metric;
        ] );
      ("config", [ tc "threshold validated" `Quick test_threshold_validated ]);
    ]
