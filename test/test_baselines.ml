(* The comparison trace selectors: NET (Dynamo) and frame construction
   (rePLay). *)

open Workloads.Dsl
module S = Bytecode.Structured
module Layout = Cfg.Layout
module Net = Baselines.Net
module Replay = Baselines.Replay_frames
module Stats = Tracegen.Stats

let tc = Alcotest.test_case
let check = Alcotest.check

let layout_of ?(defs = fun (_ : S.t) -> ()) body =
  let p = S.create () in
  defs p;
  S.def_method p ~name:"main" ~args:[] ~ret:S.I ~body ();
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  Layout.build program

let hot_loop =
  [
    decl_i "s" (i 0);
    for_ "k" (i 0) (i 10_000) [ set "s" ((v "s" +! v "k") &! i 0xFFFFF) ];
    ret (v "s");
  ]

let test_net_hot_loop () =
  let layout = layout_of hot_loop in
  let s = Net.run layout in
  check Alcotest.bool "net builds traces on a hot loop" true
    (s.Stats.traces_constructed > 0);
  check Alcotest.bool "net traces get entered" true
    (s.Stats.traces_entered > 0);
  check Alcotest.bool "net coverage substantial" true
    (Stats.coverage_completed s > 0.3);
  check Alcotest.bool "net completion high on a pure loop" true
    (Stats.completion_rate s > 0.9)

let test_net_threshold () =
  (* below the hot threshold nothing is recorded *)
  let small =
    [
      decl_i "s" (i 0);
      for_ "k" (i 0) (i 20) [ set "s" (v "s" +! v "k") ];
      ret (v "s");
    ]
  in
  let layout = layout_of small in
  let s = Net.run ~config:{ Net.default_config with Net.hot_threshold = 100 } layout in
  check Alcotest.int "cold loop builds nothing" 0 s.Stats.traces_constructed

let test_net_length_cap () =
  let layout = layout_of hot_loop in
  let s =
    Net.run ~config:{ Net.default_config with Net.max_blocks = 3 } layout
  in
  check Alcotest.bool "respects cap (avg length)" true
    (Stats.dynamic_trace_length s <= 3.0 +. 1e-9);
  check Alcotest.bool "still builds" true (s.Stats.traces_constructed > 0)

let test_replay_promotion () =
  let layout = layout_of hot_loop in
  let t = Replay.create layout in
  let r = Vm.Interp.run layout ~on_block:(fun g -> Replay.on_block t g) in
  let s = Replay.stats t ~instructions:r.Vm.Interp.instructions in
  check Alcotest.bool "branches got promoted" true (t.Replay.promotions > 0);
  check Alcotest.bool "frames were built" true (s.Stats.traces_constructed > 0);
  check Alcotest.bool "frames complete on a biased loop" true
    (Stats.completion_rate s > 0.9)

let test_replay_no_promotion_on_noise () =
  (* a 50/50 branch under a 6-bit history never reaches 32 consecutive
     outcomes except by astronomically unlikely accident with our rng *)
  let defs p = define_prelude p in
  let body =
    [
      decl "st" (S.Arr S.I) (new_arr S.I (i 1));
      seti (v "st") (i 0) (i 7);
      decl_i "s" (i 0);
      for_ "k" (i 0) (i 4_000)
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
  let t = Replay.create layout in
  let r = Vm.Interp.run layout ~on_block:(fun g -> Replay.on_block t g) in
  let s = Replay.stats t ~instructions:r.Vm.Interp.instructions in
  (* the loop back-edge branch still promotes; the noisy branch inside
     must keep overall completion below a pure-loop's level or frames
     stay short *)
  check Alcotest.bool "summary sane" true
    (Stats.completion_rate s >= 0.0 && Stats.completion_rate s <= 1.0);
  check Alcotest.bool "demotions observed under noise" true
    (t.Replay.demotions > 0 || t.Replay.promotions = 0)

let test_replay_capped_recording_counts () =
  (* [main]'s one block ends in a return, so every transition fed is
     asserted: the first block opens a recording, and the third, at the
     length cap, closes it into a frame.  No frame is entered, so every
     block fed is a block dispatch, the one that closes the frame too. *)
  let layout = layout_of [ ret (i 0) ] in
  let g = Layout.entry_gid layout in
  let max_blocks = 3 in
  let t =
    Replay.create ~config:{ Replay.default_config with Replay.max_blocks }
      layout
  in
  for _ = 1 to max_blocks do
    Replay.on_block t g
  done;
  let s = Replay.stats t ~instructions:0 in
  check Alcotest.int "a frame was built" 1 s.Stats.traces_constructed;
  check Alcotest.int "no frame entered" 0 s.Stats.traces_entered;
  check Alcotest.int "every block fed is dispatched" max_blocks
    (Stats.total_dispatches s)

let test_summaries_on_workloads () =
  List.iter
    (fun w ->
      let size = max 1 (w.Workloads.Workload.default_size / 4) in
      let layout = Layout.build (w.Workloads.Workload.build ~size) in
      let n = Net.run layout in
      let r = Replay.run layout in
      List.iter
        (fun (system, s) ->
          check Alcotest.bool
            (Printf.sprintf "%s/%s coverage in [0,1]"
               w.Workloads.Workload.name system)
            true
            (Stats.coverage_total s >= 0.0 && Stats.coverage_total s <= 1.0);
          check Alcotest.bool "completed <= entered" true
            (s.Stats.traces_completed <= s.Stats.traces_entered))
        [ ("net", n); ("replay", r) ])
    Workloads.Registry.all

let test_bcg_beats_baselines_on_completion () =
  (* the paper's core claim: bounding expected completion probability gives
     higher completion rates than NET's record-what-follows *)
  let w = Workloads.Javacish.workload in
  let layout = Layout.build (w.Workloads.Workload.build ~size:150) in
  let bcg = (Tracegen.Engine.run layout).Tracegen.Engine.run_stats in
  let net = Net.run layout in
  check Alcotest.bool
    (Printf.sprintf "bcg completion (%.2f) > net completion (%.2f)"
       (Stats.completion_rate bcg)
       (Stats.completion_rate net))
    true
    (Stats.completion_rate bcg > Stats.completion_rate net)

let () =
  Alcotest.run "baselines"
    [
      ( "net",
        [
          tc "hot loop" `Quick test_net_hot_loop;
          tc "hot threshold" `Quick test_net_threshold;
          tc "length cap" `Quick test_net_length_cap;
        ] );
      ( "replay",
        [
          tc "promotion and frames" `Quick test_replay_promotion;
          tc "noise resists promotion" `Quick test_replay_no_promotion_on_noise;
          tc "a capped recording counts its last block" `Quick
            test_replay_capped_recording_counts;
        ] );
      ( "comparison",
        [
          tc "summaries on workloads" `Slow test_summaries_on_workloads;
          tc "bcg beats net on completion" `Slow
            test_bcg_beats_baselines_on_completion;
        ] );
    ]
