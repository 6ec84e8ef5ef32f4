(* Failure injection: runtime errors taken mid-trace must leave the engine
   and its statistics consistent, and trace linking must behave. *)

open Workloads.Dsl
module S = Bytecode.Structured
module Engine = Tracegen.Engine
module Stats = Tracegen.Stats
module Interp = Vm.Interp

let tc = Alcotest.test_case
let check = Alcotest.check

let layout_of body =
  let p = S.create () in
  S.def_method p ~name:"main" ~args:[] ~ret:S.I ~body ();
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  Cfg.Layout.build program

(* a hot loop that indexes out of bounds after 20k clean iterations: by
   then the loop body is cached as a trace, so the trap fires while a
   trace is active *)
let trapping_body =
  [
    decl "a" (S.Arr S.I) (new_arr S.I (i 10));
    decl_i "s" (i 0);
    for_ "k" (i 0) (i 30_000)
      [
        decl_i "idx" (i 0);
        when_ (v "k" =! i 20_000) [ set "idx" (i 999) ];
        set "s" ((v "s" +! (v "a" @. v "idx") +! v "k") &! i 0xFFFFF);
      ];
    ret (v "s");
  ]

let test_trap_mid_trace () =
  let layout = layout_of trapping_body in
  let events = Tracegen.Events.create () in
  let tally = Harness.Oracle.attach events in
  let r = Engine.run ~events layout in
  (match r.Engine.vm_result.Interp.outcome with
  | Interp.Trapped (Interp.Array_bounds, _) -> ()
  | Interp.Trapped (k, m) ->
      Alcotest.failf "wrong trap %s (%s)" (Interp.error_kind_to_string k) m
  | Interp.Finished _ -> Alcotest.fail "expected a trap");
  let s = r.Engine.run_stats in
  (* the system was in full flight when the program died *)
  check Alcotest.bool "traces were running before the trap" true
    (s.Stats.traces_completed > 1000);
  (* accounting still balances: completed + partial + (possibly one
     in-flight trace) = entered *)
  let partials =
    List.fold_left
      (fun acc row -> acc + Harness.Oracle.side_exits row)
      0 (Harness.Oracle.traces tally)
  in
  let in_flight =
    match Engine.active_trace r.Engine.engine with Some _ -> 1 | None -> 0
  in
  check Alcotest.int "entered = completed + partial + in-flight"
    s.Stats.traces_entered
    (s.Stats.traces_completed + partials + in_flight);
  check Alcotest.bool "coverage still bounded" true
    (Stats.coverage_total s <= 1.0)

let test_trap_instructions_counted () =
  (* instruction counts with and without the engine agree even for a
     trapping program *)
  let layout = layout_of trapping_body in
  let plain = Interp.run_plain layout in
  let traced = (Engine.run layout).Engine.vm_result in
  check Alcotest.int "same instruction count at the trap"
    plain.Interp.instructions traced.Interp.instructions

let test_budget_mid_trace () =
  let layout =
    layout_of
      [
        decl_i "s" (i 0);
        while_ (i 1 =! i 1) [ set "s" ((v "s" +! i 1) &! i 0xFFFF) ];
        ret (v "s");
      ]
  in
  let r = Engine.run ~max_instructions:100_000 layout in
  (match r.Engine.vm_result.Interp.outcome with
  | Interp.Trapped (Interp.Instruction_budget, _) -> ()
  | _ -> Alcotest.fail "expected budget trap");
  check Alcotest.bool "the loop was being traced when the budget hit" true
    (r.Engine.run_stats.Stats.traces_completed > 0)

let test_linking_rate () =
  (* nested loops: inner-loop traces chain into each other and into the
     outer loop's traces *)
  let layout =
    layout_of
      [
        decl_i "s" (i 0);
        for_ "a" (i 0) (i 300)
          [ for_ "b" (i 0) (i 50) [ set "s" ((v "s" +! v "b") &! i 0xFFFF) ] ];
        ret (v "s");
      ]
  in
  let s = (Engine.run layout).Engine.run_stats in
  check Alcotest.bool
    (Printf.sprintf "high linking rate on nested loops (%.2f)"
       (Stats.linking_rate s))
    true
    (Stats.linking_rate s > 0.8);
  check Alcotest.bool "chained subset of entered" true
    (s.Stats.chained_entries <= s.Stats.traces_entered)

let test_no_traces_no_linking () =
  let layout =
    layout_of
      [
        decl_i "s" (i 0);
        for_ "k" (i 0) (i 1000) [ set "s" (v "s" +! v "k") ];
        ret (v "s");
      ]
  in
  let config = Tracegen.Config.make ~build_traces:false () in
  let s = (Engine.run ~config layout).Engine.run_stats in
  check Alcotest.int "no chaining without traces" 0 s.Stats.chained_entries

let () =
  Alcotest.run "failure_injection"
    [
      ( "traps",
        [
          tc "trap mid-trace" `Quick test_trap_mid_trace;
          tc "instruction counts agree" `Quick test_trap_instructions_counted;
          tc "budget mid-trace" `Quick test_budget_mid_trace;
        ] );
      ( "linking",
        [
          tc "linking rate" `Quick test_linking_rate;
          tc "no traces, no links" `Quick test_no_traces_no_linking;
        ] );
    ]
