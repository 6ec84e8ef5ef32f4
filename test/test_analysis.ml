(* The dataflow framework and the analyses built on it: the worklist
   solver on hand-built graphs (loops, unreachable nodes, both
   directions), liveness and its dead-store report, constant/interval
   propagation and its findings, loop nesting, and the program linter's
   diagnostic codes. *)

module B = Bytecode.Builder
module Instr = Bytecode.Instr
module Mthd = Bytecode.Mthd
module Method_cfg = Cfg.Method_cfg
module Dataflow = Analysis.Dataflow
module Liveness = Analysis.Liveness
module Constprop = Analysis.Constprop
module Loops = Analysis.Loops
module Lint = Analysis.Lint
module Diag = Analysis.Diag

(* the linter at the trace builder's own length cap, as `repro_cli lint`
   runs it *)
let lint = Lint.lint_program ~max_trace_blocks:Tracegen.Config.max_trace_blocks

let tc = Alcotest.test_case
let check = Alcotest.check

(* --------------------------------------------------------------- *)
(* helpers                                                           *)
(* --------------------------------------------------------------- *)

let main_program ?(returns = Mthd.Rint) ?(n_locals = 4) build =
  let b = B.create () in
  let m = B.begin_method b ~name:"main" ~returns ~n_args:0 ~n_locals () in
  build m;
  B.finish_method m;
  B.link b ~entry:"main"

let main_cfg ?returns ?n_locals build =
  let p = main_program ?returns ?n_locals build in
  (p, Method_cfg.build (Bytecode.Program.entry_method p))

let codes diags = List.map (fun d -> d.Diag.code) diags

let has_code c diags = List.mem c (codes diags)

(* --------------------------------------------------------------- *)
(* the worklist solver on hand-built graphs                          *)
(* --------------------------------------------------------------- *)

module Bool_lat = struct
  type t = bool

  let bottom = false
  let equal = Bool.equal
  let join = ( || )
  let pp ppf b = Format.fprintf ppf "%b" b
end

module Bool_flow = Dataflow.Make (Bool_lat)

(* 0 -> 1 -> 2 -> 1 (loop), 3 isolated: propagation from the entry must
   saturate the loop and leave the isolated node at bottom.  The identity
   transfer is strict, so "unreached" is observable as [false]. *)
let test_solver_forward_loop () =
  let succs = function 0 -> [ 1 ] | 1 -> [ 2 ] | 2 -> [ 1 ] | _ -> [] in
  let preds = function 1 -> [ 0; 2 ] | 2 -> [ 1 ] | _ -> [] in
  let r =
    Bool_flow.solve ~direction:Dataflow.Forward ~n_blocks:4 ~succs ~preds
      ~entries:[ (0, true) ]
      ~transfer:(fun _ x -> x)
  in
  check Alcotest.(list bool) "reached" [ true; true; true; false ]
    (Array.to_list r.Bool_flow.output);
  check Alcotest.bool "did some work" true (r.Bool_flow.iterations >= 4)

let test_solver_backward () =
  (* 0 -> 1 -> 2; backwards from the exit everything is reached, but a
     node with no path to the exit (3 -> 3) stays at bottom *)
  let succs = function 0 -> [ 1 ] | 1 -> [ 2 ] | 3 -> [ 3 ] | _ -> [] in
  let preds = function 1 -> [ 0 ] | 2 -> [ 1 ] | 3 -> [ 3 ] | _ -> [] in
  let r =
    Bool_flow.solve ~direction:Dataflow.Backward ~n_blocks:4 ~succs ~preds
      ~entries:[ (2, true) ]
      ~transfer:(fun _ x -> x)
  in
  check Alcotest.(list bool) "exit-reaching" [ true; true; true; false ]
    (Array.to_list r.Bool_flow.output)

module Count_lat = struct
  type t = int

  let bottom = 0
  let equal = Int.equal
  let join = max
  let pp ppf n = Format.fprintf ppf "%d" n
end

module Count_flow = Dataflow.Make (Count_lat)

(* A capped counting transfer around a 2-cycle: the fixpoint must reach
   the cap (monotone ascent terminates at the lattice's finite height)
   and input/output must stay consistent at the fixpoint. *)
let test_solver_terminates_on_cycle () =
  let succs = function 0 -> [ 1 ] | 1 -> [ 0 ] | _ -> [] in
  let preds = succs in
  let transfer _ x = min 10 (x + 1) in
  let r =
    Count_flow.solve ~direction:Dataflow.Forward ~n_blocks:2 ~succs ~preds
      ~entries:[ (0, 0) ] ~transfer
  in
  check Alcotest.int "cap reached (0)" 10 r.Count_flow.output.(0);
  check Alcotest.int "cap reached (1)" 10 r.Count_flow.output.(1);
  Array.iteri
    (fun b input ->
      check Alcotest.int "output = transfer input" (transfer b input)
        r.Count_flow.output.(b))
    r.Count_flow.input

(* --------------------------------------------------------------- *)
(* liveness                                                          *)
(* --------------------------------------------------------------- *)

let test_liveness_dead_store () =
  let _, cfg =
    main_cfg (fun m ->
        B.iconst m 1;
        B.i m (Instr.Istore 0);
        (* dead: overwritten below, never read *)
        B.iconst m 2;
        B.i m (Instr.Istore 0);
        B.i m (Instr.Iload 0);
        B.i m Instr.Ireturn)
  in
  let live = Liveness.compute cfg in
  match Liveness.dead_stores live with
  | [ d ] ->
      check Alcotest.int "dead store pc" 1 d.Liveness.pc;
      check Alcotest.int "dead store slot" 0 d.Liveness.slot
  | ds -> Alcotest.failf "expected exactly one dead store, got %d" (List.length ds)

(* a loop-carried accumulator is live around the back edge and nothing in
   the loop is a dead store *)
let test_liveness_loop_carried () =
  let _, cfg =
    main_cfg (fun m ->
        let loop = B.new_label m in
        let exit = B.new_label m in
        B.iconst m 0;
        B.i m (Instr.Istore 0);
        (* acc *)
        B.iconst m 10;
        B.i m (Instr.Istore 1);
        (* n *)
        B.place m loop;
        B.i m (Instr.Iload 1);
        B.ifz m Instr.Le exit;
        B.i m (Instr.Iload 0);
        B.iconst m 1;
        B.i m Instr.Iadd;
        B.i m (Instr.Istore 0);
        B.i m (Instr.Iinc (1, -1));
        B.goto m loop;
        B.place m exit;
        B.i m (Instr.Iload 0);
        B.i m Instr.Ireturn)
  in
  let live = Liveness.compute cfg in
  check Alcotest.(list Alcotest.reject) "no dead stores" []
    (List.map (fun _ -> ()) (Liveness.dead_stores live));
  (* the latch block (the one ending in the goto) carries both slots *)
  let header = Method_cfg.block_index_at_pc cfg 4 in
  check Alcotest.bool "acc live into the header" true
    (Liveness.Slot_set.mem 0 live.Liveness.live_in.(header));
  check Alcotest.bool "n live into the header" true
    (Liveness.Slot_set.mem 1 live.Liveness.live_in.(header))

(* uses/defs agree with the instruction set on the slot-touching forms *)
let test_uses_defs () =
  check Alcotest.(list int) "iload uses" [ 3 ] (Liveness.uses (Instr.Iload 3));
  check Alcotest.(list int) "istore defs" [ 2 ] (Liveness.defs (Instr.Istore 2));
  check Alcotest.(list int) "iinc uses" [ 1 ] (Liveness.uses (Instr.Iinc (1, 5)));
  check Alcotest.(list int) "iinc defs" [ 1 ] (Liveness.defs (Instr.Iinc (1, 5)));
  check Alcotest.(list int) "iconst touches nothing" []
    (Liveness.uses (Instr.Iconst 7) @ Liveness.defs (Instr.Iconst 7))

(* inside a handler-covered range stores are not reported dead: the
   handler could observe the pre-store value after any throw *)
let test_liveness_covered_blocks () =
  let open Workloads.Dsl in
  let module S = Bytecode.Structured in
  let p = S.create () in
  S.def_class p ~name:"Boom" ~fields:[ ("payload", S.I) ] ~methods:[] ();
  S.def_method p ~name:"main" ~args:[] ~ret:S.I
    ~body:
      [
        decl_i "d" (i 1);
        try_
          [ set "d" (i 2); set "d" (i 3) ]
          ~catch:("Boom", "ex")
          [ set "d" (v "d" +! getf "Boom" "payload" (v "ex")) ];
        (* the handler reads [d], so the exceptional edge keeps every
           store to it live: neither d=1 nor the overwritten d=2 may be
           reported dead *)
        ret (v "d");
      ]
    ();
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  let cfg = Method_cfg.build (Bytecode.Program.entry_method program) in
  let live = Liveness.compute cfg in
  check Alcotest.bool "some block is covered" true
    (Array.exists (fun c -> c) live.Liveness.covered);
  check Alcotest.int "no dead stores reported under cover" 0
    (List.length (Liveness.dead_stores live))

(* --------------------------------------------------------------- *)
(* constant propagation                                              *)
(* --------------------------------------------------------------- *)


(* [Some c] when the abstract value is exactly the integer [c]. *)
let singleton = function
  | Constprop.Int { lo; hi } when lo = hi -> Some lo
  | _ -> None

let test_constprop_folds_arithmetic () =
  let p, cfg =
    main_cfg (fun m ->
        B.iconst m 6;
        B.iconst m 7;
        B.i m Instr.Imul;
        B.i m (Instr.Istore 0);
        B.i m (Instr.Iload 0);
        B.i m Instr.Ireturn)
  in
  let cp = Constprop.compute p cfg in
  match cp.Constprop.exit.(0) with
  | Constprop.Reached { locals; _ } ->
      check Alcotest.(option int) "6*7 is a singleton 42" (Some 42)
        (singleton locals.(0))
  | Constprop.Unreached -> Alcotest.fail "entry block unreached"

let test_constprop_always_taken () =
  let p, cfg =
    main_cfg (fun m ->
        let taken = B.new_label m in
        B.iconst m 5;
        B.i m (Instr.Istore 0);
        B.i m (Instr.Iload 0);
        B.ifz m Instr.Gt taken;
        B.iconst m 0;
        B.i m Instr.Ireturn;
        B.place m taken;
        B.iconst m 1;
        B.i m Instr.Ireturn)
  in
  let cp = Constprop.compute p cfg in
  let branchy =
    List.filter_map
      (function
        | Constprop.Branch_always { taken; _ } -> Some taken
        | Constprop.Div_by_zero _ -> None)
      (Constprop.findings cp)
  in
  check Alcotest.(list bool) "ifz gt on 5 always taken" [ true ] branchy

let test_constprop_div_by_zero () =
  let p, cfg =
    main_cfg (fun m ->
        B.iconst m 1;
        B.iconst m 0;
        B.i m Instr.Idiv;
        B.i m Instr.Ireturn)
  in
  let cp = Constprop.compute p cfg in
  let divs =
    List.filter
      (function Constprop.Div_by_zero _ -> true | _ -> false)
      (Constprop.findings cp)
  in
  check Alcotest.int "one certain division by zero" 1 (List.length divs)

(* interval join: two constants merge into a widened interval that still
   bounds both, never a wrong singleton *)
let test_constprop_join_not_singleton () =
  let p, cfg =
    main_cfg (fun m ->
        let other = B.new_label m in
        let join = B.new_label m in
        B.iconst m 0;
        B.i m (Instr.Istore 1);
        B.i m (Instr.Iload 1);
        B.ifz m Instr.Eq other;
        B.iconst m 3;
        B.i m (Instr.Istore 0);
        B.goto m join;
        B.place m other;
        B.iconst m 9;
        B.i m (Instr.Istore 0);
        B.place m join;
        B.i m (Instr.Iload 0);
        B.i m Instr.Ireturn)
  in
  let cp = Constprop.compute p cfg in
  let join_block = Method_cfg.block_index_at_pc cfg (Array.length cfg.Method_cfg.method_.Mthd.code - 2) in
  match cp.Constprop.entry.(join_block) with
  | Constprop.Reached { locals; _ } ->
      check Alcotest.(option int) "merge of 3 and 9 is not a singleton" None
        (singleton locals.(0))
  | Constprop.Unreached ->
      (* constprop may prove the branch one-sided here; that is fine as
         long as it did not invent a wrong singleton, which the lint
         cross-validation properties check on random programs *)
      ()

(* --------------------------------------------------------------- *)
(* loop nesting                                                      *)
(* --------------------------------------------------------------- *)

let test_loops_nesting () =
  let open Workloads.Dsl in
  let module S = Bytecode.Structured in
  let p = S.create () in
  S.def_method p ~name:"main" ~args:[] ~ret:S.I
    ~body:
      [
        decl_i "s" (i 0);
        for_ "a" (i 0) (i 3)
          [ for_ "b" (i 0) (i 3) [ set "s" (v "s" +! (v "a" *! v "b")) ] ];
        ret (v "s");
      ]
    ();
  let program = S.link p ~entry:"main" in
  let cfg = Method_cfg.build (Bytecode.Program.entry_method program) in
  let l = Loops.compute cfg in
  check Alcotest.int "two natural loops" 2 (Array.length l.Loops.loops);
  check Alcotest.int "two back edges" 2 (List.length l.Loops.back_edges);
  check Alcotest.bool "maximum nesting depth is 2" true
    (Array.exists (fun d -> d = 2) l.Loops.depth);
  check Alcotest.(list Alcotest.reject) "reducible control flow" []
    (List.map (fun _ -> ()) l.Loops.irreducible);
  let inner =
    Array.to_list l.Loops.loops
    |> List.find (fun (lp : Loops.loop) -> lp.Loops.depth = 2)
  in
  check Alcotest.bool "inner loop has a parent" true
    (Option.is_some inner.Loops.parent)

(* --------------------------------------------------------------- *)
(* the linter                                                        *)
(* --------------------------------------------------------------- *)

let test_lint_clean_program () =
  let p =
    main_program (fun m ->
        B.iconst m 0;
        B.i m (Instr.Istore 0);
        B.i m (Instr.Iload 0);
        B.i m Instr.Ireturn)
  in
  let diags = lint p in
  check Alcotest.bool "no error findings" false (Diag.has_errors diags)

let test_lint_seeded_dead_store () =
  let p =
    main_program (fun m ->
        B.iconst m 1;
        B.i m (Instr.Istore 0);
        B.iconst m 2;
        B.i m (Instr.Istore 0);
        B.i m (Instr.Iload 0);
        B.i m Instr.Ireturn)
  in
  let diags = lint ~context:"seeded" p in
  check Alcotest.bool "TL101 reported" true (has_code "TL101" diags);
  check Alcotest.bool "and it is an error" true (Diag.has_errors diags);
  (* the rendering carries the context, code and location *)
  let d = List.find (fun d -> d.Diag.code = "TL101") diags in
  let s = Diag.to_string d in
  check Alcotest.bool "rendering mentions context" true
    (String.length s > 0 && String.sub s 0 6 = "seeded")

let test_lint_unreachable_block () =
  let p =
    main_program (fun m ->
        let l = B.new_label m in
        B.goto m l;
        B.iconst m 5;
        B.i m Instr.Pop;
        B.place m l;
        B.iconst m 0;
        B.i m Instr.Ireturn)
  in
  let diags = lint p in
  check Alcotest.bool "TL002 reported" true (has_code "TL002" diags);
  check Alcotest.bool "unreachable code is not an error" false
    (Diag.has_errors diags)

let test_lint_always_taken_branch () =
  let p =
    main_program (fun m ->
        let taken = B.new_label m in
        B.iconst m 5;
        B.i m (Instr.Istore 0);
        B.i m (Instr.Iload 0);
        B.ifz m Instr.Gt taken;
        B.iconst m 0;
        B.i m Instr.Ireturn;
        B.place m taken;
        B.iconst m 1;
        B.i m Instr.Ireturn)
  in
  let diags = lint p in
  check Alcotest.bool "TL102 reported" true (has_code "TL102" diags)

let test_lint_div_by_zero () =
  let p =
    main_program (fun m ->
        B.iconst m 1;
        B.iconst m 0;
        B.i m Instr.Idiv;
        B.i m Instr.Ireturn)
  in
  let diags = lint p in
  check Alcotest.bool "TL105 reported" true (has_code "TL105" diags)

let test_lint_verify_failure_is_tl001 () =
  (* an operand-stack underflow: verification fails, so the lint reports
     TL001 alone and runs no dataflow pass *)
  let p =
    main_program (fun m ->
        B.iconst m 1;
        B.i m Instr.Iadd;
        B.i m Instr.Ireturn)
  in
  let diags = lint p in
  check Alcotest.bool "some diagnostics" true (diags <> []);
  check Alcotest.bool "all TL001" true
    (List.for_all (fun d -> d.Diag.code = "TL001") diags);
  check Alcotest.bool "verification failure is an error" true
    (Diag.has_errors diags)

(* TL004 measures a loop against the cap the caller passes — the trace
   builder's own — not a second literal of the linter's *)
let test_lint_big_loop_uses_cap () =
  let open Workloads.Dsl in
  let module S = Bytecode.Structured in
  let p = S.create () in
  S.def_method p ~name:"main" ~args:[] ~ret:S.I
    ~body:
      [
        decl_i "s" (i 0);
        for_ "a" (i 0) (i 3)
          [ for_ "b" (i 0) (i 3) [ set "s" (v "s" +! (v "a" *! v "b")) ] ];
        ret (v "s");
      ]
    ();
  let program = S.link p ~entry:"main" in
  check Alcotest.bool "no TL004 at the builder's cap" false
    (has_code "TL004" (lint program));
  check Alcotest.bool "TL004 once the loop outgrows a 2-block cap" true
    (has_code "TL004" (Lint.lint_program ~max_trace_blocks:2 program))

(* every registered workload lints without error-severity findings — the
   static half of `repro_cli lint`'s acceptance bar *)
let test_lint_workloads_clean () =
  List.iter
    (fun w ->
      let program = Workloads.Workload.build_default w in
      let diags =
        lint ~context:w.Workloads.Workload.name program
      in
      List.iter
        (fun d ->
          if d.Diag.severity = Diag.Error then
            Alcotest.failf "workload %s: %s" w.Workloads.Workload.name
              (Diag.to_string d))
        diags)
    Workloads.Registry.all

(* --------------------------------------------------------------- *)
(* verifier error collection (verify_program_all)                    *)
(* --------------------------------------------------------------- *)

let test_verify_all_collects () =
  let b = B.create () in
  let m1 =
    B.begin_method b ~name:"bad1" ~returns:Mthd.Rint ~n_args:0 ~n_locals:1 ()
  in
  B.i m1 Instr.Iadd;
  B.i m1 Instr.Ireturn;
  B.finish_method m1;
  let m2 =
    B.begin_method b ~name:"main" ~returns:Mthd.Rint ~n_args:0 ~n_locals:1 ()
  in
  B.i m2 (Instr.Fconst 1.0);
  B.i m2 Instr.Ireturn;
  B.finish_method m2;
  let p = B.link b ~entry:"main" in
  let errors = Bytecode.Verify.verify_program_all p in
  check Alcotest.bool "at least two errors across methods" true
    (List.length errors >= 2);
  (* the raising API still reports the first of them *)
  (try
     Bytecode.Verify.verify_program p;
     Alcotest.fail "expected Invalid"
   with Bytecode.Verify.Invalid _ -> ())

let () =
  Alcotest.run "analysis"
    [
      ( "solver",
        [
          tc "forward loop + unreachable" `Quick test_solver_forward_loop;
          tc "backward" `Quick test_solver_backward;
          tc "terminates on cycle" `Quick test_solver_terminates_on_cycle;
        ] );
      ( "liveness",
        [
          tc "dead store" `Quick test_liveness_dead_store;
          tc "loop-carried" `Quick test_liveness_loop_carried;
          tc "uses/defs" `Quick test_uses_defs;
          tc "covered blocks" `Quick test_liveness_covered_blocks;
        ] );
      ( "constprop",
        [
          tc "folds arithmetic" `Quick test_constprop_folds_arithmetic;
          tc "always-taken branch" `Quick test_constprop_always_taken;
          tc "certain div by zero" `Quick test_constprop_div_by_zero;
          tc "join widens" `Quick test_constprop_join_not_singleton;
        ] );
      ("loops", [ tc "nesting" `Quick test_loops_nesting ]);
      ( "lint",
        [
          tc "clean program" `Quick test_lint_clean_program;
          tc "seeded dead store" `Quick test_lint_seeded_dead_store;
          tc "unreachable block" `Quick test_lint_unreachable_block;
          tc "always-taken branch" `Quick test_lint_always_taken_branch;
          tc "div by zero" `Quick test_lint_div_by_zero;
          tc "verify failure" `Quick test_lint_verify_failure_is_tl001;
          tc "big loop measured at the passed cap" `Quick
            test_lint_big_loop_uses_cap;
          tc "workloads lint clean" `Slow test_lint_workloads_clean;
        ] );
      ("verify_all", [ tc "collects errors" `Quick test_verify_all_collects ])
    ]
