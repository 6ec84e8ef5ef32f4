(* Deeper CFG analysis coverage: nested loops, multiple back edges, loop
   bodies, and the bottom-tested loop shape the trace machinery relies on
   (the test block is the header and its taken edge jumps backwards). *)

open Workloads.Dsl
module S = Bytecode.Structured
module Method_cfg = Cfg.Method_cfg
module Dominators = Cfg.Dominators
module Block = Cfg.Block

let tc = Alcotest.test_case
let check = Alcotest.check

let cfg_of body =
  let p = S.create () in
  S.def_method p ~name:"main" ~args:[] ~ret:S.I ~body ();
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  Method_cfg.build (Bytecode.Program.entry_method program)

let nested_loops_body =
  [
    decl_i "s" (i 0);
    for_ "a" (i 0) (i 3)
      [
        for_ "b" (i 0) (i 3)
          [ set "s" (v "s" +! (v "a" *! v "b")) ];
      ];
    ret (v "s");
  ]

let test_nested_loops () =
  let cfg = cfg_of nested_loops_body in
  let dom = Dominators.compute cfg in
  let backs = Dominators.back_edges cfg dom in
  check Alcotest.int "two back edges" 2 (List.length backs);
  let headers = List.sort_uniq compare (List.map snd backs) in
  check Alcotest.int "two loop headers" 2 (List.length headers);
  (* the inner loop nests inside the outer: one natural loop strictly
     contains the other *)
  match List.map (fun back -> Dominators.natural_loop cfg ~back) backs with
  | [ l1; l2 ] ->
      let smaller, larger =
        if List.length l1 < List.length l2 then (l1, l2) else (l2, l1)
      in
      check Alcotest.bool "inner loop nested in outer" true
        (List.for_all (fun b -> List.mem b larger) smaller);
      check Alcotest.bool "strictly nested" true
        (List.length smaller < List.length larger)
  | _ -> Alcotest.fail "expected exactly two loops"

let test_loop_shape () =
  (* the structured compiler emits bottom-tested loops entered through a
     goto to the test block, so the test block is the dominator-theoretic
     header (it dominates the body), the latch falls through into it, and
     the *taken* conditional edge of the header jumps backwards to the
     body *)
  let cfg = cfg_of nested_loops_body in
  let dom = Dominators.compute cfg in
  List.iter
    (fun (latch, header) ->
      check Alcotest.bool "header dominates latch" true
        (Dominators.dominates dom ~dom:header ~sub:latch);
      let hb = cfg.Method_cfg.blocks.(header) in
      (match hb.Block.term with
      | Block.T_cond (_, taken_pc, _) ->
          check Alcotest.bool "taken edge of the header jumps backwards" true
            (taken_pc <= hb.Block.start_pc)
      | _ -> Alcotest.fail "loop header (test block) should be conditional");
      (* the latch reaches the header without branching away *)
      match cfg.Method_cfg.blocks.(latch).Block.term with
      | Block.T_fallthrough next ->
          check Alcotest.int "latch falls into the header" hb.Block.start_pc
            next
      | Block.T_cond _ | Block.T_goto _ -> () (* also legal shapes *)
      | _ -> Alcotest.fail "unexpected latch terminator")
    (Dominators.back_edges cfg dom)

let test_while_true_loop () =
  let cfg =
    cfg_of
      [
        decl_i "k" (i 0);
        while_ (i 1 =! i 1)
          [ incr_ "k"; when_ (v "k" >! i 5) [ break_ ] ];
        ret (v "k");
      ]
  in
  let dom = Dominators.compute cfg in
  check Alcotest.bool "loop found" true
    (List.length (Dominators.back_edges cfg dom) >= 1)

let test_unreachable_blocks_have_no_idom () =
  let cfg =
    cfg_of
      [
        if_ (i 1 =! i 1) [ ret (i 1) ] [ ret (i 2) ];
        (* everything after is dead: the implicit return tail *)
        ret (i 3);
      ]
  in
  let dom = Dominators.compute cfg in
  let unreachable =
    Array.to_list (Array.mapi (fun i _ -> i) cfg.Method_cfg.blocks)
    |> List.filter (fun b -> dom.Dominators.idom.(b) < 0)
  in
  check Alcotest.bool "dead code exists and is marked unreachable" true
    (List.length unreachable > 0)

let test_loop_back_candidate_classifier () =
  (* the backward-jumping conditional lives in the loop header (test
     block): its taken target does not lie after the block, the usual
     shape of a compiled loop back edge *)
  let cfg = cfg_of nested_loops_body in
  let dom = Dominators.compute cfg in
  List.iter
    (fun (_, header) ->
      let b = cfg.Method_cfg.blocks.(header) in
      check Alcotest.bool "header branches backwards" true
        (match b.Block.term with
        | Block.T_cond (_, taken, _) -> taken <= b.Block.start_pc
        | _ -> false))
    (Dominators.back_edges cfg dom)

let test_rpo_starts_at_entry () =
  let cfg = cfg_of nested_loops_body in
  let dom = Dominators.compute cfg in
  check Alcotest.int "rpo head is the entry block" 0 dom.Dominators.rpo.(0);
  (* rpo contains each reachable block exactly once *)
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun b ->
      check Alcotest.bool "no duplicates in rpo" false (Hashtbl.mem seen b);
      Hashtbl.replace seen b ())
    dom.Dominators.rpo

let test_switch_successors_unique () =
  let cfg =
    cfg_of
      [
        decl_i "x" (i 2);
        switch (v "x")
          [ (0, [ set "x" (i 1) ]); (1, [ set "x" (i 2) ]); (2, [ set "x" (i 3) ]) ]
          [ set "x" (i 9) ];
        ret (v "x");
      ]
  in
  Array.iter
    (fun b ->
      let succs = Method_cfg.successors cfg b in
      check Alcotest.int "successor lists deduplicated"
        (List.length (List.sort_uniq compare succs))
        (List.length succs))
    cfg.Method_cfg.blocks

let () =
  Alcotest.run "loops_analysis"
    [
      ( "loops",
        [
          tc "nested loops" `Quick test_nested_loops;
          tc "bottom-tested loop shape" `Quick test_loop_shape;
          tc "while-true loop" `Quick test_while_true_loop;
          tc "loop-back classifier" `Quick test_loop_back_candidate_classifier;
        ] );
      ( "dominators",
        [
          tc "unreachable blocks" `Quick test_unreachable_blocks_have_no_idom;
          tc "rpo sanity" `Quick test_rpo_starts_at_entry;
        ] );
      ("switch", [ tc "successors unique" `Quick test_switch_successors_unique ]);
    ]
