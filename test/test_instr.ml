module Instr = Bytecode.Instr

let check = Alcotest.check
let tc = Alcotest.test_case

let all_simple_instrs =
  Instr.
    [
      Iconst 7; Fconst 2.5; Aconst_null; Iload 0; Istore 1; Fload 2; Fstore 3;
      Aload 4; Astore 5; Iinc (0, -3); Dup; Pop; Swap; Iadd; Isub; Imul; Idiv;
      Irem; Ineg; Iand; Ior; Ixor; Ishl; Ishr; Iushr; Fadd; Fsub; Fmul; Fdiv;
      Fneg; F2i; I2f; Fcmp; New 0; Getfield (0, 0); Putfield (0, 0);
      Instanceof 0; Newarray Int_array; Iaload; Iastore; Faload; Fastore;
      Aaload; Aastore; Arraylength; Nop;
    ]

let test_ends_block () =
  List.iter
    (fun ins ->
      check Alcotest.bool
        (Printf.sprintf "%s does not end a block" (Instr.to_string ins))
        false (Instr.ends_block ins))
    all_simple_instrs;
  List.iter
    (fun ins ->
      check Alcotest.bool
        (Printf.sprintf "%s ends a block" (Instr.to_string ins))
        true (Instr.ends_block ins))
    Instr.
      [
        If_icmp (Eq, 0); Ifz (Ne, 0); Goto 0;
        Tableswitch { low = 0; targets = [| 1 |]; default = 2 };
        Invokestatic 0; Invokevirtual 0; Return; Ireturn; Freturn; Areturn;
      ]

let test_branch_targets () =
  check (Alcotest.list Alcotest.int) "cond" [ 9 ]
    (Instr.branch_targets (Instr.If_icmp (Instr.Lt, 9)));
  check (Alcotest.list Alcotest.int) "goto" [ 4 ]
    (Instr.branch_targets (Instr.Goto 4));
  check (Alcotest.list Alcotest.int) "switch" [ 7; 1; 2 ]
    (Instr.branch_targets
       (Instr.Tableswitch { low = 0; targets = [| 1; 2 |]; default = 7 }));
  List.iter
    (fun ins ->
      check (Alcotest.list Alcotest.int)
        (Instr.to_string ins ^ " has no targets")
        []
        (Instr.branch_targets ins))
    all_simple_instrs

let test_eval_cond () =
  let cases =
    [
      (Instr.Eq, 0, true); (Instr.Eq, 1, false);
      (Instr.Ne, 0, false); (Instr.Ne, -2, true);
      (Instr.Lt, -1, true); (Instr.Lt, 0, false);
      (Instr.Ge, 0, true); (Instr.Ge, -1, false);
      (Instr.Gt, 1, true); (Instr.Gt, 0, false);
      (Instr.Le, 0, true); (Instr.Le, 1, false);
    ]
  in
  List.iter
    (fun (c, n, expect) ->
      check Alcotest.bool
        (Printf.sprintf "%s %d" (Instr.cond_to_string c) n)
        expect (Instr.eval_cond c n))
    cases

let test_negate_cond () =
  List.iter
    (fun c ->
      let nc = Instr.negate_cond c in
      for n = -2 to 2 do
        check Alcotest.bool "negation flips outcome"
          (not (Instr.eval_cond c n))
          (Instr.eval_cond nc n)
      done)
    [ Instr.Eq; Instr.Ne; Instr.Lt; Instr.Ge; Instr.Gt; Instr.Le ]

(* Calls, returns and conditionals as the CFG classifies a block by its
   last instruction. *)
let test_classification () =
  let code =
    Instr.
      [|
        Invokestatic 0; Iconst 0; Ifz (Eq, 4); Goto 4; Iconst 1; Iadd; Ireturn;
      |]
  in
  let m =
    {
      Bytecode.Mthd.id = 0; name = "m"; kind = Bytecode.Mthd.Static;
      n_args = 0; n_locals = 0; returns = Bytecode.Mthd.Rint; code;
      handlers = [||];
    }
  in
  let cfg = Cfg.Method_cfg.build m in
  let block pc = Cfg.Method_cfg.block_index_at_pc cfg pc in
  let term pc = cfg.Cfg.Method_cfg.blocks.(block pc).Cfg.Block.term in
  check Alcotest.bool "invokestatic is a call" true
    (match term 0 with Cfg.Block.T_call _ -> true | _ -> false);
  check Alcotest.bool "ifz is conditional" true
    (match term 2 with Cfg.Block.T_cond _ -> true | _ -> false);
  check Alcotest.bool "goto is not conditional" true
    (match term 3 with Cfg.Block.T_goto _ -> true | _ -> false);
  check Alcotest.bool "ireturn is a return" true (term 6 = Cfg.Block.T_return);
  check Alcotest.int "iadd is not: its block goes on" (block 6) (block 5)

let test_stack_delta () =
  check Alcotest.int "iconst pushes 1" 1 (Instr.stack_delta (Instr.Iconst 5));
  check Alcotest.int "iadd nets -1" (-1) (Instr.stack_delta Instr.Iadd);
  check Alcotest.int "iastore nets -3" (-3) (Instr.stack_delta Instr.Iastore);
  check Alcotest.int "swap nets 0" 0 (Instr.stack_delta Instr.Swap)

let test_pp_unique () =
  (* every instruction prints, and distinct instructions print distinctly *)
  let strings = List.map Instr.to_string all_simple_instrs in
  List.iter
    (fun s -> check Alcotest.bool "nonempty" true (String.length s > 0))
    strings;
  let sorted = List.sort_uniq compare strings in
  check Alcotest.int "no two simple instructions print alike"
    (List.length strings) (List.length sorted)

let () =
  Alcotest.run "instr"
    [
      ( "classification",
        [
          tc "ends_block" `Quick test_ends_block;
          tc "branch_targets" `Quick test_branch_targets;
          tc "is_call/is_return/is_conditional" `Quick test_classification;
        ] );
      ( "semantics",
        [
          tc "eval_cond" `Quick test_eval_cond;
          tc "negate_cond" `Quick test_negate_cond;
          tc "stack_delta" `Quick test_stack_delta;
        ] );
      ("printing", [ tc "pp distinct" `Quick test_pp_unique ]);
    ]
