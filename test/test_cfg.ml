module B = Bytecode.Builder
module Instr = Bytecode.Instr
module Mthd = Bytecode.Mthd
module Block = Cfg.Block
module Method_cfg = Cfg.Method_cfg
module Layout = Cfg.Layout
module Dominators = Cfg.Dominators

let tc = Alcotest.test_case
let check = Alcotest.check

(* a diamond followed by a loop:
   0: iload 0
   1: ifz eq L_else
   2: iconst 1 ; 3: istore 1 ; 4: goto L_join
   L_else(5): iconst 2 ; 6: istore 1
   L_join(7): iload 1                       <- loop header
   8: iinc 0 -1
   9: iload 0
   10: ifz gt L_join ... wait stack *)
let diamond_loop_program () =
  let b = B.create () in
  let m =
    B.begin_method b ~name:"main" ~returns:Mthd.Rint ~n_args:0 ~n_locals:2 ()
  in
  let l_else = B.new_label m in
  let l_join = B.new_label m in
  B.iconst m 5;
  B.i m (Instr.Istore 0);
  B.i m (Instr.Iload 0);
  B.ifz m Instr.Eq l_else;
  B.iconst m 1;
  B.i m (Instr.Istore 1);
  B.goto m l_join;
  B.place m l_else;
  B.iconst m 2;
  B.i m (Instr.Istore 1);
  B.place m l_join;
  (* loop: decrement local 0 until zero *)
  B.iinc m 0 (-1);
  B.i m (Instr.Iload 0);
  B.ifz m Instr.Gt l_join;
  B.i m (Instr.Iload 1);
  B.i m Instr.Ireturn;
  B.finish_method m;
  B.link b ~entry:"main"

let test_partition () =
  let p = diamond_loop_program () in
  let cfg = Method_cfg.build (Bytecode.Program.entry_method p) in
  let code_len = Array.length (Bytecode.Program.entry_method p).Mthd.code in
  (* blocks cover the code exactly, in order, without overlap *)
  let covered = ref 0 in
  Array.iteri
    (fun bi b ->
      check Alcotest.int
        (Printf.sprintf "block %d starts where previous ended" bi)
        !covered b.Block.start_pc;
      covered := Block.end_pc b)
    cfg.Method_cfg.blocks;
  check Alcotest.int "blocks cover all instructions" code_len !covered;
  (* pc_to_block is consistent *)
  for pc = 0 to code_len - 1 do
    let b = cfg.Method_cfg.blocks.(Method_cfg.block_index_at_pc cfg pc) in
    check Alcotest.bool "pc within its block" true
      (pc >= b.Block.start_pc && pc < Block.end_pc b)
  done

let test_successors () =
  let p = diamond_loop_program () in
  let cfg = Method_cfg.build (Bytecode.Program.entry_method p) in
  (* entry block ends with the diamond branch: two successors *)
  let b0 = cfg.Method_cfg.blocks.(0) in
  check Alcotest.int "diamond has two successors" 2
    (List.length (Method_cfg.successors cfg b0));
  (* return block has none *)
  let last = cfg.Method_cfg.blocks.(Method_cfg.n_blocks cfg - 1) in
  check (Alcotest.list Alcotest.int) "return block has no successors" []
    (Method_cfg.successors cfg last)

let test_predecessors_inverse () =
  let p = diamond_loop_program () in
  let cfg = Method_cfg.build (Bytecode.Program.entry_method p) in
  let preds = Method_cfg.predecessors cfg in
  Array.iteri
    (fun bi b ->
      List.iter
        (fun s ->
          check Alcotest.bool
            (Printf.sprintf "edge %d->%d appears in preds" bi s)
            true
            (List.mem bi preds.(s)))
        (Method_cfg.successors cfg b))
    cfg.Method_cfg.blocks

let test_dominators_and_loops () =
  let p = diamond_loop_program () in
  let cfg = Method_cfg.build (Bytecode.Program.entry_method p) in
  let dom = Dominators.compute cfg in
  (* entry dominates everything reachable *)
  Array.iteri
    (fun bi _ ->
      if dom.Dominators.idom.(bi) >= 0 then
        check Alcotest.bool
          (Printf.sprintf "entry dominates %d" bi)
          true
          (Dominators.dominates dom ~dom:0 ~sub:bi))
    cfg.Method_cfg.blocks;
  let backs = Dominators.back_edges cfg dom in
  check Alcotest.int "exactly one back edge" 1 (List.length backs);
  let b, h = List.hd backs in
  let loop = Dominators.natural_loop cfg ~back:(b, h) in
  check Alcotest.bool "loop contains header" true (List.mem h loop);
  check Alcotest.bool "loop contains latch" true (List.mem b loop);
  check (Alcotest.list Alcotest.int) "loop headers" [ h ]
    (List.sort_uniq compare (List.map snd backs))

let test_layout_gids () =
  let p = diamond_loop_program () in
  let layout = Layout.build p in
  check Alcotest.bool "layout has blocks" true (layout.Layout.n_blocks > 0);
  (* round trip gid -> block -> gid *)
  for g = 0 to layout.Layout.n_blocks - 1 do
    let b = Layout.block layout g in
    let g' =
      Layout.gid layout ~method_id:b.Block.method_id ~block_index:b.Block.index
    in
    check Alcotest.int "gid round trip" g g'
  done;
  (* the entry method's first block starts at pc 0 *)
  let eg =
    Layout.gid layout ~method_id:p.Bytecode.Program.entry ~block_index:0
  in
  let eb = Layout.block layout eg in
  check Alcotest.int "entry starts at pc 0" 0 eb.Block.start_pc;
  (* block lengths sum to program size *)
  let total = ref 0 in
  for g = 0 to layout.Layout.n_blocks - 1 do
    total := !total + Layout.block_len layout g
  done;
  check Alcotest.int "lengths sum to instruction count"
    (Bytecode.Program.total_instructions p)
    !total

let test_dot_export () =
  let p = diamond_loop_program () in
  let cfg = Method_cfg.build (Bytecode.Program.entry_method p) in
  let dot = Cfg.Dot.method_to_dot cfg in
  check Alcotest.bool "dot output mentions digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph")

(* Every block's terminator is its last instruction: [term] is
   [T_fallthrough] exactly when the last instruction does not end a block,
   and no earlier instruction ends one.  The interpreter runs a block's
   straight-line instructions and its terminator on separate paths,
   chosen by [term], so it relies on this.  Returns the offending gids. *)
let misplaced_terminators (program : Bytecode.Program.t) =
  let layout = Layout.build program in
  List.filter
    (fun g ->
      let b = Layout.block layout g in
      let code = (Layout.method_of_gid layout g).Mthd.code in
      let last = Block.last_pc b in
      let falls =
        match b.Block.term with Block.T_fallthrough _ -> true | _ -> false
      in
      let early = ref false in
      for pc = b.Block.start_pc to last - 1 do
        if Instr.ends_block code.(pc) then early := true
      done;
      !early || falls = Instr.ends_block code.(last))
    (List.init layout.Layout.n_blocks Fun.id)

let test_workload_terminators () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let size = max 1 (w.Workloads.Workload.default_size / 4) in
      check
        (Alcotest.list Alcotest.int)
        (w.Workloads.Workload.name ^ ": blocks with a misplaced terminator")
        []
        (misplaced_terminators (w.Workloads.Workload.build ~size)))
    Workloads.Registry.all

let prop_random_terminators =
  QCheck.Test.make ~name:"terminators end random programs' blocks" ~count:60
    Random_program.arb_program (fun program ->
      misplaced_terminators program = [])

(* qcheck over random structured programs: the block partition property *)
let arb_stmts =
  let open QCheck.Gen in
  let rec gen depth st =
    let leaf =
      oneofl
        Workloads.Dsl.
          [ set "x" (v "x" +! i 1); set "acc" (v "acc" +! v "x") ]
    in
    if depth = 0 then map (fun s -> [ s ]) leaf st
    else
      let sub = gen (depth - 1) in
      (oneof
         Workloads.Dsl.
           [
             map (fun s -> [ s ]) leaf;
             map2 (fun a b -> [ if_ (v "x" <! i 5) a b ]) sub sub;
             map (fun a -> [ for_ "k" (i 0) (i 3) a ]) sub;
             map2 (fun a b -> a @ b) sub sub;
           ])
        st
  in
  QCheck.make ~print:(fun _ -> "<stmts>") (gen 4)

let prop_partition =
  QCheck.Test.make ~name:"blocks partition every compiled method" ~count:60
    arb_stmts (fun stmts ->
      let open Workloads.Dsl in
      let module S = Bytecode.Structured in
      let p = S.create () in
      S.def_method p ~name:"main" ~args:[] ~ret:S.I
        ~body:
          ([ decl_i "x" (i 0); decl_i "acc" (i 0) ] @ stmts @ [ ret (v "acc") ])
        ();
      let program = S.link p ~entry:"main" in
      Array.for_all
        (fun m ->
          let cfg = Method_cfg.build m in
          let covered = ref 0 in
          let ok = ref true in
          Array.iter
            (fun b ->
              if b.Block.start_pc <> !covered then ok := false;
              covered := Block.end_pc b)
            cfg.Method_cfg.blocks;
          !ok && !covered = Array.length m.Mthd.code)
        program.Bytecode.Program.methods)

let () =
  Alcotest.run "cfg"
    [
      ( "blocks",
        [
          tc "partition" `Quick test_partition;
          tc "successors" `Quick test_successors;
          tc "predecessors inverse" `Quick test_predecessors_inverse;
          tc "terminators are last" `Quick test_workload_terminators;
        ] );
      ( "analysis",
        [
          tc "dominators and loops" `Quick test_dominators_and_loops;
          tc "dot export" `Quick test_dot_export;
        ] );
      ("layout", [ tc "global numbering" `Quick test_layout_gids ]);
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_partition;
          QCheck_alcotest.to_alcotest prop_random_terminators;
        ] );
    ]
