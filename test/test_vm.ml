(* The interpreter: value semantics, runtime errors, and the dispatch
   accounting the profiler depends on. *)

open Workloads.Dsl
module S = Bytecode.Structured
module Interp = Vm.Interp
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

let run_int ?defs body =
  match Interp.result_value (Interp.run_plain (layout_of ?defs body)) with
  | Some (Vm.Value.Vint n) -> n
  | _ -> Alcotest.fail "expected int"

let expect_trap kind body =
  let r = Interp.run_plain (layout_of body) in
  match r.Interp.outcome with
  | Interp.Trapped (k, _) when k = kind -> ()
  | Interp.Trapped (k, msg) ->
      Alcotest.failf "wrong trap: %s (%s)" (Interp.error_kind_to_string k) msg
  | Interp.Finished _ -> Alcotest.fail "expected a trap"

let test_int_semantics () =
  check Alcotest.int "truncating division" (-3) (run_int [ ret (i (-10) /! i 3) ]);
  check Alcotest.int "remainder sign" (-1) (run_int [ ret (i (-10) %! i 3) ]);
  check Alcotest.int "xor" 6 (run_int [ ret (i 5 ^! i 3) ]);
  check Alcotest.int "shift left" 40 (run_int [ ret (i 5 <<! i 3) ]);
  check Alcotest.int "arithmetic shift right" (-3)
    (run_int [ ret (i (-20) >>! i 3) ])

let test_float_semantics () =
  check Alcotest.int "float add" 5 (run_int [ ret (f2i (f 2.25 +! f 2.75)) ]);
  check Alcotest.int "float compare lt" 1 (run_int [ ret (f 1.0 <! f 2.0) ]);
  check Alcotest.int "float compare via sub" 0 (run_int [ ret (f 2.0 <! f 1.0) ]);
  check Alcotest.int "f2i truncates" 3 (run_int [ ret (f2i (f 3.99)) ])

let test_traps () =
  expect_trap Interp.Division_by_zero [ ret (i 1 /! i 0) ];
  expect_trap Interp.Division_by_zero [ ret (i 1 %! i 0) ];
  expect_trap Interp.Array_bounds
    [ decl "a" (S.Arr S.I) (new_arr S.I (i 3)); ret (v "a" @. i 5) ];
  expect_trap Interp.Array_bounds
    [ decl "a" (S.Arr S.I) (new_arr S.I (i 3)); ret (v "a" @. neg (i 1)) ];
  expect_trap Interp.Array_bounds [ ret (len (new_arr S.I (neg (i 2)))) ];
  expect_trap Interp.Null_pointer
    [ decl "a" (S.Arr S.I) S.Cnull; ret (v "a" @. i 0) ]

let test_null_virtual_call () =
  let defs p =
    S.def_class p ~name:"C" ~fields:[] ~methods:[ ("m", "c_m") ] ();
    S.def_method p ~name:"c_m" ~kind:Bytecode.Mthd.Virtual ~args:[] ~ret:S.I
      ~body:[ ret (i 1) ] ()
  in
  let layout =
    layout_of ~defs [ decl "o" S.R S.Cnull; ret (vcall "m" (v "o") []) ]
  in
  match (Interp.run_plain layout).Interp.outcome with
  | Interp.Trapped (Interp.Null_pointer, _) -> ()
  | _ -> Alcotest.fail "expected null pointer trap"

(* Virtual dispatch failures, assembled directly: the front end would
   reject both programs.  [main] calls selector [m] on a fresh [B],
   which binds no method; patching the call's slot to one no class
   binds gives the other failure. *)
let test_no_such_method () =
  let module B = Bytecode.Builder in
  let b = B.create () in
  B.declare_class b ~name:"A" ~fields:[] ~methods:[ ("m", "a_m") ] ();
  B.declare_class b ~name:"B" ~fields:[] ~methods:[] ();
  let m =
    B.begin_method b ~name:"a_m" ~kind:Bytecode.Mthd.Virtual
      ~returns:Bytecode.Mthd.Rint ~n_args:1 ~n_locals:1 ()
  in
  B.iconst m 1;
  B.i m Bytecode.Instr.Ireturn;
  B.finish_method m;
  let m =
    B.begin_method b ~name:"main" ~returns:Bytecode.Mthd.Rint ~n_args:0
      ~n_locals:0 ()
  in
  B.iconst m 7;
  B.new_object m "B";
  B.invokevirtual m "m";
  B.i m Bytecode.Instr.Ireturn;
  B.finish_method m;
  let program = B.link b ~entry:"main" in
  let trap_of program =
    match (Interp.run_plain (Layout.build program)).Interp.outcome with
    | Interp.Trapped (Interp.No_such_method, msg) -> msg
    | _ -> Alcotest.fail "expected a no-such-method trap"
  in
  check Alcotest.string "receiver's class lacks the selector"
    "class B does not understand m" (trap_of program);
  let code = (Bytecode.Program.entry_method program).Bytecode.Mthd.code in
  code.(2) <- Bytecode.Instr.Invokevirtual 9;
  check Alcotest.string "no class binds the slot"
    "selector slot 9 bound by no class" (trap_of program)

(* A trap's whole signature: kind, message, and the instruction and
   dispatch counts at which it fired. *)
let expect_trap_at ?max_instructions ~kind ~msg ~instructions
    ~block_dispatches layout =
  let r = Interp.run_plain ?max_instructions layout in
  (match r.Interp.outcome with
  | Interp.Trapped (k, m) ->
      check Alcotest.string "trap kind" (Interp.error_kind_to_string kind)
        (Interp.error_kind_to_string k);
      check Alcotest.string "trap message" msg m
  | Interp.Finished _ -> Alcotest.fail "expected a trap");
  check Alcotest.int "instructions at the trap" instructions
    r.Interp.instructions;
  check Alcotest.int "dispatches at the trap" block_dispatches
    r.Interp.block_dispatches

let test_stack_overflow () =
  let p = S.create () in
  S.def_method p ~name:"recur" ~args:[ ("n", S.I) ] ~ret:S.I
    ~body:[ ret (call "recur" [ v "n" +! i 1 ]) ]
    ();
  S.def_method p ~name:"main" ~args:[] ~ret:S.I
    ~body:[ ret (call "recur" [ i 0 ]) ]
    ();
  let program = S.link p ~entry:"main" in
  expect_trap_at ~kind:Interp.Stack_overflow ~msg:"too many frames"
    ~instructions:16382 ~block_dispatches:4096
    (Layout.build program)

(* [deep n] pushes n + 1 operands before its first add. *)
let rec deep n = if n = 0 then i 1 else i 1 +! deep (n - 1)

let test_operand_overflow_deep () =
  (* main -> a -> b -> c, each caller holding a live operand under its
     call site; c's expression needs more than 1,024 operand slots *)
  let defs p =
    S.def_method p ~name:"a" ~args:[] ~ret:S.I
      ~body:[ ret (i 1 +! call "b" []) ]
      ();
    S.def_method p ~name:"b" ~args:[] ~ret:S.I
      ~body:[ ret (i 2 +! call "c" []) ]
      ();
    S.def_method p ~name:"c" ~args:[] ~ret:S.I ~body:[ ret (deep 1100) ] ()
  in
  expect_trap_at ~kind:Interp.Stack_overflow ~msg:"operand stack overflow"
    ~instructions:2208 ~block_dispatches:4
    (layout_of ~defs [ ret (i 3 +! call "a" []) ]);
  (* 1,024 operands is the cap, not past it *)
  let defs p =
    S.def_method p ~name:"c" ~args:[] ~ret:S.I ~body:[ ret (deep 1023) ] ()
  in
  check Alcotest.int "1,024 operands fit" 1027
    (run_int ~defs [ ret (i 3 +! call "c" []) ])

(* A one-method program assembled directly and left unverified: the
   verifier rejects every operand-type error the traps below need.  Its
   one class [C] has an int field [x]. *)
let raw_layout emit =
  let module B = Bytecode.Builder in
  let b = B.create () in
  B.declare_class b ~name:"C" ~fields:[ ("x", Bytecode.Klass.Kint) ]
    ~methods:[] ();
  let m =
    B.begin_method b ~name:"main" ~returns:Bytecode.Mthd.Rint ~n_args:0
      ~n_locals:0 ()
  in
  emit m;
  B.finish_method m;
  Layout.build (B.link b ~entry:"main")

(* The operand-stack and bounds traps, each raised from its own raiser
   off the inlined hot path: kind, message and the counts at the trap. *)
let test_trap_underflow () =
  let module B = Bytecode.Builder in
  expect_trap_at ~kind:Interp.Type_confusion ~msg:"operand stack underflow"
    ~instructions:3 ~block_dispatches:1
    (raw_layout (fun m ->
         B.i m Bytecode.Instr.Pop;
         B.iconst m 0;
         B.i m Bytecode.Instr.Ireturn))

let test_trap_expected () =
  let module B = Bytecode.Builder in
  let module I = Bytecode.Instr in
  expect_trap_at ~kind:Interp.Type_confusion ~msg:"expected int, got 1.5"
    ~instructions:4 ~block_dispatches:1
    (raw_layout (fun m ->
         B.fconst m 1.5;
         B.iconst m 1;
         B.i m I.Iadd;
         B.i m I.Ireturn));
  expect_trap_at ~kind:Interp.Type_confusion ~msg:"expected float, got 1"
    ~instructions:5 ~block_dispatches:1
    (raw_layout (fun m ->
         B.iconst m 1;
         B.fconst m 2.5;
         B.i m I.Fadd;
         B.i m I.F2i;
         B.i m I.Ireturn));
  expect_trap_at ~kind:Interp.Type_confusion ~msg:"expected object, got 5"
    ~instructions:3 ~block_dispatches:1
    (raw_layout (fun m ->
         B.iconst m 5;
         B.getfield m "C" "x";
         B.i m I.Ireturn));
  expect_trap_at ~kind:Interp.Type_confusion ~msg:"expected array, got 5"
    ~instructions:3 ~block_dispatches:1
    (raw_layout (fun m ->
         B.iconst m 5;
         B.i m I.Arraylength;
         B.i m I.Ireturn))

let test_trap_null_access () =
  let module B = Bytecode.Builder in
  let module I = Bytecode.Instr in
  expect_trap_at ~kind:Interp.Null_pointer ~msg:"field access on null"
    ~instructions:3 ~block_dispatches:1
    (raw_layout (fun m ->
         B.i m I.Aconst_null;
         B.getfield m "C" "x";
         B.i m I.Ireturn));
  expect_trap_at ~kind:Interp.Null_pointer ~msg:"array access on null"
    ~instructions:3 ~block_dispatches:1
    (raw_layout (fun m ->
         B.i m I.Aconst_null;
         B.i m I.Arraylength;
         B.i m I.Ireturn))

let test_trap_out_of_bounds () =
  (* the loop walks off the end of a three-cell array *)
  let walk lo =
    layout_of
      [
        decl "a" (S.Arr S.I) (new_arr S.I (i 3));
        decl_i "s" (i 0);
        for_ "k" (i lo) (i 10) [ set "s" (v "s" +! (v "a" @. v "k")) ];
        ret (v "s");
      ]
  in
  expect_trap_at ~kind:Interp.Array_bounds ~msg:"index 3, length 3"
    ~instructions:48 ~block_dispatches:9 (walk 0);
  expect_trap_at ~kind:Interp.Array_bounds ~msg:"index -2, length 3"
    ~instructions:18 ~block_dispatches:3 (walk (-2))

let test_instruction_budget () =
  expect_trap_at ~max_instructions:10_000 ~kind:Interp.Instruction_budget
    ~msg:"exceeded 10000 instructions" ~instructions:10_001
    ~block_dispatches:4001
    (layout_of [ while_ (i 1 =! i 1) [ ignore_ (i 0) ]; ret (i 0) ])

let test_throw_unwinds_windows () =
  (* thrown three frames below main, with a live operand under every
     call site; main's handler must see its own window only *)
  let defs p =
    S.def_class p ~name:"Exn" ~fields:[ ("code", S.I) ] ~methods:[] ();
    S.def_method p ~name:"a" ~args:[ ("x", S.I) ] ~ret:S.I
      ~body:[ ret (i 100 +! call "b" [ v "x" +! i 1 ]) ]
      ();
    S.def_method p ~name:"b" ~args:[ ("x", S.I) ] ~ret:S.I
      ~body:[ ret (i 200 +! call "c" [ v "x" +! i 1 ]) ]
      ();
    S.def_method p ~name:"c" ~args:[ ("x", S.I) ] ~ret:S.I
      ~body:
        [
          decl "e" S.R (new_obj "Exn");
          setf "Exn" "code" (v "e") (v "x");
          throw (v "e");
          ret (i 0);
        ]
      ();
    S.def_method p ~name:"sq" ~args:[ ("x", S.I) ] ~ret:S.I
      ~body:[ ret (v "x" *! v "x") ]
      ()
  in
  check Alcotest.int "caught in the outer frame" 2455
    (run_int ~defs
       [
         decl_i "r" (i 0);
         try_
           [ set "r" (i 1000 +! call "a" [ i 40 ]) ]
           ~catch:("Exn", "ex")
           [ set "r" (i 7 +! getf "Exn" "code" (v "ex")) ];
         ret (i 5 +! (v "r" +! call "sq" [ v "r" ]));
       ])

let test_materialize_windows () =
  (* from inside c (main -> a -> c), each frame's snapshot holds only
     the operands of its own window *)
  let defs p =
    S.def_method p ~name:"a" ~args:[ ("x", S.I) ] ~ret:S.I
      ~body:[ ret (i 22 +! (i 23 +! call "c" [ v "x" ])) ]
      ();
    S.def_method p ~name:"c" ~args:[ ("x", S.I) ] ~ret:S.I
      ~body:[ ret (v "x" *! i 2) ]
      ()
  in
  let layout = layout_of ~defs [ ret (i 11 +! call "a" [ i 5 ]) ] in
  let c =
    (Option.get (Bytecode.Program.find_method layout.Layout.program "c"))
      .Bytecode.Mthd.id
  in
  let h = ref None in
  let seen = ref None in
  let on_block gid =
    let b = Layout.block layout gid in
    if b.Cfg.Block.method_id = c && !seen = None then
      seen := Some (Interp.materialize (Option.get !h))
  in
  h := Some (Interp.start layout ~on_block);
  let r = Interp.finish (Option.get !h) in
  check Alcotest.bool "result" true
    (Interp.result_value r = Some (Vm.Value.Vint 66));
  let m = Option.get !seen in
  let stacks =
    List.map
      (fun (fs : Interp.frame_snapshot) ->
        check Alcotest.int "fs_sp is the window size"
          (Array.length fs.Interp.fs_stack) fs.Interp.fs_sp;
        Array.to_list
          (Array.map
             (function Vm.Value.Vint n -> n | _ -> Alcotest.fail "int operand")
             fs.Interp.fs_stack))
      m.Interp.m_frames
  in
  check
    Alcotest.(list (list int))
    "innermost first, own operands only"
    [ []; [ 22; 23 ]; [ 11 ] ]
    stacks

let test_dispatch_accounting () =
  (* instructions = sum of executed block lengths; block dispatches = number
     of observer calls; every observed gid is a block leader *)
  let layout =
    layout_of
      [
        decl_i "s" (i 0);
        for_ "k" (i 0) (i 10) [ set "s" (v "s" +! v "k") ];
        ret (v "s");
      ]
  in
  let observed = ref [] in
  let r = Interp.run layout ~on_block:(fun g -> observed := g :: !observed) in
  check Alcotest.int "observer called once per block dispatch"
    r.Interp.block_dispatches
    (List.length !observed);
  let sum_lens =
    List.fold_left (fun acc g -> acc + Layout.block_len layout g) 0 !observed
  in
  check Alcotest.int "instructions = sum of dispatched block lengths"
    r.Interp.instructions sum_lens;
  List.iter
    (fun g ->
      let b = Layout.block layout g in
      check Alcotest.bool "gid in range" true (g >= 0 && g < layout.Layout.n_blocks);
      check Alcotest.bool "block len positive" true (b.Cfg.Block.len > 0))
    !observed

let test_observer_stream_is_path () =
  (* consecutive dispatched blocks must be connected: successor within the
     method, callee entry, or return continuation *)
  let defs p =
    S.def_method p ~name:"helper" ~args:[ ("x", S.I) ] ~ret:S.I
      ~body:[ if_ (v "x" >! i 2) [ ret (v "x" *! i 2) ] [ ret (v "x") ] ]
      ()
  in
  let layout =
    layout_of ~defs
      [
        decl_i "s" (i 0);
        for_ "k" (i 0) (i 6) [ set "s" (v "s" +! call "helper" [ v "k" ]) ];
        ret (v "s");
      ]
  in
  let prev = ref (-1) in
  let ok = ref true in
  let check_edge gprev g =
    let pb = Layout.block layout gprev in
    let cb = Layout.block layout g in
    let cfg = Layout.cfg_of_method layout ~method_id:pb.Cfg.Block.method_id in
    let intra =
      pb.Cfg.Block.method_id = cb.Cfg.Block.method_id
      && List.mem cb.Cfg.Block.index (Cfg.Method_cfg.successors cfg pb)
    in
    let is_call =
      match pb.Cfg.Block.term with
      | Cfg.Block.T_call _ -> cb.Cfg.Block.start_pc = 0
      | _ -> false
    in
    let is_return =
      match pb.Cfg.Block.term with Cfg.Block.T_return -> true | _ -> false
    in
    intra || is_call || is_return
  in
  let r =
    Interp.run layout ~on_block:(fun g ->
        if !prev >= 0 && not (check_edge !prev g) then ok := false;
        prev := g)
  in
  ignore r;
  check Alcotest.bool "dispatch stream follows CFG edges" true !ok

let test_determinism () =
  let mk () = run_int
    [
      decl_i "s" (i 0);
      for_ "k" (i 0) (i 100) [ set "s" ((v "s" *! i 31 +! v "k") &! i 0xFFFF) ];
      ret (v "s");
    ]
  in
  check Alcotest.int "two runs agree" (mk ()) (mk ())

(* qcheck: arithmetic on random pairs matches OCaml semantics *)
let prop_arith =
  QCheck.Test.make ~name:"vm int ops match OCaml" ~count:100
    QCheck.(pair (int_range (-10000) 10000) (int_range (-10000) 10000))
    (fun (a, b) ->
      let ops =
        [
          ((fun x y -> x +! y), ( + ));
          ((fun x y -> x -! y), ( - ));
          ((fun x y -> x *! y), ( * ));
          ((fun x y -> x &! y), ( land ));
          ((fun x y -> x |! y), ( lor ));
          ((fun x y -> x ^! y), ( lxor ));
        ]
      in
      List.for_all
        (fun (dsl_op, ml_op) ->
          run_int [ ret (dsl_op (i a) (i b)) ] = ml_op a b)
        ops)

let () =
  Alcotest.run "vm"
    [
      ( "semantics",
        [
          tc "int ops" `Quick test_int_semantics;
          tc "float ops" `Quick test_float_semantics;
          tc "determinism" `Quick test_determinism;
        ] );
      ( "traps",
        [
          tc "runtime errors" `Quick test_traps;
          tc "null virtual call" `Quick test_null_virtual_call;
          tc "no such method" `Quick test_no_such_method;
          tc "instruction budget" `Quick test_instruction_budget;
          tc "stack overflow" `Quick test_stack_overflow;
          tc "operand overflow in a deep callee" `Quick
            test_operand_overflow_deep;
        ] );
      ( "trap kinds",
        [
          tc "operand underflow" `Quick test_trap_underflow;
          tc "expected int, float, object, array" `Quick test_trap_expected;
          tc "field and array access on null" `Quick test_trap_null_access;
          tc "index out of bounds" `Quick test_trap_out_of_bounds;
        ] );
      ( "frames",
        [
          tc "throw unwinds to the outer window" `Quick
            test_throw_unwinds_windows;
          tc "materialize shows per-frame windows" `Quick
            test_materialize_windows;
        ] );
      ( "dispatch",
        [
          tc "accounting" `Quick test_dispatch_accounting;
          tc "stream follows edges" `Quick test_observer_stream_is_path;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_arith ]);
    ]
