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

(* A program assembled directly and left unverified: the verifier
   rejects every operand-type error the traps below need.  Each method is
   [(name, n_args, n_locals, returns, emit)], and the entry is "main".
   Its one class [C] has an int field [x]. *)
let raw_methods methods =
  let module B = Bytecode.Builder in
  let b = B.create () in
  B.declare_class b ~name:"C" ~fields:[ ("x", Bytecode.Klass.Kint) ]
    ~methods:[] ();
  List.iter
    (fun (name, n_args, n_locals, returns, emit) ->
      let m = B.begin_method b ~name ~returns ~n_args ~n_locals () in
      emit m;
      B.finish_method m)
    methods;
  Layout.build (B.link b ~entry:"main")

(* [main] alone, returning an int, with no arguments and one local. *)
let raw_layout emit = raw_methods [ ("main", 0, 0, Bytecode.Mthd.Rint, emit) ]

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

(* Traps raised by a block's last instruction, the one instruction whose
   path depends on the block's terminator: a conditional branch and a
   switch popping a non-int, and a division by zero that ends a block
   falling through to a leader. *)
let test_trap_if_icmp_float () =
  let module B = Bytecode.Builder in
  let module I = Bytecode.Instr in
  expect_trap_at ~kind:Interp.Type_confusion ~msg:"expected int, got 1.5"
    ~instructions:4 ~block_dispatches:2
    (raw_layout (fun m ->
         let l_cmp = B.new_label m in
         let l_out = B.new_label m in
         B.fconst m 1.5;
         B.goto m l_cmp;
         B.place m l_cmp;
         B.iconst m 1;
         B.if_icmp m I.Lt l_out;
         B.place m l_out;
         B.iconst m 0;
         B.i m I.Ireturn))

let test_trap_tableswitch_float () =
  let module B = Bytecode.Builder in
  let module I = Bytecode.Instr in
  expect_trap_at ~kind:Interp.Type_confusion ~msg:"expected int, got 2.5"
    ~instructions:4 ~block_dispatches:2
    (raw_layout (fun m ->
         let l_sw = B.new_label m in
         let l_a = B.new_label m in
         let l_b = B.new_label m in
         B.iconst m 7;
         B.goto m l_sw;
         B.place m l_sw;
         B.fconst m 2.5;
         B.tableswitch m ~low:0 ~targets:[| l_a |] ~default:l_b;
         B.place m l_a;
         B.i m I.Ireturn;
         B.place m l_b;
         B.i m I.Ireturn))

let test_trap_fallthrough_idiv () =
  let module B = Bytecode.Builder in
  let module I = Bytecode.Instr in
  (* the division's block ends only because [l_next] is a branch target *)
  let layout =
    raw_layout (fun m ->
        let l_div = B.new_label m in
        let l_next = B.new_label m in
        B.iconst m 1;
        B.goto m l_div;
        B.place m l_div;
        B.iconst m 0;
        B.i m I.Idiv;
        B.place m l_next;
        B.i m I.Ireturn;
        B.goto m l_next)
  in
  let main = Bytecode.Program.entry_method layout.Layout.program in
  let b =
    Layout.block layout
      (Layout.gid_at_pc layout ~method_id:main.Bytecode.Mthd.id ~pc:3)
  in
  (match b.Cfg.Block.term with
  | Cfg.Block.T_fallthrough 4 -> ()
  | _ -> Alcotest.fail "idiv must end a fall-through block");
  expect_trap_at ~kind:Interp.Division_by_zero ~msg:"idiv"
    ~instructions:4 ~block_dispatches:2 layout

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

(* Typed slots: the frame layout's edge cases.  Every expected figure
   below is also what the boxed operand stack with a locals array per
   frame gave. *)

(* Bit-for-bit equality: floats by their bits, so NaN and -0.0 count,
   and references by identity. *)
let same_value (a : Vm.Value.t) (b : Vm.Value.t) =
  match (a, b) with
  | Vm.Value.Vint x, Vm.Value.Vint y -> x = y
  | Vm.Value.Vfloat x, Vm.Value.Vfloat y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Vm.Value.Vobj x, Vm.Value.Vobj y -> x == y
  | Vm.Value.Vnull, Vm.Value.Vnull -> true
  | _ -> false

(* The snapshot taken at the first dispatch of method [name]'s block
   starting at [pc], and the run's result. *)
let snapshot_at layout name ~pc =
  let mid =
    (Option.get (Bytecode.Program.find_method layout.Layout.program name))
      .Bytecode.Mthd.id
  in
  let h = ref None in
  let seen = ref None in
  let on_block gid =
    let b = Layout.block layout gid in
    if b.Cfg.Block.method_id = mid && b.Cfg.Block.start_pc = pc && !seen = None
    then seen := Some (Interp.materialize (Option.get !h))
  in
  h := Some (Interp.start layout ~on_block);
  let r = Interp.finish (Option.get !h) in
  (r, Option.get !seen)

let test_fresh_locals_int_zero () =
  let module B = Bytecode.Builder in
  let module I = Bytecode.Instr in
  let module M = Bytecode.Mthd in
  (* [fill] leaves a float and a reference in its two locals and in its
     two operands; [probe]'s four locals then occupy the same slots *)
  let layout =
    raw_methods
      [
        ( "fill", 0, 2, M.Rvoid,
          fun m ->
            B.fconst m 1.5;
            B.i m (Bytecode.Instr.Fstore 0);
            B.new_object m "C";
            B.i m (Bytecode.Instr.Astore 1);
            B.fconst m 2.5;
            B.new_object m "C";
            B.i m I.Return );
        ( "probe", 0, 4, M.Rint,
          fun m ->
            for l = 0 to 3 do
              B.i m (Bytecode.Instr.Iload l)
            done;
            B.i m I.Iadd;
            B.i m I.Iadd;
            B.i m I.Iadd;
            B.iconst m 7;
            B.i m I.Iadd;
            B.i m I.Ireturn );
        ( "main", 0, 0, M.Rint,
          fun m ->
            B.invokestatic m "fill";
            B.invokestatic m "probe";
            B.i m I.Ireturn );
      ]
  in
  let r, snap = snapshot_at layout "probe" ~pc:0 in
  check Alcotest.bool "result" true
    (Interp.result_value r = Some (Vm.Value.Vint 7));
  check Alcotest.int "instructions" 20 r.Interp.instructions;
  check Alcotest.int "dispatches" 5 r.Interp.block_dispatches;
  let probe = List.hd snap.Interp.m_frames in
  check Alcotest.int "four locals" 4 (Array.length probe.Interp.fs_locals);
  Array.iter
    (fun v ->
      check Alcotest.bool "reads as int 0" true
        (same_value v (Vm.Value.Vint 0)))
    probe.Interp.fs_locals

let test_float_through_istore () =
  let module B = Bytecode.Builder in
  let module I = Bytecode.Instr in
  expect_trap_at ~kind:Interp.Type_confusion ~msg:"expected int, got 1.5"
    ~instructions:6 ~block_dispatches:1
    (raw_layout (fun m ->
         B.fconst m 1.5;
         B.i m (Bytecode.Instr.Istore 0);
         B.i m (Bytecode.Instr.Iload 0);
         B.iconst m 1;
         B.i m I.Iadd;
         B.i m I.Ireturn))

let test_local_index_bounds () =
  let module B = Bytecode.Builder in
  let module I = Bytecode.Instr in
  (* [raw_layout]'s main has one local; an operand sits where a second
     one would be *)
  let raises what emit =
    Alcotest.check_raises what (Invalid_argument "index out of bounds")
      (fun () ->
        ignore
          (Interp.run_plain
             (raw_layout (fun m ->
                  B.iconst m 9;
                  emit m;
                  B.i m I.Ireturn))))
  in
  raises "iload" (fun m -> B.i m (Bytecode.Instr.Iload 1));
  raises "iload below 0" (fun m -> B.i m (Bytecode.Instr.Iload (-1)));
  raises "istore" (fun m ->
      B.iconst m 5;
      B.i m (Bytecode.Instr.Istore 1));
  raises "iinc" (fun m -> B.iinc m 1 1)

let test_round_trip () =
  let module B = Bytecode.Builder in
  let module M = Bytecode.Mthd in
  let module I = Bytecode.Instr in
  (* main stores the value in its local, passes it to [pass], which
     copies it between its locals and returns it *)
  let round_trip what returns const (load, store, ret) check_result =
    let load m n = B.i m (load n) and store m n = B.i m (store n) in
    let layout =
      raw_methods
        [
          ( "pass", 1, 2, returns,
            fun m ->
              let l = B.new_label m in
              load m 0;
              store m 1;
              B.goto m l;
              B.place m l;
              load m 1;
              B.i m ret );
          ( "main", 0, 1, returns,
            fun m ->
              const m;
              store m 0;
              load m 0;
              B.invokestatic m "pass";
              B.i m ret );
        ]
    in
    let r, snap = snapshot_at layout "pass" ~pc:3 in
    let v = Option.get (Interp.result_value r) in
    check_result v;
    check Alcotest.int (what ^ ": instructions") 10 r.Interp.instructions;
    match snap.Interp.m_frames with
    | [ pass; main ] ->
        check Alcotest.bool (what ^ ": callee locals") true
          (Array.for_all (same_value v) pass.Interp.fs_locals);
        check Alcotest.bool (what ^ ": caller local") true
          (Array.for_all (same_value v) main.Interp.fs_locals);
        check Alcotest.int (what ^ ": callee operands") 0
          (Array.length pass.Interp.fs_stack);
        check Alcotest.int (what ^ ": caller operands") 0
          (Array.length main.Interp.fs_stack)
    | _ -> Alcotest.fail "two frames"
  in
  let ints = ((fun n -> I.Iload n), (fun n -> I.Istore n), I.Ireturn) in
  let floats = ((fun n -> I.Fload n), (fun n -> I.Fstore n), I.Freturn) in
  let int n what =
    round_trip what M.Rint (fun m -> B.iconst m n) ints (fun v ->
        check Alcotest.bool what true (same_value v (Vm.Value.Vint n)))
  in
  let float x what =
    round_trip what M.Rfloat (fun m -> B.fconst m x) floats (fun v ->
        check Alcotest.bool what true (same_value v (Vm.Value.Vfloat x)))
  in
  int max_int "max_int";
  int min_int "min_int";
  float Float.nan "nan";
  float (-0.0) "-0.0";
  round_trip "reference" M.Rref
    (fun m -> B.new_object m "C")
    ((fun n -> I.Aload n), (fun n -> I.Astore n), I.Areturn)
    (function
      | Vm.Value.Vobj o ->
          check Alcotest.int "the class's one field" 1
            (Array.length o.Vm.Value.fields)
      | _ -> Alcotest.fail "an object")

(* The positive control of the liveness property in
   test_random_programs: a sentinel store into live [x], prepended at the
   loop's test block, changes the result, and the frame shows the stored
   value at the dispatch after the test block's first.  The rewrite adds two instructions
   per visit of the test block (four visits) and no dispatch. *)
let test_observer_writes_live_local () =
  let layout =
    layout_of
      [
        decl_i "x" (i 5);
        decl_i "k" (i 0);
        while_ (v "k" <! i 3) [ incr_ "k" ];
        ret (v "x" *! i 3);
      ]
  in
  let main = layout.Layout.program.Bytecode.Program.entry in
  let cfg = layout.Layout.cfgs.(main) in
  let header =
    match Cfg.Dominators.(back_edges cfg (compute cfg)) with
    | [ (_, h) ] -> h
    | _ -> Alcotest.fail "one loop"
  in
  let code_at ~method_id ~block_index =
    if method_id = main && block_index = header then Prologue.stores 7 [ 0 ]
    else []
  in
  let plain = Interp.run_plain layout in
  let rewritten = Layout.build (Prologue.at_leaders layout code_at) in
  let header_gid = Layout.gid rewritten ~method_id:main ~block_index:header in
  let h = ref None in
  let pending = ref false in
  let seen = ref None in
  let on_block gid =
    if !pending && !seen = None then
      seen := Some (Interp.materialize (Option.get !h));
    pending := gid = header_gid
  in
  h := Some (Interp.start rewritten ~on_block);
  let r = Interp.finish (Option.get !h) in
  check Alcotest.bool "unmodified x" true
    (Interp.result_value plain = Some (Vm.Value.Vint 15));
  check Alcotest.bool "x rewritten" true
    (Interp.result_value r = Some (Vm.Value.Vint 21));
  check Alcotest.int "instructions" 32 r.Interp.instructions;
  check Alcotest.int "dispatches" 9 r.Interp.block_dispatches;
  check Alcotest.int "dispatches as unmodified" plain.Interp.block_dispatches
    r.Interp.block_dispatches;
  match (Option.get !seen).Interp.m_frames with
  | [ main ] ->
      check Alcotest.bool "the snapshot shows the write" true
        (same_value main.Interp.fs_locals.(0) (Vm.Value.Vint 7))
  | _ -> Alcotest.fail "one frame"

(* Typed heap: int and float arrays hold raw elements, reference arrays
   boxed values, and an ill-typed store, which only an unverified
   program makes, boxes an int or float array's cells once.  Every
   expected figure below is also what the interpreter gave when every
   array's cells were boxed values. *)

(* A run's outcome, with the type of a returned int or float. *)
let render (r : Interp.result) =
  match r.Interp.outcome with
  | Interp.Finished (Some (Vm.Value.Vint _ as v)) ->
      "int " ^ Vm.Value.to_string v
  | Interp.Finished (Some (Vm.Value.Vfloat _ as v)) ->
      "float " ^ Vm.Value.to_string v
  | Interp.Finished (Some v) -> Vm.Value.to_string v
  | Interp.Finished None -> "void"
  | Interp.Trapped (k, msg) ->
      Printf.sprintf "%s: %s" (Interp.error_kind_to_string k) msg

(* [main] keeps a three-cell [kind] array in local 0, makes each
   [(cell, push, store)] into it, runs [final] and returns whatever that
   leaves on top. *)
let array_layout kind stores final =
  let module B = Bytecode.Builder in
  let module I = Bytecode.Instr in
  raw_methods
    [
      ( "main", 0, 1, Bytecode.Mthd.Rint,
        fun m ->
          B.iconst m 3;
          B.i m (I.Newarray kind);
          B.i m (Bytecode.Instr.Astore 0);
          List.iter
            (fun (cell, push, store) ->
              B.i m (Bytecode.Instr.Aload 0);
              B.iconst m cell;
              push m;
              B.i m store)
            stores;
          final m;
          B.i m I.Ireturn );
    ]

let int_ n m = Bytecode.Builder.iconst m n

let float_ x m = Bytecode.Builder.fconst m x

let obj_ m = Bytecode.Builder.new_object m "C"

let null_ m = Bytecode.Builder.i m Bytecode.Instr.Aconst_null

(* What the checks below run after the stores: cell 1 through each load
   and under an int and a float negation; cell 0, written before it;
   cell 2, never written; the length; the array under a negation, which
   prints it; and a store of the array's own type into cell 2 after
   cell 1's. *)
let array_finals kind =
  let module B = Bytecode.Builder in
  let module I = Bytecode.Instr in
  let cell ?op load idx m =
    B.i m (Bytecode.Instr.Aload 0);
    B.iconst m idx;
    B.i m load;
    Option.iter (B.i m) op
  in
  let own_store m =
    B.i m (Bytecode.Instr.Aload 0);
    B.iconst m 2;
    (match kind with
    | I.Int_array ->
        B.iconst m 11;
        B.i m I.Iastore
    | I.Float_array ->
        B.fconst m 4.25;
        B.i m I.Fastore
    | I.Ref_array ->
        B.new_object m "C";
        B.i m I.Aastore);
    cell I.Aaload 2 m
  in
  [
    cell I.Iaload 1;
    cell I.Faload 1;
    cell I.Aaload 1;
    cell ~op:I.Ineg I.Aaload 1;
    cell ~op:I.Fneg I.Aaload 1;
    cell I.Aaload 0;
    cell I.Aaload 2;
    (fun m ->
      B.i m (Bytecode.Instr.Aload 0);
      B.i m I.Arraylength);
    (fun m ->
      B.i m (Bytecode.Instr.Aload 0);
      B.i m I.Ineg);
    own_store;
  ]

(* Each case: an array of [kind] whose cell 0 holds what [first] wrote
   (null in a reference array) and cell 1 what [store] wrote, and the
   outcomes of [array_finals]. *)
let heap_cases =
  let open Bytecode.Instr in
  let ints = (Int_array, (0, int_ 5, Iastore)) in
  let floats = (Float_array, (0, float_ 2.5, Fastore)) in
  let refs = (Ref_array, (0, null_, Aastore)) in
  [
    ( "iastore into float[]", floats, (int_ 7, Iastore),
      [
        "int 7";
        "int 7";
        "int 7";
        "int -7";
        "type confusion: expected float, got 7";
        "float 2.5";
        "float 0.";
        "int 3";
        "type confusion: expected int, got float[3]";
        "float 4.25";
      ] );
    ( "fastore into int[]", ints, (float_ 1.5, Fastore),
      [
        "float 1.5";
        "float 1.5";
        "float 1.5";
        "type confusion: expected int, got 1.5";
        "float -1.5";
        "int 5";
        "int 0";
        "int 3";
        "type confusion: expected int, got int[3]";
        "int 11";
      ] );
    ( "aastore int into int[]", ints, (int_ 9, Aastore),
      [
        "int 9";
        "int 9";
        "int 9";
        "int -9";
        "type confusion: expected float, got 9";
        "int 5";
        "int 0";
        "int 3";
        "type confusion: expected int, got int[3]";
        "int 11";
      ] );
    ( "aastore float into int[]", ints, (float_ 1.5, Aastore),
      [
        "float 1.5";
        "float 1.5";
        "float 1.5";
        "type confusion: expected int, got 1.5";
        "float -1.5";
        "int 5";
        "int 0";
        "int 3";
        "type confusion: expected int, got int[3]";
        "int 11";
      ] );
    ( "aastore object into int[]", ints, (obj_, Aastore),
      [
        "obj#0(1 fields)";
        "obj#0(1 fields)";
        "obj#0(1 fields)";
        "type confusion: expected int, got obj#0(1 fields)";
        "type confusion: expected float, got obj#0(1 fields)";
        "int 5";
        "int 0";
        "int 3";
        "type confusion: expected int, got int[3]";
        "int 11";
      ] );
    ( "aastore null into int[]", ints, (null_, Aastore),
      [
        "null";
        "null";
        "null";
        "type confusion: expected int, got null";
        "type confusion: expected float, got null";
        "int 5";
        "int 0";
        "int 3";
        "type confusion: expected int, got int[3]";
        "int 11";
      ] );
    ( "aastore float into float[]", floats, (float_ 0.5, Aastore),
      [
        "float 0.5";
        "float 0.5";
        "float 0.5";
        "type confusion: expected int, got 0.5";
        "float -0.5";
        "float 2.5";
        "float 0.";
        "int 3";
        "type confusion: expected int, got float[3]";
        "float 4.25";
      ] );
    ( "aastore int into float[]", floats, (int_ 9, Aastore),
      [
        "int 9";
        "int 9";
        "int 9";
        "int -9";
        "type confusion: expected float, got 9";
        "float 2.5";
        "float 0.";
        "int 3";
        "type confusion: expected int, got float[3]";
        "float 4.25";
      ] );
    ( "aastore object into float[]", floats, (obj_, Aastore),
      [
        "obj#0(1 fields)";
        "obj#0(1 fields)";
        "obj#0(1 fields)";
        "type confusion: expected int, got obj#0(1 fields)";
        "type confusion: expected float, got obj#0(1 fields)";
        "float 2.5";
        "float 0.";
        "int 3";
        "type confusion: expected int, got float[3]";
        "float 4.25";
      ] );
    ( "aastore null into float[]", floats, (null_, Aastore),
      [
        "null";
        "null";
        "null";
        "type confusion: expected int, got null";
        "type confusion: expected float, got null";
        "float 2.5";
        "float 0.";
        "int 3";
        "type confusion: expected int, got float[3]";
        "float 4.25";
      ] );
    ( "aastore object into ref[]", refs, (obj_, Aastore),
      [
        "obj#0(1 fields)";
        "obj#0(1 fields)";
        "obj#0(1 fields)";
        "type confusion: expected int, got obj#0(1 fields)";
        "type confusion: expected float, got obj#0(1 fields)";
        "null";
        "null";
        "int 3";
        "type confusion: expected int, got ref[3]";
        "obj#0(1 fields)";
      ] );
    ( "iastore into ref[]", refs, (int_ 7, Iastore),
      [
        "int 7";
        "int 7";
        "int 7";
        "int -7";
        "type confusion: expected float, got 7";
        "null";
        "null";
        "int 3";
        "type confusion: expected int, got ref[3]";
        "obj#0(1 fields)";
      ] );
  ]

let test_heap_store (label, (kind, first), (push, store), expected) () =
  let runs =
    List.map
      (fun final ->
        Interp.run_plain (array_layout kind [ first; (1, push, store) ] final))
      (array_finals kind)
  in
  check Alcotest.(list string) label expected (List.map render runs);
  check
    Alcotest.(list (pair int int))
    "instructions and dispatches"
    (List.map (fun n -> (n, 1)) [ 15; 15; 15; 16; 16; 15; 15; 14; 14; 19 ])
    (List.map
       (fun r -> (r.Interp.instructions, r.Interp.block_dispatches))
       runs)

(* [max_int], [min_int], NaN and -0.0 come back bit for bit from a cell
   of each array kind, stored by the kind's own store or by [Aastore]. *)
let test_heap_round_trip () =
  let open Bytecode.Instr in
  let round_trip what kind push store load expected =
    let r =
      Interp.run_plain
        (array_layout kind
           [ (1, push, store) ]
           (fun m ->
             Bytecode.Builder.i m (Bytecode.Instr.Aload 0);
             Bytecode.Builder.iconst m 1;
             Bytecode.Builder.i m load))
    in
    check Alcotest.bool what true
      (match r.Interp.outcome with
      | Interp.Finished (Some v) -> same_value v expected
      | _ -> false);
    check Alcotest.int (what ^ ": instructions") 11 r.Interp.instructions
  in
  List.iter
    (fun (name, n) ->
      let v = Vm.Value.Vint n in
      round_trip (name ^ " in int[]") Int_array (int_ n) Iastore Iaload v;
      round_trip (name ^ " aastored in int[]") Int_array (int_ n) Aastore
        Aaload v;
      round_trip (name ^ " in float[]") Float_array (int_ n) Iastore Faload v;
      round_trip (name ^ " in ref[]") Ref_array (int_ n) Aastore Aaload v)
    [ ("max_int", max_int); ("min_int", min_int) ];
  List.iter
    (fun (name, x) ->
      let v = Vm.Value.Vfloat x in
      round_trip (name ^ " in float[]") Float_array (float_ x) Fastore Faload
        v;
      round_trip (name ^ " aastored in float[]") Float_array (float_ x)
        Aastore Aaload v;
      round_trip (name ^ " in int[]") Int_array (float_ x) Fastore Iaload v;
      round_trip (name ^ " in ref[]") Ref_array (float_ x) Aastore Aaload v)
    [ ("nan", Float.nan); ("-0.0", -0.0) ]

(* Frame pool: one frame per call depth, reused by every call at that
   depth.  Every expected figure below is also what the interpreter gave
   when each call allocated its frame. *)

(* [down n] recurses [n] deep and returns [n]. *)
let down_defs p =
  S.def_method p ~name:"down" ~args:[ ("n", S.I) ] ~ret:S.I
    ~body:
      [
        if_ (v "n" =! i 0)
          [ ret (i 0) ]
          [ ret (i 1 +! call "down" [ v "n" -! i 1 ]) ];
      ]
    ()

(* With [main] at depth 1, [down 4094] reaches depth 4096, the cap, and
   returns; run twice, the second reuses the frames the first grew the
   pool to.  [down 4095] then needs one frame more. *)
let test_pool_max_frames () =
  check Alcotest.int "down 4094 twice fits" 8188
    (run_int ~defs:down_defs
       [ ret (call "down" [ i 4094 ] +! call "down" [ i 4094 ]) ]);
  expect_trap_at ~kind:Interp.Stack_overflow ~msg:"too many frames"
    ~instructions:74721 ~block_dispatches:20779
    (layout_of ~defs:down_defs
       [
         decl_i "s" (call "down" [ i 4094 ]);
         decl_i "t" (call "down" [ i 100 ]);
         ret (v "s" +! v "t" +! call "down" [ i 4095 ]);
       ])

(* Exceptions thrown 3 frames below [main], each followed by fresh
   calls that reuse the unwound frames with other methods and locals. *)
let test_pool_throw_then_calls () =
  let defs p =
    S.def_class p ~name:"Exn" ~fields:[ ("code", S.I) ] ~methods:[] ();
    down_defs p;
    S.def_method p ~name:"a" ~args:[ ("x", S.I) ] ~ret:S.I
      ~body:[ ret (i 100 +! call "b" [ v "x" +! i 1 ]) ]
      ();
    S.def_method p ~name:"b" ~args:[ ("x", S.I) ] ~ret:S.I
      ~body:[ decl_f "y" (f 0.5); ret (i 200 +! call "c" [ v "x" +! i 1 ]) ]
      ();
    S.def_method p ~name:"c" ~args:[ ("x", S.I) ] ~ret:S.I
      ~body:
        [
          decl "e" S.R (new_obj "Exn");
          setf "Exn" "code" (v "e") (v "x");
          when_ (v "x" %! i 2 =! i 0) [ throw (v "e") ];
          ret (v "x");
        ]
      ();
    S.def_method p ~name:"mix" ~args:[ ("x", S.I); ("y", S.F) ] ~ret:S.I
      ~body:
        [
          decl_i "z" (v "x" *! i 3);
          ret (v "z" +! f2i (v "y") +! call "down" [ i 4 ]);
        ]
      ()
  in
  check Alcotest.int "result" 4017
    (run_int ~defs
       [
         decl_i "r" (i 0);
         for_ "k" (i 0) (i 6)
           [
             try_
               [ set "r" (v "r" +! call "a" [ v "k" ]) ]
               ~catch:("Exn", "ex")
               [ set "r" (v "r" +! i 1000 +! getf "Exn" "code" (v "ex")) ];
             set "r" (v "r" +! call "mix" [ v "k"; i2f (v "k") *! f 1.5 ]);
           ];
         ret (v "r");
       ])

(* A snapshot, printed: the instruction count and block, then each
   frame's method, pc, operand count, locals and operands. *)
let print_snapshot layout (m : Interp.materialized) =
  let values a =
    String.concat "," (Array.to_list (Array.map Vm.Value.to_string a))
  in
  Printf.sprintf "%d instructions, block %s" m.Interp.m_instructions
    (match m.Interp.m_block with Some g -> string_of_int g | None -> "-")
  :: List.map
       (fun (fs : Interp.frame_snapshot) ->
         Printf.sprintf "%s pc %d sp %d locals [%s] stack [%s]"
           (Bytecode.Program.method_by_id layout.Layout.program
              fs.Interp.fs_method)
             .Bytecode.Mthd.name fs.Interp.fs_pc fs.Interp.fs_sp
           (values fs.Interp.fs_locals)
           (values fs.Interp.fs_stack))
       m.Interp.m_frames

(* Snapshots at the deepest point of [down 3], and at [leaf]'s entry
   after [down] returned and [mid] and [leaf] reused the frames at
   depths 2 and 3; the first is printed again after the run, when those
   frames have been overwritten. *)
let test_pool_materialize () =
  let defs p =
    down_defs p;
    S.def_method p ~name:"leaf" ~args:[ ("x", S.I); ("y", S.F) ] ~ret:S.I
      ~body:[ ret (v "x" +! f2i (v "y")) ]
      ();
    S.def_method p ~name:"mid" ~args:[ ("x", S.I) ] ~ret:S.I
      ~body:
        [ decl_i "w" (v "x" *! i 2); ret (i 7 +! call "leaf" [ v "w"; f 2.5 ]) ]
      ()
  in
  let layout =
    layout_of ~defs
      [ decl_i "s" (call "down" [ i 3 ]); ret (v "s" +! call "mid" [ v "s" ]) ]
  in
  let prog = layout.Layout.program in
  let id name =
    (Option.get (Bytecode.Program.find_method prog name)).Bytecode.Mthd.id
  in
  let down = id "down" and leaf = id "leaf" in
  let h = ref None in
  let downs = ref 0 in
  let deepest = ref None and deepest_then = ref None in
  let at_leaf = ref None in
  let on_block gid =
    let b = Layout.block layout gid in
    if b.Cfg.Block.start_pc = 0 then
      if b.Cfg.Block.method_id = down then (
        incr downs;
        if !downs = 4 then (
          let m = Interp.materialize (Option.get !h) in
          deepest := Some m;
          deepest_then := Some (print_snapshot layout m)))
      else if b.Cfg.Block.method_id = leaf && !at_leaf = None then
        at_leaf := Some (Interp.materialize (Option.get !h))
  in
  h := Some (Interp.start layout ~on_block);
  let r = Interp.finish (Option.get !h) in
  check Alcotest.string "result" "int 18" (render r);
  let deepest_expected =
    [
      "26 instructions, block 0";
      "down pc 0 sp 0 locals [0] stack []";
      "down pc 8 sp 1 locals [1] stack [1]";
      "down pc 8 sp 1 locals [2] stack [1]";
      "down pc 8 sp 1 locals [3] stack [1]";
      "main pc 2 sp 0 locals [0] stack []";
    ]
  in
  check
    Alcotest.(list string)
    "deepest, when taken" deepest_expected (Option.get !deepest_then);
  check
    Alcotest.(list string)
    "deepest, after the run" deepest_expected
    (print_snapshot layout (Option.get !deepest));
  check
    Alcotest.(list string)
    "at leaf"
    [
      "49 instructions, block 6";
      "leaf pc 0 sp 0 locals [6,2.5] stack []";
      "mid pc 8 sp 1 locals [3,6] stack [7]";
      "main pc 6 sp 1 locals [3] stack [3]";
    ]
    (print_snapshot layout (Option.get !at_leaf))

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

(* Pinned dispatch streams.  Each registered workload at its test size
   (a quarter of its default size, as in test_workloads) must keep its
   result, its instruction and dispatch counts, and the exact sequence of
   dispatched gids: any refactor of the interpreter leaves all four
   unchanged.  The digest is an FNV-style fold kept to 30 bits, so it is
   the same on every word size. *)
let pinned_streams =
  [
    ("compress", (246391, 434546, 91871, 145715202));
    ("javac", (22236380, 91549, 16880, 465268700));
    ("raytrace", (1403, 38950, 5259, 573022028));
    ("mpegaudio", (741409, 142075, 18995, 490772538));
    ("soot", (11559, 819067, 114800, 778353517));
    ("scimark", (6152, 3445545, 293315, 309425975));
  ]

let test_pinned_stream name (value, instructions, dispatches, digest) () =
  let w = Option.get (Workloads.Registry.find name) in
  let size = max 1 (w.Workloads.Workload.default_size / 4) in
  let layout = Layout.build (w.Workloads.Workload.build ~size) in
  let r = Interp.run_plain layout in
  (match Interp.result_value r with
  | Some (Vm.Value.Vint n) -> check Alcotest.int "result" value n
  | _ -> Alcotest.fail "expected an int result");
  check Alcotest.int "instructions" instructions r.Interp.instructions;
  check Alcotest.int "block dispatches" dispatches r.Interp.block_dispatches;
  let d = ref 0 in
  let observed =
    Interp.run layout ~on_block:(fun g ->
        d := ((!d lxor g) * 16777619) land 0x3FFF_FFFF)
  in
  check Alcotest.int "observed dispatches" dispatches
    observed.Interp.block_dispatches;
  check Alcotest.int "gid stream digest" digest !d

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
          tc "if_icmp on a float" `Quick test_trap_if_icmp_float;
          tc "tableswitch on a float" `Quick test_trap_tableswitch_float;
          tc "idiv ending a fall-through block" `Quick
            test_trap_fallthrough_idiv;
        ] );
      ( "frames",
        [
          tc "throw unwinds to the outer window" `Quick
            test_throw_unwinds_windows;
          tc "materialize shows per-frame windows" `Quick
            test_materialize_windows;
        ] );
      ( "typed slots",
        [
          tc "fresh locals read as int 0" `Quick test_fresh_locals_int_zero;
          tc "a float through istore and iload" `Quick
            test_float_through_istore;
          tc "local index out of bounds" `Quick test_local_index_bounds;
          tc "extreme values round-trip" `Quick test_round_trip;
          tc "observer writes a live local" `Quick
            test_observer_writes_live_local;
        ] );
      ( "typed heap",
        List.map
          (fun ((label, _, _, _) as case) ->
            tc label `Quick (test_heap_store case))
          heap_cases
        @ [ tc "extreme values round-trip" `Quick test_heap_round_trip ] );
      ( "frame pool",
        [
          tc "max_frames after the pool grew" `Quick test_pool_max_frames;
          tc "calls after a throw" `Quick test_pool_throw_then_calls;
          tc "materialize before and after reuse" `Quick
            test_pool_materialize;
        ] );
      ( "dispatch",
        [
          tc "accounting" `Quick test_dispatch_accounting;
          tc "stream follows edges" `Quick test_observer_stream_is_path;
        ] );
      ( "pinned",
        List.map
          (fun (name, expected) ->
            tc (name ^ " dispatch stream") `Quick
              (test_pinned_stream name expected))
          pinned_streams );
      ("properties", [ QCheck_alcotest.to_alcotest prop_arith ]);
    ]
