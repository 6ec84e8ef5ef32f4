module B = Bytecode.Builder
module Instr = Bytecode.Instr
module Mthd = Bytecode.Mthd
module Verify = Bytecode.Verify

let tc = Alcotest.test_case

(* assemble a single main with the given raw body and run the verifier *)
let verify_main ?(returns = Mthd.Rint) ?(n_locals = 2) instrs =
  let b = B.create () in
  let m = B.begin_method b ~name:"main" ~returns ~n_args:0 ~n_locals () in
  List.iter (fun ins -> B.i m ins) instrs;
  B.finish_method m;
  let p = B.link b ~entry:"main" in
  Verify.verify_program p

let expect_invalid name instrs =
  try
    verify_main instrs;
    Alcotest.failf "%s: expected verification failure" name
  with Verify.Invalid _ -> ()

let test_accepts_straightline () =
  verify_main [ Instr.Iconst 1; Instr.Iconst 2; Instr.Iadd; Instr.Ireturn ]

let test_underflow () =
  expect_invalid "iadd on 1-deep stack" [ Instr.Iconst 1; Instr.Iadd; Instr.Ireturn ]

let test_type_mismatch () =
  expect_invalid "fadd on ints"
    [ Instr.Iconst 1; Instr.Iconst 2; Instr.Fadd; Instr.Ireturn ];
  expect_invalid "ireturn of float" [ Instr.Fconst 1.0; Instr.Ireturn ];
  expect_invalid "astore of int"
    [ Instr.Iconst 1; Instr.Astore 0; Instr.Iconst 0; Instr.Ireturn ]

let test_fall_off_end () =
  expect_invalid "no return" [ Instr.Iconst 1; Instr.Pop; Instr.Nop ]

let test_bad_local () =
  expect_invalid "local out of range"
    [ Instr.Iload 99; Instr.Ireturn ]

let test_bad_target () =
  (* hand-build with a raw out-of-range target: the CFG builder rejects it
     even before verification *)
  let b = B.create () in
  let m =
    B.begin_method b ~name:"main" ~returns:Mthd.Rint ~n_args:0 ~n_locals:0 ()
  in
  B.i m (Instr.Goto 99);
  B.finish_method m;
  let p = B.link b ~entry:"main" in
  (try
     Verify.verify_program p;
     ignore (Cfg.Layout.build p);
     Alcotest.fail "expected rejection of wild branch target"
   with Verify.Invalid _ | Invalid_argument _ -> ())

let test_merge_inconsistency () =
  (* one path leaves an int on the stack, the other a float *)
  let b = B.create () in
  let m =
    B.begin_method b ~name:"main" ~returns:Mthd.Rint ~n_args:0 ~n_locals:1 ()
  in
  let l_float = B.new_label m in
  let l_join = B.new_label m in
  B.i m (Instr.Iload 0);
  B.ifz m Instr.Eq l_float;
  B.iconst m 1;
  B.goto m l_join;
  B.place m l_float;
  B.fconst m 1.0;
  B.place m l_join;
  B.i m Instr.Pop;
  B.iconst m 0;
  B.i m Instr.Ireturn;
  B.finish_method m;
  let p = B.link b ~entry:"main" in
  try
    Verify.verify_program p;
    Alcotest.fail "expected merge inconsistency"
  with Verify.Invalid _ -> ()

let test_call_arity_effects () =
  (* f(int, int) -> int consumed correctly *)
  let b = B.create () in
  let f =
    B.begin_method b ~name:"f" ~returns:Mthd.Rint ~n_args:2 ~n_locals:2 ()
  in
  B.i f (Instr.Iload 0);
  B.i f (Instr.Iload 1);
  B.i f Instr.Iadd;
  B.i f Instr.Ireturn;
  B.finish_method f;
  let m =
    B.begin_method b ~name:"main" ~returns:Mthd.Rint ~n_args:0 ~n_locals:0 ()
  in
  B.iconst m 1;
  B.iconst m 2;
  B.invokestatic m "f";
  B.i m Instr.Ireturn;
  B.finish_method m;
  let p = B.link b ~entry:"main" in
  Verify.verify_program p;
  (* and underflow when an argument is missing *)
  let b2 = B.create () in
  let f2 =
    B.begin_method b2 ~name:"f" ~returns:Mthd.Rint ~n_args:2 ~n_locals:2 ()
  in
  B.i f2 (Instr.Iload 0);
  B.i f2 Instr.Ireturn;
  B.finish_method f2;
  let m2 =
    B.begin_method b2 ~name:"main" ~returns:Mthd.Rint ~n_args:0 ~n_locals:0 ()
  in
  B.iconst m2 1;
  B.invokestatic m2 "f";
  B.i m2 Instr.Ireturn;
  B.finish_method m2;
  let p2 = B.link b2 ~entry:"main" in
  try
    Verify.verify_program p2;
    Alcotest.fail "expected underflow on missing argument"
  with Verify.Invalid _ -> ()

(* A virtual method's [n_args] counts its receiver.  [main] runs
   [new A; invokevirtual m]; with [a_m] declared without a receiver the
   interpreter would read the slot above [main]'s top operand as it, so
   the builder refuses to declare such a method and the verifier rejects
   a program that has one anyway. *)
let receiver_program ~n_args =
  let b = B.create () in
  B.declare_class b ~name:"A" ~fields:[] ~methods:[ ("m", "a_m") ] ();
  let m =
    B.begin_method b ~name:"a_m" ~kind:Mthd.Virtual ~returns:Mthd.Rint
      ~n_args ~n_locals:1 ()
  in
  B.iconst m 1;
  B.i m Instr.Ireturn;
  B.finish_method m;
  let m =
    B.begin_method b ~name:"main" ~returns:Mthd.Rint ~n_args:0 ~n_locals:0 ()
  in
  B.new_object m "A";
  B.invokevirtual m "m";
  B.i m Instr.Ireturn;
  B.finish_method m;
  B.link b ~entry:"main"

let test_virtual_without_receiver () =
  Alcotest.check_raises "builder"
    (Invalid_argument "Builder.begin_method: a virtual method's n_args < 1")
    (fun () -> ignore (receiver_program ~n_args:0));
  let p = receiver_program ~n_args:1 in
  Verify.verify_program p;
  let a_m = Option.get (Bytecode.Program.find_method p "a_m") in
  p.Bytecode.Program.methods.(a_m.Mthd.id) <- { a_m with Mthd.n_args = 0 };
  let expected =
    {
      Verify.method_name = "a_m";
      pc = 0;
      message = "virtual method without a receiver (n_args=0)";
    }
  in
  Alcotest.check_raises "verifier" (Verify.Invalid expected) (fun () ->
      Verify.verify_program p);
  let error =
    Alcotest.testable
      (fun ppf (e : Verify.error) ->
        Format.fprintf ppf "%s at pc %d: %s" e.method_name e.pc e.message)
      ( = )
  in
  Alcotest.(check (list error))
    "collected" [ expected ] (Verify.verify_program_all p)

let test_workloads_verify () =
  List.iter
    (fun w ->
      let program =
        w.Workloads.Workload.build ~size:(min 50 w.Workloads.Workload.default_size)
      in
      Verify.verify_program program)
    Workloads.Registry.all

(* qcheck: random structured programs produced by the front end always
   verify — the Structured compiler's output stays inside the verifier's
   type discipline *)
let arb_program =
  let open QCheck.Gen in
  let rec gen_stmts depth st =
    let leaf =
      oneofl
        Workloads.Dsl.
          [
            set "x" (v "x" +! i 1);
            set "acc" (v "acc" +! v "x");
            seti (v "a") (v "x" &! i 7) (v "acc");
            set "acc" (v "acc" +! (v "a" @. (v "x" &! i 7)));
          ]
    in
    if depth = 0 then map (fun s -> [ s ]) leaf st
    else
      let sub = gen_stmts (depth - 1) in
      (oneof
         Workloads.Dsl.
           [
             map (fun s -> [ s ]) leaf;
             map2 (fun a b -> [ if_ (v "x" <! i 50) a b ]) sub sub;
             map (fun a -> [ for_ "k" (i 0) (i 5) a ]) sub;
             map (fun a -> [ while_ (v "x" <! i 10) (set "x" (v "x" +! i 1) :: a) ]) sub;
             map2 (fun a b -> a @ b) sub sub;
           ])
        st
  in
  QCheck.make ~print:(fun _ -> "<program>") (gen_stmts 3)

let prop_structured_verifies =
  QCheck.Test.make ~name:"front-end output always verifies" ~count:50
    arb_program (fun stmts ->
      let open Workloads.Dsl in
      let module S = Bytecode.Structured in
      let p = S.create () in
      S.def_method p ~name:"main" ~args:[] ~ret:S.I
        ~body:
          ([
             decl_i "x" (i 0);
             decl_i "acc" (i 0);
             decl "a" (S.Arr S.I) (new_arr S.I (i 8));
           ]
          @ stmts
          @ [ ret (v "acc") ])
        ();
      let program = S.link p ~entry:"main" in
      Verify.verify_program program;
      true)

let () =
  Alcotest.run "verify"
    [
      ( "rejections",
        [
          tc "stack underflow" `Quick test_underflow;
          tc "type mismatches" `Quick test_type_mismatch;
          tc "fall off end" `Quick test_fall_off_end;
          tc "bad local slot" `Quick test_bad_local;
          tc "wild branch target" `Quick test_bad_target;
          tc "merge inconsistency" `Quick test_merge_inconsistency;
          tc "call arity" `Quick test_call_arity_effects;
          tc "virtual method without a receiver" `Quick
            test_virtual_without_receiver;
        ] );
      ( "acceptance",
        [
          tc "straight-line code" `Quick test_accepts_straightline;
          tc "all workloads verify" `Quick test_workloads_verify;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_structured_verifies ]);
    ]
