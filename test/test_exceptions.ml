(* Exceptions: throw/catch semantics through the whole stack — front end,
   verifier, CFG, VM unwinding — and their interaction with the profiler
   and trace cache (the paper's "branches which are never taken, eg
   exceptions"). *)

open Workloads.Dsl
module S = Bytecode.Structured
module Interp = Vm.Interp

let tc = Alcotest.test_case
let check = Alcotest.check

let exception_classes p =
  S.def_class p ~name:"Exn" ~fields:[ ("code", S.I) ] ~methods:[] ();
  S.def_class p ~name:"RangeExn" ~super:"Exn" ~fields:[] ~methods:[] ();
  S.def_class p ~name:"OtherExn" ~super:"Exn" ~fields:[] ~methods:[] ()

let run_int ?(defs = fun (_ : S.t) -> ()) body =
  let p = S.create () in
  exception_classes p;
  defs p;
  S.def_method p ~name:"main" ~args:[] ~ret:S.I ~body ();
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  let layout = Cfg.Layout.build program in
  match (Interp.run_plain layout).Interp.outcome with
  | Interp.Finished (Some (Vm.Value.Vint n)) -> `Int n
  | Interp.Finished _ -> `Void
  | Interp.Trapped (k, _) -> `Trap k

let mk_exn cls code =
  (* helper statements building an exception object in local "e" *)
  [
    decl "e" S.R (new_obj cls);
    setf "Exn" "code" (v "e") (i code);
  ]

let test_throw_catch_local () =
  match
    run_int
      [
        decl_i "r" (i 0);
        try_
          (mk_exn "Exn" 7 @ [ throw (v "e"); set "r" (i 999) ])
          ~catch:("Exn", "ex")
          [ set "r" (getf "Exn" "code" (v "ex")) ];
        ret (v "r");
      ]
  with
  | `Int 7 -> ()
  | _ -> Alcotest.fail "expected caught code 7"

let test_no_throw_skips_handler () =
  match
    run_int
      [
        decl_i "r" (i 1);
        try_ [ set "r" (v "r" +! i 10) ] ~catch:("Exn", "ex")
          [ set "r" (i 999) ];
        ret (v "r");
      ]
  with
  | `Int 11 -> ()
  | _ -> Alcotest.fail "handler must not run without a throw"

let test_subclass_caught () =
  match
    run_int
      [
        decl_i "r" (i 0);
        try_
          (mk_exn "RangeExn" 3 @ [ throw (v "e") ])
          ~catch:("Exn", "ex")
          [ set "r" (i 42) ];
        ret (v "r");
      ]
  with
  | `Int 42 -> ()
  | _ -> Alcotest.fail "subclass must be caught by superclass handler"

let test_unrelated_class_propagates () =
  match
    run_int
      [
        try_
          (mk_exn "OtherExn" 1 @ [ throw (v "e") ])
          ~catch:("RangeExn", "ex")
          [ ret (i 1) ];
        ret (i 2);
      ]
  with
  | `Trap Interp.Uncaught_exception -> ()
  | _ -> Alcotest.fail "expected uncaught propagation past mismatched handler"

let test_nested_innermost_first () =
  match
    run_int
      [
        decl_i "r" (i 0);
        try_
          [
            try_
              (mk_exn "Exn" 5 @ [ throw (v "e") ])
              ~catch:("Exn", "inner")
              [ set "r" (i 1) ];
          ]
          ~catch:("Exn", "outer")
          [ set "r" (i 2) ];
        ret (v "r");
      ]
  with
  | `Int 1 -> ()
  | _ -> Alcotest.fail "innermost handler must win"

let test_rethrow_to_outer () =
  match
    run_int
      [
        decl_i "r" (i 0);
        try_
          [
            try_
              (mk_exn "Exn" 5 @ [ throw (v "e") ])
              ~catch:("Exn", "inner")
              [ set "r" (i 1); throw (v "inner") ];
          ]
          ~catch:("Exn", "outer")
          [ set "r" (v "r" +! i 10) ];
        ret (v "r");
      ]
  with
  | `Int 11 -> ()
  | _ -> Alcotest.fail "rethrow must reach the outer handler"

let test_unwind_across_frames () =
  let defs p =
    S.def_method p ~name:"deep" ~args:[ ("n", S.I) ] ~ret:S.I
      ~body:
        [
          when_ (v "n" =! i 0)
            (mk_exn "Exn" 77 @ [ throw (v "e") ]);
          ret (call "deep" [ v "n" -! i 1 ]);
        ]
      ()
  in
  match
    run_int ~defs
      [
        decl_i "r" (i 0);
        try_
          [ set "r" (call "deep" [ i 10 ]) ]
          ~catch:("Exn", "ex")
          [ set "r" (getf "Exn" "code" (v "ex")) ];
        ret (v "r");
      ]
  with
  | `Int 77 -> ()
  | _ -> Alcotest.fail "exception must unwind ten frames to the handler"

let test_uncaught_traps () =
  match run_int (mk_exn "Exn" 1 @ [ throw (v "e"); ret (i 0) ]) with
  | `Trap Interp.Uncaught_exception -> ()
  | _ -> Alcotest.fail "expected uncaught exception trap"

let test_throw_null_is_npe () =
  match run_int [ throw S.Cnull; ret (i 0) ] with
  | `Trap Interp.Null_pointer -> ()
  | _ -> Alcotest.fail "throw of null is a null pointer error"

let test_operand_stack_cleared () =
  (* values on the operand stack at the throw point must not leak into the
     handler: the handler sees exactly the exception object *)
  match
    run_int
      [
        decl_i "r" (i 0);
        try_
          [
            (* 1000 is on the operand stack when boom throws *)
            set "r" (i 1000 +! call "boom" []);
          ]
          ~catch:("Exn", "ex")
          [ set "r" (getf "Exn" "code" (v "ex")) ];
        ret (v "r");
      ]
      ~defs:(fun p ->
        S.def_method p ~name:"boom" ~args:[] ~ret:S.I
          ~body:(mk_exn "Exn" 13 @ [ throw (v "e"); ret (i 0) ])
          ())
  with
  | `Int 13 -> ()
  | _ -> Alcotest.fail "handler must see a clean stack"

let test_handlers_in_disasm_and_cfg () =
  let p = S.create () in
  exception_classes p;
  S.def_method p ~name:"main" ~args:[] ~ret:S.I
    ~body:
      [
        decl_i "r" (i 0);
        try_
          (mk_exn "Exn" 1 @ [ throw (v "e") ])
          ~catch:("Exn", "ex")
          [ set "r" (i 5) ];
        ret (v "r");
      ]
    ();
  let program = S.link p ~entry:"main" in
  let main = Bytecode.Program.entry_method program in
  check Alcotest.int "one handler" 1 (Array.length main.Bytecode.Mthd.handlers);
  let h = main.Bytecode.Mthd.handlers.(0) in
  (* the handler target starts a basic block *)
  let cfg = Cfg.Method_cfg.build main in
  let b =
    cfg.Cfg.Method_cfg.blocks.(Cfg.Method_cfg.block_index_at_pc cfg
                                   h.Bytecode.Mthd.h_target)
  in
  check Alcotest.int "handler target is a leader" h.Bytecode.Mthd.h_target
    b.Cfg.Block.start_pc;
  let listing = Bytecode.Disasm.method_to_string program main in
  check Alcotest.bool "handler listed" true
    (let rec contains i =
       i + 7 <= String.length listing
       && (String.sub listing i 7 = "handler" || contains (i + 1))
     in
     contains 0)

let test_verifier_rejects_bad_handler () =
  (* hand-build a handler whose target expects an empty stack *)
  let b = Bytecode.Builder.create () in
  Bytecode.Builder.declare_class b ~name:"Exn" ~fields:[] ~methods:[] ();
  let m =
    Bytecode.Builder.begin_method b ~name:"main" ~returns:Bytecode.Mthd.Rint
      ~n_args:0 ~n_locals:1 ()
  in
  let l_start = Bytecode.Builder.new_label m in
  let l_end = Bytecode.Builder.new_label m in
  let l_handler = Bytecode.Builder.new_label m in
  Bytecode.Builder.place m l_start;
  Bytecode.Builder.iconst m 1;
  Bytecode.Builder.place m l_end;
  Bytecode.Builder.i m Bytecode.Instr.Ireturn;
  Bytecode.Builder.place m l_handler;
  (* BUG: handler consumes the exception as an int *)
  Bytecode.Builder.i m Bytecode.Instr.Ireturn;
  Bytecode.Builder.add_handler m ~from_:l_start ~to_:l_end ~target:l_handler
    ~cls:"Exn";
  Bytecode.Builder.finish_method m;
  let program = Bytecode.Builder.link b ~entry:"main" in
  try
    Bytecode.Verify.verify_program program;
    Alcotest.fail "expected handler stack-type rejection"
  with Bytecode.Verify.Invalid _ -> ()

(* exceptions as rare trace exits: a hot loop that throws once in a while;
   the engine must keep high completion and stay transparent *)
let test_rare_exceptions_in_traces () =
  let p = S.create () in
  exception_classes p;
  S.def_method p ~name:"may_throw" ~args:[ ("k", S.I) ] ~ret:S.I
    ~body:
      [
        when_
          ((v "k" &! i 1023) =! i 1023)
          (mk_exn "RangeExn" 1 @ [ throw (v "e") ]);
        ret (v "k" *! i 3 &! i 0xFFFF);
      ]
    ();
  S.def_method p ~name:"main" ~args:[] ~ret:S.I
    ~body:
      [
        decl_i "s" (i 0);
        decl_i "caught" (i 0);
        for_ "k" (i 0) (i 40_000)
          [
            try_
              [ set "s" ((v "s" +! call "may_throw" [ v "k" ]) &! i 0xFFFFF) ]
              ~catch:("Exn", "ex")
              [ set "caught" (v "caught" +! i 1) ];
          ];
        ret ((v "s" *! i 64) +! v "caught");
      ]
    ();
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  let layout = Cfg.Layout.build program in
  let plain = Interp.run_plain layout in
  let traced = Tracegen.Engine.run layout in
  check Alcotest.bool "transparent with rare exceptions" true
    (Interp.result_value plain
    = Interp.result_value traced.Tracegen.Engine.vm_result);
  (match Interp.result_value plain with
  | Some (Vm.Value.Vint n) ->
      check Alcotest.int "39 exceptions thrown and caught" 39 (n land 63)
  | _ -> Alcotest.fail "int expected");
  let s = traced.Tracegen.Engine.run_stats in
  check Alcotest.bool "exceptions barely dent completion" true
    (Tracegen.Stats.completion_rate s > 0.95);
  check Alcotest.bool "hot loop still covered" true
    (Tracegen.Stats.coverage_total s > 0.7)

let () =
  Alcotest.run "exceptions"
    [
      ( "semantics",
        [
          tc "throw/catch local" `Quick test_throw_catch_local;
          tc "no throw, no handler" `Quick test_no_throw_skips_handler;
          tc "subclass caught" `Quick test_subclass_caught;
          tc "unrelated class propagates" `Quick test_unrelated_class_propagates;
          tc "nested innermost first" `Quick test_nested_innermost_first;
          tc "rethrow to outer" `Quick test_rethrow_to_outer;
          tc "unwind across frames" `Quick test_unwind_across_frames;
          tc "uncaught traps" `Quick test_uncaught_traps;
          tc "throw null" `Quick test_throw_null_is_npe;
          tc "operand stack cleared" `Quick test_operand_stack_cleared;
        ] );
      ( "structure",
        [
          tc "handlers in disasm and cfg" `Quick test_handlers_in_disasm_and_cfg;
          tc "verifier rejects bad handler" `Quick test_verifier_rejects_bad_handler;
        ] );
      ( "tracing",
        [ tc "rare exceptions in traces" `Quick test_rare_exceptions_in_traces ] );
    ]
