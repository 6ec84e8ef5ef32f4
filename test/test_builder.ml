module B = Bytecode.Builder
module Instr = Bytecode.Instr
module Mthd = Bytecode.Mthd
module Klass = Bytecode.Klass
module Program = Bytecode.Program

let tc = Alcotest.test_case
let check = Alcotest.check

(* a tiny program: main() { return f(2) + 3 } ; f(x) = x * x *)
let build_simple () =
  let b = B.create () in
  let f =
    B.begin_method b ~name:"f" ~returns:Mthd.Rint ~n_args:1 ~n_locals:1 ()
  in
  B.i f (Instr.Iload 0);
  B.i f (Instr.Iload 0);
  B.i f Instr.Imul;
  B.i f Instr.Ireturn;
  B.finish_method f;
  let m =
    B.begin_method b ~name:"main" ~returns:Mthd.Rint ~n_args:0 ~n_locals:0 ()
  in
  B.iconst m 2;
  B.invokestatic m "f";
  B.iconst m 3;
  B.i m Instr.Iadd;
  B.i m Instr.Ireturn;
  B.finish_method m;
  B.link b ~entry:"main"

let test_link_simple () =
  let p = build_simple () in
  check Alcotest.int "two methods" 2 (Array.length p.Program.methods);
  let main = Program.entry_method p in
  check Alcotest.string "entry is main" "main" main.Mthd.name;
  (* the call resolved to f's id *)
  let f = Option.get (Program.find_method p "f") in
  (match main.Mthd.code.(1) with
  | Instr.Invokestatic id -> check Alcotest.int "call target" f.Mthd.id id
  | ins -> Alcotest.failf "expected invokestatic, got %s" (Instr.to_string ins))

let test_labels () =
  let b = B.create () in
  let m =
    B.begin_method b ~name:"main" ~returns:Mthd.Rint ~n_args:0 ~n_locals:1 ()
  in
  let l_end = B.new_label m in
  B.iconst m 5;
  B.i m (Instr.Istore 0);
  B.i m (Instr.Iload 0);
  B.ifz m Instr.Gt l_end;
  B.iconst m 0;
  B.i m (Instr.Istore 0);
  B.place m l_end;
  B.i m (Instr.Iload 0);
  B.i m Instr.Ireturn;
  B.finish_method m;
  let p = B.link b ~entry:"main" in
  let main = Program.entry_method p in
  (match main.Mthd.code.(3) with
  | Instr.Ifz (Instr.Gt, target) -> check Alcotest.int "resolved target" 6 target
  | ins -> Alcotest.failf "expected ifz, got %s" (Instr.to_string ins))

let test_unplaced_label_rejected () =
  let b = B.create () in
  let m = B.begin_method b ~name:"main" ~n_args:0 ~n_locals:0 () in
  let l = B.new_label m in
  B.goto m l;
  (try
     B.finish_method m;
     Alcotest.fail "expected failure for unplaced label"
   with Invalid_argument _ -> ())

let test_duplicate_method_rejected () =
  let b = B.create () in
  let m = B.begin_method b ~name:"f" ~n_args:0 ~n_locals:0 () in
  B.i m Instr.Return;
  B.finish_method m;
  try
    ignore (B.begin_method b ~name:"f" ~n_args:0 ~n_locals:0 ());
    Alcotest.fail "expected duplicate rejection"
  with Invalid_argument _ -> ()

let test_unknown_call_rejected () =
  let b = B.create () in
  let m =
    B.begin_method b ~name:"main" ~returns:Mthd.Rvoid ~n_args:0 ~n_locals:0 ()
  in
  B.invokestatic m "missing";
  B.i m Instr.Return;
  B.finish_method m;
  try
    ignore (B.link b ~entry:"main");
    Alcotest.fail "expected unknown-method rejection"
  with Invalid_argument _ -> ()

(* class hierarchy: A{x} <- B{y}, selector "get" overridden in B *)
let build_classes () =
  let b = B.create () in
  B.declare_class b ~name:"A" ~fields:[ ("x", Klass.Kint) ]
    ~methods:[ ("get", "a_get") ] ();
  B.declare_class b ~name:"B" ~super:"A"
    ~fields:[ ("y", Klass.Kint) ]
    ~methods:[ ("get", "b_get") ] ();
  let a_get =
    B.begin_method b ~name:"a_get" ~kind:Mthd.Virtual ~returns:Mthd.Rint
      ~n_args:1 ~n_locals:1 ()
  in
  B.i a_get (Instr.Aload 0);
  B.getfield a_get "A" "x";
  B.i a_get Instr.Ireturn;
  B.finish_method a_get;
  let b_get =
    B.begin_method b ~name:"b_get" ~kind:Mthd.Virtual ~returns:Mthd.Rint
      ~n_args:1 ~n_locals:1 ()
  in
  B.i b_get (Instr.Aload 0);
  B.getfield b_get "B" "y";
  B.i b_get Instr.Ireturn;
  B.finish_method b_get;
  let m =
    B.begin_method b ~name:"main" ~returns:Mthd.Rint ~n_args:0 ~n_locals:1 ()
  in
  B.new_object m "B";
  B.i m (Instr.Astore 0);
  B.i m (Instr.Aload 0);
  B.iconst m 41;
  B.putfield m "B" "y";
  B.i m (Instr.Aload 0);
  B.invokevirtual m "get";
  B.i m Instr.Ireturn;
  B.finish_method m;
  B.link b ~entry:"main"

let find_class (p : Program.t) name =
  Array.find_opt (fun k -> k.Klass.name = name) p.Program.classes

let test_field_layout () =
  let p = build_classes () in
  let a = Option.get (find_class p "A") in
  let b = Option.get (find_class p "B") in
  check Alcotest.int "A has one field" 1 (Klass.n_fields a);
  check Alcotest.int "B inherits x then adds y" 2 (Klass.n_fields b);
  check (Alcotest.option Alcotest.int) "x at slot 0 in B" (Some 0)
    (Klass.field_slot b "x");
  check (Alcotest.option Alcotest.int) "y at slot 1 in B" (Some 1)
    (Klass.field_slot b "y")

let test_vtable_override () =
  let p = build_classes () in
  let a = Option.get (find_class p "A") in
  let b = Option.get (find_class p "B") in
  let a_get = Option.get (Program.find_method p "a_get") in
  let b_get = Option.get (Program.find_method p "b_get") in
  (* selector slot 0 is "get" (only selector) *)
  check (Alcotest.option Alcotest.int) "A.get -> a_get" (Some a_get.Mthd.id)
    (Klass.method_for_selector a ~slot:0);
  check (Alcotest.option Alcotest.int) "B.get -> b_get" (Some b_get.Mthd.id)
    (Klass.method_for_selector b ~slot:0)

let test_subclassing () =
  let p = build_classes () in
  let a = Option.get (find_class p "A") in
  let b = Option.get (find_class p "B") in
  check Alcotest.bool "B <: A" true
    (Klass.is_subclass_of p.Program.classes ~sub:b.Klass.id ~super:a.Klass.id);
  check Alcotest.bool "A not <: B" false
    (Klass.is_subclass_of p.Program.classes ~sub:a.Klass.id ~super:b.Klass.id);
  check Alcotest.bool "A <: A" true
    (Klass.is_subclass_of p.Program.classes ~sub:a.Klass.id ~super:a.Klass.id)

let test_entry_must_be_static_zero_arg () =
  let b = B.create () in
  let m =
    B.begin_method b ~name:"main" ~returns:Mthd.Rint ~n_args:1 ~n_locals:1 ()
  in
  B.i m (Instr.Iload 0);
  B.i m Instr.Ireturn;
  B.finish_method m;
  try
    ignore (B.link b ~entry:"main");
    Alcotest.fail "expected entry arity rejection"
  with Invalid_argument _ -> ()

let test_run_simple () =
  (* sanity: the built program actually computes 2*2+3 *)
  let p = build_simple () in
  let layout = Cfg.Layout.build p in
  let r = Vm.Interp.run_plain layout in
  match Vm.Interp.result_value r with
  | Some (Vm.Value.Vint 7) -> ()
  | v ->
      Alcotest.failf "expected 7, got %s"
        (match v with Some x -> Vm.Value.to_string x | None -> "void")

let test_run_classes () =
  let p = build_classes () in
  let layout = Cfg.Layout.build p in
  match Vm.Interp.result_value (Vm.Interp.run_plain layout) with
  | Some (Vm.Value.Vint 41) -> ()
  | _ -> Alcotest.fail "virtual dispatch should reach b_get and read y=41"

let () =
  Alcotest.run "builder"
    [
      ( "methods",
        [
          tc "link simple program" `Quick test_link_simple;
          tc "labels resolve" `Quick test_labels;
          tc "unplaced label rejected" `Quick test_unplaced_label_rejected;
          tc "duplicate method rejected" `Quick test_duplicate_method_rejected;
          tc "unknown call rejected" `Quick test_unknown_call_rejected;
          tc "entry arity checked" `Quick test_entry_must_be_static_zero_arg;
        ] );
      ( "classes",
        [
          tc "field layout inheritance" `Quick test_field_layout;
          tc "vtable override" `Quick test_vtable_override;
          tc "subclass relation" `Quick test_subclassing;
        ] );
      ( "execution",
        [
          tc "simple program runs" `Quick test_run_simple;
          tc "virtual dispatch runs" `Quick test_run_classes;
        ] );
    ]
