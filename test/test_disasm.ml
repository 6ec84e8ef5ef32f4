(* Disassembler and runtime values. *)

module Disasm = Bytecode.Disasm
module Program = Bytecode.Program
module Value = Vm.Value

let tc = Alcotest.test_case
let check = Alcotest.check

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let program = lazy (Workloads.Workload.build_default Workloads.Javacish.workload)

let test_program_listing () =
  let p = Lazy.force program in
  let s = Disasm.program_to_string p in
  (* symbolic names appear instead of raw ids *)
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " appears") true (contains s name))
    [ "invokestatic rng_next"; "invokevirtual eval"; "new Num";
      "getfield Bin.left"; "class Varn"; "main" ]

let test_method_listing () =
  let p = Lazy.force program in
  let m = Option.get (Program.find_method p "bin_eval") in
  let s = Disasm.method_to_string p m in
  check Alcotest.bool "mentions tableswitch" true (contains s "tableswitch");
  check Alcotest.bool "branch targets marked" true (contains s ">")

let test_every_method_lists () =
  let p = Lazy.force program in
  Array.iter
    (fun m ->
      let s = Disasm.method_to_string p m in
      check Alcotest.bool m.Bytecode.Mthd.name true (String.length s > 0))
    p.Program.methods

let test_values () =
  check Alcotest.string "int" "42" (Value.to_string (Value.Vint 42));
  check Alcotest.string "null" "null" (Value.to_string Value.Vnull);
  check Alcotest.bool "float prints" true
    (String.length (Value.to_string (Value.Vfloat 1.5)) > 0);
  let arr = Value.Varr { Value.kind = Bytecode.Instr.Int_array; cells = Value.Ints [| 1 |] } in
  check Alcotest.string "array" "int[1]" (Value.to_string arr);
  let obj = Value.Vobj { Value.cls = 3; fields = [| Value.Vnull; Value.Vint 0 |] } in
  check Alcotest.bool "object mentions class" true
    (contains (Value.to_string obj) "#3")

let test_value_defaults () =
  check Alcotest.bool "int field default" true
    (Value.default_of_field_kind Bytecode.Klass.Kint = Value.Vint 0);
  check Alcotest.bool "float field default" true
    (Value.default_of_field_kind Bytecode.Klass.Kfloat = Value.Vfloat 0.0);
  check Alcotest.bool "ref field default" true
    (Value.default_of_field_kind Bytecode.Klass.Kref = Value.Vnull)

let () =
  Alcotest.run "disasm"
    [
      ( "listings",
        [
          tc "program" `Quick test_program_listing;
          tc "method" `Quick test_method_listing;
          tc "all methods" `Quick test_every_method_lists;
        ] );
      ( "values",
        [
          tc "to_string" `Quick test_values;
          tc "defaults" `Quick test_value_defaults;
        ] );
    ]
