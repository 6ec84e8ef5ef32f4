(* The instruction set of the virtual machine: a stack-based bytecode modeled
   on the JVM subset that matters for block-level dispatch and trace
   generation — integer and float arithmetic, locals, objects with virtual
   dispatch, arrays, conditional branches, switches and calls.

   Branch targets and switch targets are absolute instruction indices within
   the enclosing method; the {!Builder} module provides symbolic labels and
   resolves them. *)

type cond =
  | Eq
  | Ne
  | Lt
  | Ge
  | Gt
  | Le

type array_kind =
  | Int_array
  | Float_array
  | Ref_array

type t =
  (* Constants and locals *)
  | Iconst of int
  | Fconst of float
  | Aconst_null
  | Iload of int
  | Istore of int
  | Fload of int
  | Fstore of int
  | Aload of int
  | Astore of int
  | Iinc of int * int
  (* Operand stack manipulation *)
  | Dup
  | Pop
  | Swap
  (* Integer arithmetic and logic *)
  | Iadd
  | Isub
  | Imul
  | Idiv
  | Irem
  | Ineg
  | Iand
  | Ior
  | Ixor
  | Ishl
  | Ishr
  | Iushr
  (* Float arithmetic and conversion *)
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fneg
  | F2i
  | I2f
  | Fcmp (* pushes -1, 0 or 1 *)
  (* Control flow; operands are absolute instruction indices *)
  | If_icmp of cond * int (* pops two ints, branches on comparison *)
  | Ifz of cond * int (* pops one int, compares against zero *)
  | Goto of int
  | Tableswitch of { low : int; targets : int array; default : int }
  (* Calls and returns; operand of Invokestatic is a method id, operand of
     Invokevirtual is a global selector slot resolved through the receiver's
     vtable *)
  | Invokestatic of int
  | Invokevirtual of int
  | Return
  | Ireturn
  | Freturn
  | Areturn
  (* Objects; New carries a class id, field accesses carry the static class
     id (for verification) and the field slot (valid for all subclasses
     because layouts place inherited fields first) *)
  | New of int
  | Getfield of int * int
  | Putfield of int * int
  | Instanceof of int
  (* Arrays *)
  | Newarray of array_kind
  | Iaload
  | Iastore
  | Faload
  | Fastore
  | Aaload
  | Aastore
  | Arraylength
  (* Exceptions: pops the exception object and transfers control to the
     innermost covering handler, unwinding frames as needed *)
  | Athrow
  (* Misc *)
  | Nop

let cond_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Ge -> "ge"
  | Gt -> "gt"
  | Le -> "le"

let negate_cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Ge -> Lt
  | Gt -> Le
  | Le -> Gt

(* Inlined into the interpreter's conditional branches. *)
let[@inline] eval_cond c n =
  match c with
  | Eq -> n = 0
  | Ne -> n <> 0
  | Lt -> n < 0
  | Ge -> n >= 0
  | Gt -> n > 0
  | Le -> n <= 0

let array_kind_to_string = function
  | Int_array -> "int"
  | Float_array -> "float"
  | Ref_array -> "ref"

(* Block-boundary classification, used by the CFG builder.  An instruction
   [ends_block] when control after it does not necessarily fall through to
   the next instruction in sequence — or, for calls, when the
   direct-threaded-inlining interpreter must emit a dispatch (control
   transfers to the callee). *)
let ends_block = function
  | If_icmp _ | Ifz _ | Goto _ | Tableswitch _ | Invokestatic _
  | Invokevirtual _ | Return | Ireturn | Freturn | Areturn | Athrow ->
      true
  | Iconst _ | Fconst _ | Aconst_null | Iload _ | Istore _ | Fload _
  | Fstore _ | Aload _ | Astore _ | Iinc _ | Dup | Pop | Swap | Iadd | Isub
  | Imul | Idiv | Irem | Ineg | Iand | Ior | Ixor | Ishl | Ishr | Iushr
  | Fadd | Fsub | Fmul | Fdiv | Fneg | F2i | I2f | Fcmp | New _ | Getfield _
  | Putfield _ | Instanceof _ | Newarray _ | Iaload | Iastore | Faload
  | Fastore | Aaload | Aastore | Arraylength | Nop ->
      false

(* Instruction indices that are branch targets; they become block leaders. *)
let branch_targets = function
  | If_icmp (_, t) | Ifz (_, t) | Goto t -> [ t ]
  | Tableswitch { targets; default; _ } ->
      default :: Array.to_list targets
  | Iconst _ | Fconst _ | Aconst_null | Iload _ | Istore _ | Fload _
  | Fstore _ | Aload _ | Astore _ | Iinc _ | Dup | Pop | Swap | Iadd | Isub
  | Imul | Idiv | Irem | Ineg | Iand | Ior | Ixor | Ishl | Ishr | Iushr
  | Fadd | Fsub | Fmul | Fdiv | Fneg | F2i | I2f | Fcmp | Invokestatic _
  | Invokevirtual _ | Return | Ireturn | Freturn | Areturn | Athrow | New _
  | Getfield _ | Putfield _ | Instanceof _ | Newarray _ | Iaload | Iastore
  | Faload | Fastore | Aaload | Aastore | Arraylength | Nop ->
      []

let pp ppf t =
  let s fmt = Format.fprintf ppf fmt in
  match t with
  | Iconst n -> s "iconst %d" n
  | Fconst f -> s "fconst %g" f
  | Aconst_null -> s "aconst_null"
  | Iload n -> s "iload %d" n
  | Istore n -> s "istore %d" n
  | Fload n -> s "fload %d" n
  | Fstore n -> s "fstore %d" n
  | Aload n -> s "aload %d" n
  | Astore n -> s "astore %d" n
  | Iinc (l, d) -> s "iinc %d %d" l d
  | Dup -> s "dup"
  | Pop -> s "pop"
  | Swap -> s "swap"
  | Iadd -> s "iadd"
  | Isub -> s "isub"
  | Imul -> s "imul"
  | Idiv -> s "idiv"
  | Irem -> s "irem"
  | Ineg -> s "ineg"
  | Iand -> s "iand"
  | Ior -> s "ior"
  | Ixor -> s "ixor"
  | Ishl -> s "ishl"
  | Ishr -> s "ishr"
  | Iushr -> s "iushr"
  | Fadd -> s "fadd"
  | Fsub -> s "fsub"
  | Fmul -> s "fmul"
  | Fdiv -> s "fdiv"
  | Fneg -> s "fneg"
  | F2i -> s "f2i"
  | I2f -> s "i2f"
  | Fcmp -> s "fcmp"
  | If_icmp (c, t) -> s "if_icmp%s -> %d" (cond_to_string c) t
  | Ifz (c, t) -> s "if%s -> %d" (cond_to_string c) t
  | Goto t -> s "goto %d" t
  | Tableswitch { low; targets; default } ->
      s "tableswitch low=%d targets=[%s] default=%d" low
        (String.concat ";"
           (Array.to_list (Array.map string_of_int targets)))
        default
  | Invokestatic m -> s "invokestatic #%d" m
  | Invokevirtual sel -> s "invokevirtual sel#%d" sel
  | Return -> s "return"
  | Ireturn -> s "ireturn"
  | Freturn -> s "freturn"
  | Areturn -> s "areturn"
  | New c -> s "new #%d" c
  | Getfield (c, f) -> s "getfield #%d.%d" c f
  | Putfield (c, f) -> s "putfield #%d.%d" c f
  | Instanceof c -> s "instanceof #%d" c
  | Newarray k -> s "newarray %s" (array_kind_to_string k)
  | Iaload -> s "iaload"
  | Iastore -> s "iastore"
  | Faload -> s "faload"
  | Fastore -> s "fastore"
  | Aaload -> s "aaload"
  | Aastore -> s "aastore"
  | Arraylength -> s "arraylength"
  | Athrow -> s "athrow"
  | Nop -> s "nop"

let to_string t = Format.asprintf "%a" pp t
