(** The instruction set of the virtual machine: a stack-based bytecode
    modeled on the JVM subset that matters for block-level dispatch and
    trace generation — integer and float arithmetic, locals, objects with
    virtual dispatch, arrays, conditional branches, switches and calls.

    Branch and switch targets are absolute instruction indices within the
    enclosing method; {!Builder} provides symbolic labels and resolves
    them. *)

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
  | Iconst of int
  | Fconst of float
  | Aconst_null
  | Iload of int
  | Istore of int
  | Fload of int
  | Fstore of int
  | Aload of int
  | Astore of int
  | Iinc of int * int  (** local slot, immediate delta *)
  | Dup
  | Pop
  | Swap
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
  | Fadd
  | Fsub
  | Fmul
  | Fdiv
  | Fneg
  | F2i
  | I2f
  | Fcmp  (** pushes -1, 0 or 1 *)
  | If_icmp of cond * int  (** pops two ints, branches on comparison *)
  | Ifz of cond * int  (** pops one int, compares against zero *)
  | Goto of int
  | Tableswitch of { low : int; targets : int array; default : int }
  | Invokestatic of int  (** method id *)
  | Invokevirtual of int
      (** global selector slot, resolved through the receiver's vtable *)
  | Return
  | Ireturn
  | Freturn
  | Areturn
  | New of int  (** class id *)
  | Getfield of int * int
      (** static class id (for verification) and field slot (valid for all
          subclasses: layouts place inherited fields first) *)
  | Putfield of int * int
  | Instanceof of int
  | Newarray of array_kind
  | Iaload
  | Iastore
  | Faload
  | Fastore
  | Aaload
  | Aastore
  | Arraylength
  | Athrow
      (** pops the exception object; control transfers to the innermost
          covering handler, unwinding frames as needed *)
  | Nop

val cond_to_string : cond -> string

val negate_cond : cond -> cond

val eval_cond : cond -> int -> bool
(** [eval_cond c n] evaluates the condition against a comparison result or
    operand [n] (e.g. [Lt] holds when [n < 0]). *)

val array_kind_to_string : array_kind -> string

val ends_block : t -> bool
(** Whether control after this instruction does not necessarily fall
    through in sequence — branches, switches, returns, and calls (the
    direct-threaded-inlining interpreter dispatches into callees). *)

val branch_targets : t -> int list
(** Instruction indices this instruction can branch to; they become block
    leaders. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
