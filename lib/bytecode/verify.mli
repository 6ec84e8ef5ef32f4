(** A static bytecode verifier in the style of the JVM's: abstract
    interpretation over stack shapes.

    For every reachable instruction the verifier computes the operand
    stack as a list of abstract types (int / float / reference) and checks
    that every instruction finds the operands it needs, that merge points
    agree on the stack shape, that branch targets, field slots and local
    slots are in range, and that execution cannot fall off the end of the
    code. *)

type vty =
  | Vint
  | Vfloat
  | Vref

type error = {
  method_name : string;
  pc : int;
  message : string;
}

exception Invalid of error

val verify_program : Program.t -> unit
(** Verify every method.  @raise Invalid on the first violation. *)

val verify_program_all : Program.t -> error list
(** {!verify_method_all} over every method, in method order — the linter's
    entry point. *)

val error_to_string : error -> string
