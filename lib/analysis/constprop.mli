(** Forward constant/interval propagation over locals and the operand
    stack — a richer domain than the verifier's stack types.

    Integers are tracked as intervals whose non-singleton bounds are
    widened to a small threshold set at joins, so the lattice has finite
    height and the {!Dataflow} solver terminates without an explicit
    widening point.  Singleton arithmetic uses the exact operations the
    interpreter uses (OCaml native ints, [lsl (n land 63)], …), so a
    singleton claim can be cross-validated against observed execution.
    Floats are tracked as exact constants or nothing; references only as
    null / non-null.

    The analysis is path-insensitive (no branch refinement) and
    conservative across calls and heap reads ([Top]).  Handler entry
    blocks are seeded with all-[Top] locals and the exception object as
    the only stack operand, which keeps the result sound along unwind
    paths without modelling them edge-by-edge. *)

type aval =
  | Top  (** no information *)
  | Int of { lo : int; hi : int }  (** integer in [[lo, hi]], [lo <= hi] *)
  | Float_const of float
  | Null
  | Nonnull

type state =
  | Unreached
  | Reached of {
      locals : aval array;
      stack : aval list;  (** head is the top of the operand stack *)
    }

type t = {
  program : Bytecode.Program.t;
  cfg : Cfg.Method_cfg.t;
  entry : state array;  (** abstract frame on entry to each block *)
  exit : state array;
  iterations : int;
}

val compute : Bytecode.Program.t -> Cfg.Method_cfg.t -> t
(** The program supplies callee signatures (stack effects of calls). *)

type finding =
  | Branch_always of { block : int; pc : int; taken : bool }
      (** the conditional branch at [pc] always goes the same way *)
  | Div_by_zero of { block : int; pc : int }
      (** the divisor at [pc] is provably zero on every execution *)

val findings : t -> finding list
(** Per-instruction facts from re-simulating each reached block from its
    entry state; ordered by pc. *)

