module Mthd = Bytecode.Mthd

(** Basic-block discovery for one method.

    Leaders are: pc 0, every branch/switch target, and the pc following
    any block-ending instruction (branch, switch, call, return).  Blocks
    cover the instruction array exactly, in order; unreachable blocks are
    kept (the VM never enters them, so the profiler never sees them). *)

type t = {
  method_ : Mthd.t;
  blocks : Block.t array;
  pc_to_block : int array;  (** pc -> block index *)
}

val build : Mthd.t -> t
(** @raise Invalid_argument on out-of-range branch targets or control
    falling off the end of the code. *)

val n_blocks : t -> int

val block_index_at_pc : t -> int -> int

val successors : t -> Block.t -> int list
(** Intraprocedural successor block indices.  Calls fall through to their
    return continuation; returns have none. *)

val predecessors : t -> int list array
(** Predecessor lists for every block, computed on demand. *)

val pp : Format.formatter -> t -> unit
