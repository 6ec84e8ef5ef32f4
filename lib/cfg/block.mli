module Instr = Bytecode.Instr

(** Basic blocks as the direct-threaded-inlining interpreter sees them: a
    maximal straight-line instruction sequence ending at a control
    transfer.  Calls end blocks too — the inlining interpreter must
    dispatch into the callee — so a call block's intraprocedural successor
    is its return continuation. *)

type terminator =
  | T_cond of Instr.cond * int * int  (** taken pc, fallthrough pc *)
  | T_goto of int
  | T_switch of { low : int; targets : int array; default : int }
  | T_call of { next_pc : int; virtual_ : bool }
  | T_return
  | T_throw
      (** control leaves through the exception machinery; any covering
          handler is an exceptional (dynamic) edge, not a CFG successor *)
  | T_fallthrough of int
      (** the block ends only because the next pc is a leader *)

type t = {
  method_id : int;
  index : int;  (** block index within the method *)
  start_pc : int;
  len : int;  (** number of instructions *)
  term : terminator;
}

val end_pc : t -> int
(** One past the last instruction. *)

val last_pc : t -> int

val pp : Format.formatter -> t -> unit
