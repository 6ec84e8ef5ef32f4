module Instr = Bytecode.Instr
module Mthd = Bytecode.Mthd
module Klass = Bytecode.Klass
module Program = Bytecode.Program

(* Basic blocks as the direct-threaded-inlining interpreter sees them: a
   maximal straight-line instruction sequence ending at a control transfer.
   Calls end blocks too — the inlining interpreter must dispatch into the
   callee — so the successor set of a call block is the return continuation
   (recorded as [Sk_call]). *)

type terminator =
  | T_cond of Instr.cond * int * int (* taken pc, fallthrough pc *)
  | T_goto of int
  | T_switch of { low : int; targets : int array; default : int }
  | T_call of { next_pc : int; virtual_ : bool }
  | T_return
  | T_throw
  | T_fallthrough of int (* block ends because the next pc is a leader *)

type t = {
  method_id : int;
  index : int; (* block index within the method *)
  start_pc : int;
  len : int; (* number of instructions *)
  term : terminator;
}

let end_pc b = b.start_pc + b.len (* exclusive *)

let last_pc b = b.start_pc + b.len - 1

let terminator_to_string = function
  | T_cond (c, t, f) ->
      Printf.sprintf "cond(%s) taken=%d fall=%d" (Instr.cond_to_string c) t f
  | T_goto t -> Printf.sprintf "goto %d" t
  | T_switch { targets; default; _ } ->
      Printf.sprintf "switch(%d targets, default=%d)" (Array.length targets)
        default
  | T_call { next_pc; virtual_ } ->
      Printf.sprintf "%s-call ret=%d" (if virtual_ then "v" else "s") next_pc
  | T_return -> "return"
  | T_throw -> "throw"
  | T_fallthrough t -> Printf.sprintf "fallthrough %d" t

let pp ppf b =
  Format.fprintf ppf "B%d.%d [%d..%d) %s" b.method_id b.index b.start_pc
    (end_pc b) (terminator_to_string b.term)
