(* Method representation.  Locals [0 .. n_args-1] hold the arguments at
   entry (for virtual methods the receiver is local 0 and counts toward
   [n_args]); the remaining locals up to [n_locals] start as zero/null. *)

type return_type =
  | Rvoid
  | Rint
  | Rfloat
  | Rref

type kind =
  | Static
  | Virtual

(* An exception handler: protects pcs in [h_from, h_to) and receives
   exceptions whose class is a subclass of [h_class] at [h_target] (with
   the exception object as the only stack operand). *)
type handler = {
  h_from : int;
  h_to : int; (* exclusive *)
  h_target : int;
  h_class : int; (* class id the handler catches (with subclasses) *)
}

type t = {
  id : int;
  name : string;
  kind : kind;
  n_args : int; (* argument slots, receiver included for virtual methods *)
  n_locals : int; (* total local slots, n_locals >= n_args *)
  returns : return_type;
  code : Instr.t array;
  handlers : handler array; (* innermost-first for nested regions *)
}

(* The innermost handler covering [pc] whose class matches, searching in
   table order. *)
let handler_for t ~pc ~cls ~is_subclass =
  let n = Array.length t.handlers in
  let rec go i =
    if i >= n then None
    else
      let h = t.handlers.(i) in
      if pc >= h.h_from && pc < h.h_to && is_subclass ~sub:cls ~super:h.h_class
      then Some h
      else go (i + 1)
  in
  go 0

let return_type_to_string = function
  | Rvoid -> "void"
  | Rint -> "int"
  | Rfloat -> "float"
  | Rref -> "ref"

let kind_to_string = function Static -> "static" | Virtual -> "virtual"

let pp ppf t =
  Format.fprintf ppf "%s %s %s(args=%d, locals=%d) [%d instrs]"
    (kind_to_string t.kind)
    (return_type_to_string t.returns)
    t.name t.n_args t.n_locals (Array.length t.code)
