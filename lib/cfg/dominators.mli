(** Iterative dominator computation (Cooper–Harvey–Kennedy) over a method
    CFG, plus back-edge and natural-loop discovery. *)

type t = {
  idom : int array;
      (** immediate dominator; the entry maps to itself; -1 marks
          unreachable blocks *)
  rpo : int array;  (** reverse postorder of the reachable blocks *)
}

val compute : Method_cfg.t -> t

val dominates : t -> dom:int -> sub:int -> bool

val back_edges : Method_cfg.t -> t -> (int * int) list
(** Edges [(b, h)] where [h] dominates [b]. *)

val natural_loop : Method_cfg.t -> back:int * int -> int list
(** The natural loop of a back edge: every block that reaches the latch
    without passing through the header, plus the header.  Sorted. *)
