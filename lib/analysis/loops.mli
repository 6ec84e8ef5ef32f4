(** Loop discovery and nesting classification on {!Cfg.Dominators}.

    A {e back edge} is an edge [(latch, header)] whose target dominates
    its source; its natural loop is the set of blocks that reach the
    latch without passing through the header.  Back edges with a shared
    header are merged into one loop with several latches.  Retreating
    edges (target not later in reverse postorder) that are {e not} back
    edges mark irreducible control flow — the profiler's trace walker
    can still handle it, but the linter reports it as a structural
    observation. *)

type loop = {
  header : int;
  latches : int list;  (** sources of the back edges into [header] *)
  blocks : int list;  (** the natural loop, sorted, header included *)
  depth : int;  (** nesting depth of the header, outermost = 1 *)
  parent : int option;  (** index of the innermost enclosing loop *)
}

type t = {
  cfg : Cfg.Method_cfg.t;
  dom : Cfg.Dominators.t;
  loops : loop array;  (** ordered by header block index *)
  depth : int array;  (** per-block nesting depth, 0 = outside any loop *)
  back_edges : (int * int) list;
  irreducible : (int * int) list;
      (** retreating edges whose target does not dominate their source *)
}

val compute : Cfg.Method_cfg.t -> t
