(** A generic monotone dataflow framework: a worklist solver parameterized
    over a join-semilattice, a direction, and per-block transfer functions
    — the classic [Dataflow.Make] functor, instantiated in this library by
    {!Liveness} (backward, sets) and {!Constprop} (forward, abstract
    frames).

    The solver works on any finite graph given as successor/predecessor
    functions, so tests can feed it hand-built shapes; {!Make.solve_cfg}
    adapts a {!Cfg.Method_cfg.t}, optionally adding the exceptional edges
    (covered block → handler entry) that the CFG proper deliberately
    omits. *)

type direction =
  | Forward  (** facts flow along edges: in(b) = ⨆ out(preds) *)
  | Backward  (** facts flow against edges: out(b) = ⨆ in(succs) *)

(** A join-semilattice of dataflow facts.  [bottom] is the "no information
    yet" element (the initial value of every unvisited block); [join] must
    be monotone and, for the solver to terminate, the lattice must have no
    infinite ascending chains (use widening joins otherwise, as
    {!Constprop} does for intervals). *)
module type LATTICE = sig
  type t

  val bottom : t

  val equal : t -> t -> bool

  val join : t -> t -> t

  val pp : Format.formatter -> t -> unit
end

module Make (L : LATTICE) : sig
  type result = {
    input : L.t array;  (** fact at block entry (live-out for Backward) *)
    output : L.t array;  (** fact at block exit (live-in for Backward) *)
    iterations : int;  (** worklist pops until the fixpoint — for tests *)
  }
  (** For [Forward], [input.(b)] is the fact before the block and
      [output.(b) = transfer b input.(b)] the fact after it.  For
      [Backward] the roles mirror: [input.(b)] is the fact {e after} the
      block (its live-out) and [output.(b)] the fact before it.

      Every block is visited at least once, so [output] is always
      consistent with [input].  A transfer function that wants blocks
      unreached by propagation to stay at bottom must be strict — map
      [L.bottom] to [L.bottom] — as {!Constprop}'s is. *)

  val solve :
    direction:direction ->
    n_blocks:int ->
    succs:(int -> int list) ->
    preds:(int -> int list) ->
    entries:(int * L.t) list ->
    transfer:(int -> L.t -> L.t) ->
    result
  (** Run the worklist to a fixpoint.  [entries] seeds boundary facts:
      for [Forward] these join into the entry fact of the named blocks
      (typically [(entry_block, initial_state)] plus one per exception
      handler); for [Backward] they join into the exit fact (e.g. exit
      blocks with the empty live set — usually just [bottom], which every
      block starts from anyway). *)

  val solve_cfg :
    direction:direction ->
    ?exceptional:bool ->
    Cfg.Method_cfg.t ->
    entries:(int * L.t) list ->
    transfer:(int -> L.t -> L.t) ->
    result
  (** {!solve} over a method CFG's blocks.  With [exceptional] (default
      [false]), every block whose pc range intersects a handler's covered
      range gets an extra edge to the handler's entry block, so facts flow
      along possible unwind paths too. *)
end

val reachable : ?exceptional:bool -> Cfg.Method_cfg.t -> bool array
(** Blocks reachable from the method entry, following normal edges and —
    with [exceptional] (default [true]) — handler edges from reachable
    covered blocks. *)
