(** The branch correlation graph (paper §3.5, §4.1) — effectively a
    depth-one per-address branch history table.

    There is one node [N_XY] for every pair of basic blocks [(X, Y)]
    observed executing in sequence, and one edge [E_XYZ] from [N_XY] to
    [N_YZ] for every observed triple: the edge counter measures how often
    branch [(Y, Z)] follows branch [(X, Y)].

    Counters are 16-bit and saturating; one observation is worth 256
    counter units, so a single observation survives 8 decay shifts — the
    paper's 2048-execution history clearing.  Every
    {!Config.decay_period} executions of a node its edge weights are
    shifted right one bit and dead edges are pruned;
    during decay the node's state and maximally correlated successor are
    re-evaluated and changes are signalled to the trace cache. *)

type node = {
  n_x : Cfg.Layout.gid;
  n_y : Cfg.Layout.gid;
  mutable exec_total : int;  (** lifetime executions, for statistics *)
  mutable delay_left : int;  (** start-state countdown *)
  mutable since_decay : int;
  mutable state : State.t;
  mutable edges : edge list;
      (** successor correlations; real programs keep this short *)
  mutable best : edge option;
      (** inline cache: the successor currently believed most likely *)
  mutable best_at_recheck : Cfg.Layout.gid;
      (** snapshot of the maximally correlated successor at the last
          recheck; the "best changed" signal compares against this, not
          the live inline cache (-1 = none) *)
  mutable preds : node list;  (** nodes with an edge into this one *)
  mutable mark : int;
      (** search stamp: a search opened by {!fresh_marks} stamps each
          node it reaches with a value at or above its base, so nothing
          is cleared afterwards; [0] = never reached *)
}

and edge = {
  e_z : Cfg.Layout.gid;  (** the successor block: this edge targets [N_YZ] *)
  e_target : node;
  mutable weight : int;
}

and signal = {
  s_graph : t;  (** the graph [s_node] belongs to *)
  s_node : node;
  s_old_state : State.t;
  s_new_state : State.t;
  s_best_changed : bool;
}
(** Raised when a branch crossed the followable boundary or a followable
    branch's maximally correlated successor changed (paper §4.1.1). *)

and t = {
  config : Config.t;
  n_blocks : int;
  nodes : node Int_table.t;
  on_signal : signal -> unit;
  mutable node_count : int;
  mutable edge_count : int;
  mutable decays : int;
  mutable signals : int;
  mutable mark_top : int;  (** every node's [mark] is below this *)
}

val create : Config.t -> n_blocks:int -> on_signal:(signal -> unit) -> t

val fresh_marks : t -> width:int -> int
(** [fresh_marks t ~width] opens a search of the graph that needs
    [width] distinct mark values and returns its base: the values are
    [base .. base + width - 1], above every {!field:mark} already set,
    so a node was reached by this search iff [mark >= base].  The
    counter lives in the graph, so searches through different caches
    never mistake each other's marks. *)

val no_node : node
(** The sentinel {!find_node} returns for an absent node — also the
    profiler's "no branch context".  Compare with [==]; it is never
    part of the graph and must not be mutated. *)

val no_edge : edge
(** The sentinel {!find_edge} returns for an absent edge (compare with
    [==]). *)

val find_node : t -> x:Cfg.Layout.gid -> y:Cfg.Layout.gid -> node
(** Lookup without creation (used to resynchronize after traces);
    {!no_node} when absent.  Allocates nothing. *)

val visit : t -> node -> unit
(** Record one execution of the node's branch: count down the
    start-state delay (promoting and re-evaluating when it elapses), or
    advance periodic decay.  Every {!Config.decay_period} visits one
    decay pass halves the node's edge weights in place, prunes dead
    edges keeping the others' order, then re-evaluates the node's state
    and maximally correlated successor, signalling the trace cache if
    anything it acts on changed; a pass that prunes nothing and changes
    neither the state nor the best successor allocates nothing.  The
    profiler's fast path reaches the node through a correlation's
    [e_target] pointer and calls this directly. *)

val visit_node : t -> x:Cfg.Layout.gid -> y:Cfg.Layout.gid -> node
(** {!find_node}, lazily creating the node when absent, then {!visit}. *)

val record_successor : t -> ctx:node -> target:node -> unit
(** Record that [target]'s branch followed [ctx]'s branch: bump or create
    the correlation edge, saturating, and keep [ctx]'s inline cache
    current.  {!find_edge}, then {!bump_edge} or {!add_edge}. *)

val bump_edge : node -> edge -> unit
(** [bump_edge ctx e]: one more traversal of [ctx]'s edge [e], which the
    caller already found (saturating), keeping [ctx]'s inline cache
    current.  [e] must still be in [ctx.edges]: only a decay pass
    prunes edges, so a caller that found [e] before a {!visit} must look
    it up again when [decays] moved. *)

val add_edge : t -> ctx:node -> target:node -> unit
(** Create [ctx]'s edge to [target] with one traversal, keeping [ctx]'s
    inline cache current.  [ctx] must have no edge to [target.n_y]. *)

val find_edge : node -> Cfg.Layout.gid -> edge
(** The node's edge to successor block [z]; {!no_edge} when absent.
    Every edge keeps [e_target == find_node ~x:n.n_y ~y:e_z], which is
    what lets the profiler follow the pointer instead of hashing. *)

val correlation : node -> edge -> float
(** The probability of taking the edge's branch given the node's branch
    was just taken: [weight] over the node's total outgoing weight, in
    [0, 1]. *)

val heal_node : t -> node -> bool
(** Clamp the node's edge weights, decay and start-state bookkeeping back
    into their legal ranges, then re-evaluate the node as a decay pass
    does ({!visit}), so the inline cache and correlation state are
    recomputed from the repaired edges (signalling as usual).  Returns
    [true] when a field actually changed.  The self-healing engine calls
    this on nodes an invariant check flagged; the node loses corrupted
    history but keeps profiling, and its correlations re-converge within
    one decay period. *)

(** {2 Warm-start snapshots} *)

type node_snap = {
  ns_x : Cfg.Layout.gid;
  ns_y : Cfg.Layout.gid;
  ns_exec_total : int;
  ns_delay_left : int;
  ns_since_decay : int;
  ns_state : State.t;
  ns_best_at_recheck : Cfg.Layout.gid;
  ns_edges : (Cfg.Layout.gid * int) list;
      (** (successor block, counter weight), sorted by successor *)
}
(** One node flattened for persistence — the value half of the
    [Persist] binary format. *)

val snapshot : t -> node_snap list
(** The whole graph in canonical order (nodes by [(x, y)], edges by
    successor), so snapshot → {!restore} → snapshot is bit-identical. *)

val restore : t -> node_snap list -> unit
(** Rebuild the graph from a snapshot: nodes with their counters and
    states, then edges, predecessor lists and inline caches.  No signal
    is raised — the trace-cache half of the same snapshot already holds
    the traces those signals built.
    @raise Invalid_argument if the graph is non-empty or an edge targets
    a node absent from the snapshot. *)

val iter_nodes : t -> (node -> unit) -> unit

val n_nodes : t -> int

val n_edges : t -> int

val pp_node : Cfg.Layout.t -> Format.formatter -> node -> unit
