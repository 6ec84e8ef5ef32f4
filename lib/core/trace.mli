(** A trace: a sequence of basic blocks expected to execute to completion
    (paper §3.7).

    A trace is entered by {e transition}: it is dispatched when
    [blocks.(0)] is reached with {!field:first} as the previously executed
    block — the paper's "a sequence which enters [N_X0X1]".  Its
    {!field:prob} is the product of the branch correlations along the
    trace at construction time, the expected completion probability.

    A loop-body trace whose last block equals {!field:first} chains back
    into itself, covering steady-state loop execution. *)

type t = {
  id : int;
  first : Cfg.Layout.gid;  (** entry context block [X0] *)
  blocks : Cfg.Layout.gid array;
      (** [X1 .. Xk]: the blocks executed from the trace *)
  prob : float;  (** expected completion probability at construction *)
  instr_len : int array;  (** static instruction count per block *)
  total_instrs : int;
  mutable owner : int;
      (** id of the session whose profiler built this trace ([0] for a
          single-engine run).  Stamped by the cache at installation and
          kept by the first builder on a hash-cons reuse, so the cache
          can count cross-session reuse. *)
  mutable pruned : bool array;
      (** guard-implication pruning verdicts from
          [Tracegen.Trace_prover]: [pruned.(i)] means the guard at
          position [i] is implied by the trace's entry facts plus the
          guards before it.  Analysis output only: the engine never
          prunes, and dispatch neither reads nor trusts it.  [[||]]
          means no pruning.  Derived state: recomputable from the body,
          never persisted in snapshots; restored traces start
          unpruned. *)
  mutable promoted : bool;
      (** built by OSR mid-loop promotion rather than the greedy cutter:
          the completion probability is a product of possibly immature
          correlations and may sit below the cutter's threshold — the
          TL201 invariant is relaxed for such traces.  Not persisted
          directly: a sub-threshold probability identifies a promoted
          trace on restore, because the cutter never commits one. *)
  mutable pins : int;
      (** execution refcount: the dispatch loops following this trace
          right now — more than one when a [Session] shares the cache.
          Maintained by [Trace_cache.pin] / [Trace_cache.unpin]; a
          pinned trace is never evicted, quarantined or demoted. *)
  mutable lowered : Microir.body option;
      (** the compiled tier: the trace's blocks lowered to register
          micro-IR ({!Microir}), present only while the trace holds a
          compiled-tier slot under [Config.tier_compile_budget].  Derived
          state, never persisted — a restored cache re-lowers whatever
          the tier cost model picks. *)
}

val make :
  id:int ->
  layout:Cfg.Layout.t ->
  first:Cfg.Layout.gid ->
  blocks:Cfg.Layout.gid array ->
  prob:float ->
  t
(** @raise Invalid_argument on an empty block sequence. *)

val n_blocks : t -> int

val entry_key : t -> Cfg.Layout.gid * Cfg.Layout.gid
(** The entering transition [(first, blocks.(0))]. *)

val last_block : t -> Cfg.Layout.gid

val same_sequence : t -> t -> bool
(** Same entry context and same block sequence: the same cache entry. *)

val describe : Cfg.Layout.t -> t -> string
(** One-line human-readable rendering of the live body with block
    names; a gid outside the layout (a corrupted block) renders as
    [?gid]. *)
