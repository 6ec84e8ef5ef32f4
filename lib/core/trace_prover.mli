(** Proof-carrying traces: translation validation and guard-implication
    pruning over installed traces.

    {b Validation.}  {!validate} optimizes the trace
    ({!Trace_optimizer.optimize}) and checks the result observationally
    equivalent to the original block sequence with {!Analysis.Equiv}
    (TL212–TL216/TL218 on divergence), deriving the trailing dead-store
    license here: a dropped slot must be dead at the trace's normal exit
    {e and} its last store must not be followed by any handler-covered
    code (the exceptional edge would observe it).  [repro_cli lint
    --traces] runs {!check_cache} over every workload as a CI gate.
    The engine's invariant sweep runs no translation validation: no
    code path executes an optimized body.

    {b Pruning.}  {!prune} walks the trace forward with a fact
    environment — constant/interval facts from {!Analysis.Constprop}
    seeded at each block entry, interval refinements mined from each
    guard's recorded outcome, a continuation stack for call/return
    forcing, and the symbolic state itself — and marks guard positions
    whose transition is implied: the previous block provably cannot trap
    and its terminator provably targets the expected block.  Verdicts
    land in [Trace.pruned] as analysis output: the engine never prunes
    and dispatch never reads them.  {!check_pruned} re-derives the
    proofs, reporting TL217 for any claim that no longer follows. *)

val validate :
  ?context:string -> Cfg.Layout.t -> Trace.t -> Analysis.Diag.t list
(** Translation-validate one trace (and re-check its pruning claims).
    [[]] = proven equivalent.  Structurally unsound bodies (corrupted
    gids — Invariants' TL210/TL211 territory) get a single TL218
    warning instead of a crash.  Traces holding a compiled-tier body
    additionally get {!Tier.check_lowered}'s TL220 re-derivation
    check. *)

val check_cache :
  ?context:string -> Cfg.Layout.t -> Trace_cache.t -> Analysis.Diag.t list
(** {!validate} every trace in the cache — the [lint --traces] gate. *)

val prune : Cfg.Layout.t -> Trace.t -> int
(** Derive and store guard-implication verdicts in [Trace.pruned];
    returns the number of pruned positions (0 leaves the trace
    untouched).  Position 0 — the entering transition, matched by the
    cache lookup — is never a candidate. *)

val check_pruned :
  ?context:string -> Cfg.Layout.t -> Trace.t -> Analysis.Diag.t list
(** Re-derive the pruning proofs; every claimed position that no longer
    follows is a TL217 error. *)
