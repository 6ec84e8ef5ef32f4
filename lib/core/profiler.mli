(** The profiling mechanism (paper §4.1.2).

    The interpreter's hook into the profiler is the {e branch context}:
    the BCG node for the last branch taken, whose cached best successor
    acts as an inline cache.  One {!dispatch} call is the profiling
    statement a direct-threaded-inlining interpreter appends to every
    block's dispatch code; a trace dispatch executes it exactly once. *)

type t

val create :
  ?events:Events.t ->
  Config.t ->
  n_blocks:int ->
  on_signal:(Bcg.signal -> unit) ->
  t
(** [events] receives [Signal_raised] (published before [on_signal]
    reacts, so the timeline shows cause before effect) and [Decay_pass]
    events; a fresh disabled stream is used when omitted. *)

val dispatch : t -> Cfg.Layout.gid -> unit
(** One profiled dispatch of a block: updates the branch context's node
    and correlation edge, counts inline-cache predictions, and advances
    decay.  The context's successor list is searched at most once, and
    not at all when the inline cache predicts the block (again only when
    the visit ran a decay pass, which can prune edges). *)

val resync : t -> x:Cfg.Layout.gid -> y:Cfg.Layout.gid -> unit
(** Re-establish the branch context after unprofiled (in-trace)
    execution: the last two dispatched blocks were [x] then [y].  The
    context node is looked up but not counted — the trace's interior ran
    without hooks.  The lookup first tries the profiler's memo of the
    node it last found ending at [y], and probes the node table only
    when that node's [n_x] is not [x]. *)

val reset : t -> unit
(** Forget the context entirely (start of an independent stream). *)

val bcg : t -> Bcg.t

val dispatches : t -> int
(** Profiled dispatches, i.e. hook executions. *)

val signals : t -> int

val predictions : t -> int
(** Inline-cache hits: dispatches whose block was the context's cached
    best successor.  Used by the overhead model — a predicted dispatch is
    the paper's two-comparison fast path. *)

val note_skipped : t -> unit
(** Record one unprofiled dispatch: the engine's health ladder is at
    interp-only and bypassed the hook.  The branch context is stale
    afterwards; the engine must {!reset} before profiling resumes. *)

val skipped : t -> int
(** Dispatches bypassed while degraded to pure interpretation. *)
