(** Straight-line optimization of traces — the paper's stated next step
    (§6: "measure what further improvement can be achieved by applying
    optimizations to the traces").

    A trace has a single entry and is expected to execute to completion,
    so its concatenated block bodies form one straight-line region.  This
    pass runs the classic local optimizations that the completion
    assumption makes speculative-but-profitable (paper §3.7): constant
    folding and algebraic simplification, store/load forwarding through
    locals, dead-store elimination (sound under the completion assumption;
    a real system would compensate on side exits), push/pop cancellation,
    and removal of intra-trace dispatch glue (gotos, nops).  Calls and
    returns are optimization barriers. *)

type result = {
  original : Bytecode.Instr.t array;
      (** the trace's blocks, concatenated *)
  optimized : Bytecode.Instr.t array;
  folded : int;  (** instructions removed by folding/identities/glue *)
  forwarded : int;  (** loads satisfied from a prior store's value *)
  dead_stores : int;
      (** stores overwritten before any load, within the trace *)
  trailing_dead_stores : int;
      (** stores never loaded again in the trace whose slot [live_out]
          proved dead past the trace's end *)
}

val trace_code : Cfg.Layout.t -> Trace.t -> Bytecode.Instr.t array
(** The trace's instruction sequence. *)

val optimize_code :
  ?live_out:(int -> bool) ->
  ?covered_from:(int -> bool) ->
  Bytecode.Instr.t array ->
  result
(** Optimize any straight-line sequence (exposed for testing).

    [live_out slot] says whether the local slot can still be read after
    the sequence ends; the default answers [true] for every slot, which
    keeps every trailing store.  Supplying a liveness answer (see
    {!live_out_of}) lets the pass also rewrite trailing dead stores —
    stores with no later load inside the sequence {e and} a provably dead
    slot after it — to [Pop].

    [covered_from idx] says whether code index [idx] or any later index
    lies in a handler-covered block; a trailing store there stays even
    when [live_out] proves its slot dead, because a later trap can hand
    the frame to a same-frame handler on the exceptional edge — a path
    the final block's normal-exit liveness never sees.  The default
    answers [false] (no handlers in sight); {!optimize} supplies
    {!covered_suffix_of}. *)

val live_out_of : Cfg.Layout.t -> Trace.t -> int -> bool
(** The liveness justification for trailing dead-store elimination:
    takes {!Analysis.Liveness} of the method of the trace's final block
    from the layout's memo ({!Analysis.Facts.liveness}) and answers
    membership in that block's live-out set
    (exceptional edges included, so handler-only reads keep a slot
    live). *)

val covered_suffix_of : Cfg.Layout.t -> Trace.t -> int -> bool
(** The exceptional-edge guard for trailing dead-store elimination: for
    each index into {!trace_code}, whether that index or any later one
    belongs to a handler-covered block. *)

val optimize :
  ?live_out:(int -> bool) ->
  ?covered_from:(int -> bool) ->
  Cfg.Layout.t ->
  Trace.t ->
  result
(** Optimizes {!trace_code}.  When [live_out] or [covered_from] is
    omitted it defaults to {!live_out_of} / {!covered_suffix_of} for the
    trace — the analysis-justified behaviour. *)

val saved : result -> int
(** Instructions removed. *)

val savings_ratio : result -> float
(** Fraction of the trace's instructions removed, in [0, 1]. *)
