(** Each method's dataflow facts, computed once per layout.

    {!Constprop} and {!Liveness} depend only on a method's CFG and the
    program, so every consumer that needs them for the same layout —
    the compiled tier's lowering and its TL220 re-derivation, the trace
    optimizer, the trace prover, [lint --traces] — can share one result
    per method.  A result is computed on first use and kept in a table
    keyed on the layout's physical identity (an ephemeron), so the facts
    die with the layout, and two layouts of the same program never share
    facts.

    The results are shared: callers must not mutate their arrays. *)

val constprop : Cfg.Layout.t -> method_id:int -> Constprop.t
(** [Constprop.compute] of the method's CFG, memoised. *)

val liveness : Cfg.Layout.t -> method_id:int -> Liveness.t
(** [Liveness.compute] of the method's CFG, memoised. *)
