(** The compiled tier's policy layer: lowering hot traces to micro-IR
    ({!Microir}) with the analysis facts wired in, validating lowered
    bodies by re-derivation (TL220), and the cost model that decides
    which traces hold the {!Config.tier_compile_budget} compiled slots.

    The heat signal is the cache's per-entry use count — the same number
    the hot-report ranks by and footprint-aware eviction divides by, and
    the one piece of tier-relevant state a warm-start snapshot persists
    ([snap_heat]).  Runtime promotion and restore-time recompilation key
    on the same counter, which is what makes the tier re-derivable:
    snapshots never store a lowered body. *)

val lower_trace : Cfg.Layout.t -> Trace.t -> Microir.body
(** Lower the trace's block sequence to micro-IR, feeding the converter
    {!Analysis.Constprop} block-entry facts as the constant oracle and a
    {!Analysis.Liveness}-derived trailing-store license (slot dead at
    the trace seam, no handler-covered position at or after the store).
    Both analyses come from the layout's memo ({!Analysis.Facts}), so
    each method's facts are computed once per layout, not once per
    lowering.  Pure: does not touch [tr.lowered]. *)

val check_lowered :
  ?context:string -> Cfg.Layout.t -> Trace.t -> Analysis.Diag.t list
(** TL220: validate the trace's cached lowered body, if any — structural
    invariants ({!Microir.check} against the trace's block sequence),
    then re-derivation ([lower_trace] must reproduce the cached op
    stream exactly).  Empty for traces on the interpreted tier. *)

val maybe_compile :
  Config.t ->
  Cfg.Layout.t ->
  Trace_cache.t ->
  events:Events.t ->
  Trace.t ->
  int * int
(** Promotion decision at trace entry; returns the [(compiled, demoted)]
    increments for the caller's counters (each [0] or [1]).  The
    candidate must be uncompiled and have crossed
    [Config.tier_compile_after] uses.  When [tier_compile_budget] is
    full, the coldest compiled trace is demoted first — only when
    strictly colder than the candidate (no thrash between equally hot
    traces) and not pinned; if the budget is still full after that the
    candidate stays interpreted and may retry on a later entry.  Emits
    [Trace_compiled] / [Tier_demoted].  No-op with the tier off. *)

val recompile_restored :
  Config.t -> Cfg.Layout.t -> Trace_cache.t -> events:Events.t -> int
(** Restore-time tier re-derivation: recompile the hottest restored
    traces that cross [compile_after], hottest first (trace id breaks
    ties), up to the budget; returns the number compiled.  Because
    promotion keys on the persisted heat, a restored cache converges on
    the same compiled set as the run that snapshotted it. *)
