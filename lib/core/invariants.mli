(** Runtime invariant checks over the profiler's data structures — the
    trace/BCG half of the linter.

    Every check states a property the paper's design guarantees by
    construction; a finding therefore means a bug (or a deliberately
    corrupted structure in a test), never a tuning problem.  Codes
    (catalogue in DESIGN.md §12):

    - [TL201] {e error} — a cached trace's completion probability is
      outside [[threshold, 1]]
    - [TL202] {e error} — the entry transition a trace is bound under
      differs from the trace's own {!Trace.entry_key}
    - [TL203] {e error} — an adjacent transition repeats more than twice
      along a trace: the terminal loop was unrolled more than once
    - [TL204] {e error} — a BCG edge weight is outside [[1, counter_max]]
      (16-bit saturating counters; zero-weight edges are pruned at decay)
    - [TL205] {e error} — a node's [best] inline cache is not a live
      maximal-weight edge
    - [TL206] {e error} — decay bookkeeping out of range: [since_decay]
      not in [[0, decay_period)], [delay_left] negative or larger than the
      configured delay, or [delay_left > 0] not matching the
      [Newly_created] state
    - [TL207] {e error} — a correlation along a live trace is outside
      [[0, 1]], so the prefix completion probabilities are not monotone
      non-increasing
    - [TL208] {e error} — edge/pred adjacency is asymmetric (an edge's
      source is missing from its target's predecessor list, or vice
      versa)
    - [TL209] {e error} — a cached trace's block count is outside
      [[min_trace_blocks, max_trace_blocks]]
    - [TL210] {e error} — a trace's entry context or one of its block
      gids is outside the program layout's [[0, n_blocks)] range: the
      trace body is corrupted
    - [TL211] {e error} — a trace's recorded per-block instruction count
      disagrees with the layout's static count for that block

    The checks are read-only and allocation-light but walk every node /
    trace they are given; {!Config.debug_checks} runs them at
    trace-construction and decay boundaries, which is measurably slower
    than a production run (see the bench). *)

val check_trace :
  ?context:string ->
  ?bcg:Bcg.t ->
  ?layout:Cfg.Layout.t ->
  Config.t ->
  Trace.t ->
  Analysis.Diag.t list
(** [TL201] [TL203] [TL209], plus [TL207] when a BCG is supplied (the
    correlation walk skips transitions whose node or edge has decayed
    away) and [TL210] [TL211] when a layout is supplied — the two checks
    that catch a corrupted trace body. *)

val check_all :
  ?context:string ->
  ?layout:Cfg.Layout.t ->
  Config.t ->
  bcg:Bcg.t ->
  cache:Trace_cache.t ->
  Analysis.Diag.t list
(** [TL204] [TL205] [TL206] [TL208] for every BCG node, followed by
    [TL202] over every live entry binding and {!check_trace} (with the
    BCG) over every live trace: the full sweep the engine runs under
    {!Config.debug_checks}, and [repro_cli lint] runs after a workload's
    profiled execution. *)
