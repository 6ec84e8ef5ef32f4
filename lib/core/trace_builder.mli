(** Trace (re)construction in response to a profiler signal (paper §4.2).

    The three steps of the paper:

    + {e entry points} — backtrack from the signalled node along strongly
      correlated incoming edges (predecessors whose maximally correlated
      successor leads here);
    + {e paths} — from each entry point, follow the path of maximum
      likelihood while branches stay followable, stopping at a weakly
      correlated or newly created branch, a node already on the path
      (a loop, which is processed first and unrolled once), or the walk
      cap;
    + {e cutting} — greedily cut each path into traces whose cumulative
      completion probability stays at or above the threshold, and install
      them (hash-consed).

    A construction allocates only what outlives it: the traces it
    builds, their cache bindings and the events it emits.  The entry
    search and the walks mark the graph's nodes ({!Bcg.fresh_marks})
    instead of keeping visited sets, and the roots, the path, its
    correlations and each candidate's blocks live in the cache's
    {!Trace_cache.scratch}, which a construction holds for its
    duration. *)

type outcome = {
  new_traces : int;  (** traces actually constructed *)
  reused_traces : int;  (** reconstructions satisfied by hash-consing *)
}

val on_signal :
  ?events:Events.t ->
  ?counts:Stats.t ->
  ?on_path:(int -> unit) ->
  ?fail_install:(unit -> bool) ->
  Config.t ->
  Trace_cache.t ->
  Bcg.signal ->
  outcome
(** React to one profiler signal: rebuild every trace the signalled
    branch can affect.  [events] receives one [Trace_constructed] per
    installed trace ([reused] marks a hash-cons hit, which repeats the
    trace's first construction) and the cache's other decisions, which
    [counts] counts; a fresh disabled stream and record are used when
    omitted.  [on_path] observes the length (in transitions) of each
    maximum-likelihood walk before the probability cut — the engine
    publishes it as a [Path_walked] event.  [fail_install] is each
    installation's [~fail] ({!Trace_cache.install}): the engine's
    pending injected failures.
    @raise Invalid_argument when called while another construction
    through the same cache is running (from one of its event
    subscribers, say): the two would share the cache's scratch. *)

val promote :
  ?events:Events.t ->
  ?counts:Stats.t ->
  ?on_path:(int -> unit) ->
  ?fail_install:(unit -> bool) ->
  Trace_cache.t ->
  Bcg.t ->
  header:Cfg.Layout.gid ->
  outcome * Trace.t option
(** OSR mid-loop promotion: build the hot loop owning [header] into a
    trace {e now}, rooted at the hottest followable BCG transition
    entering the header, without waiting for a profiler signal.  The
    second component is the installed self-chaining back-edge trace
    (entered at the header on the very next latch→header transition)
    when one exists — [None] when the BCG has no followable transition
    into the header or the probability cut rejected every candidate.
    [events], [counts], [on_path] and [fail_install] as in
    {!on_signal}, and re-entry is refused the same way. *)
