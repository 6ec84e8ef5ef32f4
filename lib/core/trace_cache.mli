(** The trace cache (paper §4.2): traces indexed two ways — by entry
    transition for dispatch, and by full block sequence for hash-consing,
    so an identical reconstruction is retrieved and relinked rather than
    rebuilt.  Rebinding an entry transition to a different trace is an
    instability event ([Trace_replaced], [Stats.traces_replaced]).

    On top of the paper's design the cache is {e bounded} and
    {e self-healing}:

    - the capacity cap ([max_traces] live traces; [0] = unbounded)
      evicts a victim under pressure
      ([Trace_evicted] events) chosen by the
      {!Config.Cache.eviction_policy}: the least recently dispatched
      entry ([Lru], the default), or the entry with the worst estimated
      i-cache bytes per use ([Footprint_aware], byte model shared with
      the harness footprint report via [Footprint_model]);
    - {!snapshot} / {!restore} capture and rebind the live cache for
      warm starts — the value half of the [Persist] binary format;
    - {!quarantine} blacklists an entry transition whose trace was
      condemned by a TL2xx check or an injected fault, with exponential
      backoff in cache-clock units ({!set_clock}) and permanent
      blacklisting after {!Config.heal_max_rebuilds} condemnations;
    - {!install}, the one way traces enter the cache, is fallible: it
      refuses quarantined entries and consumes the installing engine's
      injected installation failures (its [~fail]), so the trace
      builder degrades gracefully instead of reinstalling a known-bad
      trace.

    The cache owns no event stream and keeps no count of its decisions:
    each operation that makes one takes the [~events] stream and the
    [~counts] record of the engine performing it.  It keeps its state and
    the totals over every engine using it: {!n_constructed} and
    {!n_evicted} (the benchmark reads them) and the cross-session reuse. *)

type t

val create :
  ?max_traces:int ->
  ?eviction_policy:Config.Cache.eviction_policy ->
  Cfg.Layout.t ->
  t
(** [max_traces] defaults to [0] (unbounded), [eviction_policy] to
    [Lru].
    @raise Invalid_argument when [max_traces] is negative. *)

val layout : t -> Cfg.Layout.t
(** The layout the cache was created over — a shared cache may only
    serve engines running the same layout. *)

val set_clock : t -> int -> unit
(** Advance the cache clock (the engine's dispatch count) — the time base
    of quarantine backoff. *)

val set_session : t -> int -> unit
(** Announce which session's dispatches follow.  A cache shared between
    sessions (the [Session] layer) is told the current session id before
    each batch, so new traces are stamped with their builder
    ({!Trace.t.owner}) and reuse across sessions is counted
    ({!n_cross_installs} / {!n_cross_entries}).  Solo engines leave this
    at [0]. *)

val lookup : t -> prev:Cfg.Layout.gid -> cur:Cfg.Layout.gid -> Trace.t option
(** Dispatch lookup: the trace entered by the transition [(prev, cur)],
    if any ([prev < 0] never matches, nor does a [cur] outside the
    layout).  A hit refreshes the entry's LRU stamp and heat.  No
    hashing and no allocation: an array read of [cur]'s bindings (the
    head index, usually 0–2 entries) and a scan for [prev]; the [Some]
    returned is the binding's own, built once when the trace was
    bound. *)

val peek : t -> first:Cfg.Layout.gid -> head:Cfg.Layout.gid -> Trace.t option
(** The trace bound to the entry transition [(first, head)], if any,
    {e without} refreshing its LRU stamp or counting a dispatch — for
    tests that must not heat the entry.  Same head-index scan as {!lookup}; [first < 0] or a [head]
    outside the layout never matches. *)

val install :
  ?fail:(unit -> bool) ->
  t ->
  events:Events.t ->
  counts:Stats.t ->
  first:Cfg.Layout.gid ->
  blocks:Cfg.Layout.gid array ->
  len:int ->
  prob:float ->
  Trace.t
(** Install the candidate trace [first, blocks.(0 .. len-1)], the one
    way traces enter the cache; the trace builder writes each candidate
    into its scratch array ({!scratch}) and passes the slice.  Returns
    the trace now bound to the candidate's entry transition, or
    {!Trace.none} when the install was refused.

    - An identical cached trace is reused (a hash-cons hit); otherwise a
      new trace is constructed and bound to its entry transition,
      displacing any previous binding ([traces_replaced]).  Only a new
      trace counts in {!n_constructed}, which tells a build from a
      reuse.
    - Installation may push the cache over its capacity cap; the
      policy's victims among the {e other} entries are then evicted
      until the cap holds again ([traces_evicted]; the trace just
      installed is never its own victim).
    - Refused: nothing was installed, because [len = 0], the entry is
      quarantined, or an injected failure was consumed
      ([failed_installs]).  [fail] is asked once the quarantine check
      passed: [true] consumes one of the installing engine's pending
      injected failures (FT006, held by that engine's [Faults]
      injector, so a member of a shared cache consumes only its own).
      Never fails when omitted.

    The slice is hashed and compared in place and copied only into a
    newly built trace, so an install that reuses a cached trace
    allocates nothing.  [blocks] is read only during the call.
    Hash-consing compares each indexed trace's body; a trace a fault
    corrupted ({!set_block}) has left the index, so rebuilding its
    sequence constructs a clean trace. *)

val set_block : t -> Trace.t -> int -> Cfg.Layout.gid -> unit
(** [set_block t tr i g] overwrites position [i] of [tr]'s body with [g]
    (the FT001 fault).  [tr] leaves the hash-cons index first, so a
    later install of its original sequence builds a fresh trace; [tr]
    stays bound to its entry until a check or an eviction removes it. *)

val remove : t -> first:Cfg.Layout.gid -> head:Cfg.Layout.gid -> Trace.t option
(** Unbind the entry transition [(first, head)], returning the trace it
    was bound to.  The removed trace also leaves the hash-cons table, so
    a later identical reconstruction builds a fresh trace.  {!n_live} and
    {!live_blocks} stay consistent. *)

val quarantine :
  t ->
  events:Events.t ->
  counts:Stats.t ->
  first:Cfg.Layout.gid ->
  head:Cfg.Layout.gid ->
  code:string ->
  Trace.t option
(** Condemn the entry transition [(first, head)] (the [code] names the
    TL2xx / FT0xx finding): the bound trace, if any, is removed as by
    {!remove}, and the entry is blacklisted until
    [clock + Config.heal_backoff * 2^(attempts-1)] — permanently once
    its condemnation count exceeds {!Config.heal_max_rebuilds}.  Emits
    [Trace_quarantined] and counts [traces_quarantined] (and
    [traces_blacklisted] when the entry turns permanent).

    If the bound trace is currently {!pin}ned (being executed), the
    condemnation is {e refused} wholly — no unbind, no blacklist record,
    [None] returned, [pin_refusals] counted.  Callers that must
    condemn an executing trace (the OSR mid-flight cut-over) deopt and
    unpin first. *)

(** {2 Execution pins}

    The dispatch loop pins a trace for as long as it is being followed:
    a pinned trace is never an eviction victim, {!quarantine} refuses to
    condemn it, and {!demote_lowered} refuses to drop its compiled-tier
    body.  Pins are refcounted because the [Session] layer shares one
    cache between members; the count lives on the trace
    ({!Trace.t.pins}). *)

val pin : t -> Trace.t -> unit
(** Increment the trace's execution refcount. *)

val unpin : t -> Trace.t -> unit
(** Decrement the refcount ([0] removes the pin).  Unpinning a trace
    that is not pinned is a no-op. *)

val is_pinned : t -> Trace.t -> bool

val n_demote_refusals : t -> int
(** {!demote_lowered} demotions refused because the compiled trace was
    pinned (being executed on the compiled tier). *)

(** {2 The compiled tier's cache view}

    The tier cost model ([Tier]) reads heat and the compiled population
    through these; the lowered bodies themselves live on the traces
    ([Trace.t.lowered]) as derived, never-persisted state. *)

val trace_uses : t -> Trace.t -> int
(** The use count (heat) of the trace's own entry binding — the signal
    the tier cost model promotes and demotes on. *)

val n_compiled : t -> int
(** Live traces currently holding a lowered body. *)

val demote_lowered : t -> Trace.t -> bool
(** Drop the trace's lowered body, freeing its compiled-tier slot.
    Returns [false] without touching the trace when it has no lowered
    body, or when it is {!pin}ned — a dispatch loop is following its
    micro-IR right now ({!n_demote_refusals} bumped); callers retry
    after the trace exits. *)

val coldest_compiled : t -> excluding:Trace.t option -> Trace.t option
(** The live compiled trace with the fewest uses, skipping pinned traces
    and [excluding] — the budget demotion's victim. *)

val pressure_evict :
  t -> events:Events.t -> counts:Stats.t -> down_to:int -> int
(** Evict entries until at most [down_to] live traces remain; returns
    the number evicted, each counted in [traces_evicted] (the fault
    injector's FT007 allocation-pressure fault).  Victims are chosen by
    the configured {!Config.Cache.eviction_policy}; the [Trace_evicted] reason
    is [Pressure] under [Lru] and [Footprint] under [Footprint_aware].
    {!pin}ned traces are never victims, so the eviction may stop above
    [down_to]. *)

(** {2 Warm-start snapshots} *)

type entry_snap = {
  snap_first : Cfg.Layout.gid;  (** entry context block *)
  snap_blocks : Cfg.Layout.gid array;  (** the trace's block sequence *)
  snap_prob : float;  (** completion probability at construction *)
  snap_heat : int;
      (** the entry's use count, preserved so footprint-aware eviction
          does not treat every restored trace as cold *)
}
(** One live cache entry as captured by {!snapshot} — everything needed
    to rebind an identical trace in a fresh cache over the same
    layout. *)

val snapshot : t -> entry_snap list
(** The live cache in canonical (entry-key) order.  Runtime state —
    counters, LRU stamps, quarantine records — is not captured, so
    snapshot → restore → snapshot is bit-identical. *)

val restore :
  ?promoted_below:float ->
  t ->
  events:Events.t ->
  counts:Stats.t ->
  entry_snap list ->
  int
(** Rebind every snapshot entry (constructing traces afresh over this
    cache's layout, hash-cons deduplicated), returning the number
    restored.  Restored traces do not count toward {!n_constructed},
    and carry the current session as owner.  Capacity caps are enforced
    as usual, so restoring into a smaller cache keeps the policy's
    preferred subset.  [promoted_below] (normally the
    config's correlation threshold) re-marks sub-threshold snapshots as
    OSR-promoted loop traces — the greedy cutter never commits below the
    threshold, so the probability alone identifies them.
    @raise Invalid_argument on an empty block sequence. *)

val footprint_bytes : t -> int
(** Estimated i-cache footprint of the live cache under the shared byte
    model ([Footprint_model.trace_bytes] summed over live traces) — the
    quantity the footprint-aware policy minimises per unit of heat. *)

val iter : t -> (Trace.t -> unit) -> unit
(** Over the traces currently bound to an entry (the live cache). *)

val iter_entries :
  t ->
  (first:Cfg.Layout.gid -> head:Cfg.Layout.gid -> Trace.t -> unit) ->
  unit
(** Like {!iter} but also decodes the entry transition each trace is bound
    under, so invariant checkers can compare the binding against the
    trace's own {!Trace.entry_key}. *)

val iter_all : t -> (Trace.t -> unit) -> unit
(** Over every trace ever constructed and still reachable for
    hash-consing or bound to an entry, including displaced ones and
    bound ones a fault corrupted, but not evicted or quarantined ones,
    in id (construction) order. *)

val n_live : t -> int

val live_blocks : t -> int
(** Total block count of live traces. *)

val n_constructed : t -> int
(** Traces built, by every engine using the cache. *)

val n_evicted : t -> int
(** Capacity and allocation-pressure evictions, by every engine using
    the cache: the sum of their [traces_evicted]. *)

val n_quarantine_active : t -> int
(** Entry transitions blacklisted at the current clock. *)

val n_cross_installs : t -> int
(** Hash-cons hits where the cached trace was built by a different
    session than the one installing — constructions the current session
    never had to pay for.  Always [0] for a solo engine. *)

val n_cross_entries : t -> int
(** Dispatch lookups that entered a trace built by a different session.
    Always [0] for a solo engine. *)

(** {2 Builder scratch} *)

type scratch = {
  mutable busy : bool;
      (** set while a construction uses the scratch: the builder's
          re-entrancy guard *)
  mutable path : Bcg.node array;  (** the walk's transitions *)
  mutable corrs : float array;
      (** [corrs.(i)] links [path.(i)] to [path.(i + 1)] *)
  mutable roots : Bcg.node array;  (** the entry search's roots *)
  mutable n_roots : int;
  blocks : Cfg.Layout.gid array;
      (** one candidate's blocks, {!Config.max_trace_blocks} long *)
  mutable n_built : int;  (** the construction's new traces so far *)
  mutable n_reused : int;  (** its hash-cons hits so far *)
}
(** The space the trace builder ([Trace_builder]) reuses for every
    construction through this cache, so a construction allocates only
    what it keeps.  The arrays grow on demand and are never shrunk;
    the cache itself never reads them. *)

val scratch : t -> scratch
