(** A typed event stream over the engine's lifecycle.

    Every interesting moment of a run — a profiler signal, a trace being
    (re)constructed, entered, completed or side-exited, a decay pass, a
    periodic phase snapshot of the engine's counters — is published
    here as a typed event, stamped with the dispatch index it happened
    at.  End-of-run totals say {e how many} traces completed, the
    stream says {e when}.

    {2 Cost discipline}

    The stream is {e disabled} while it has neither subscribers nor a
    tap, and an emission site of a rare kind that can run over a
    disabled stream guards both the [emit] call and the construction
    of the event payload behind {!enabled}:

    {[
      if Events.enabled evs then
        Events.emit evs (Events.Trace_evicted { ... })
    ]}

    The engine's own sites need no guard: [Engine.create] always
    installs the tap, so an engine's stream is always enabled.  The
    stream is the one record of every per-event observation: the
    engine keeps no histograms, and a distribution such as
    executed-trace length is a fold of the fields its events carry.

    The four per-dispatch ("hot") kinds — [Trace_entered], [Side_exit],
    [Trace_completed] and [Decay_pass] — are emitted through
    {!emit_trace_entered} and its siblings instead.  They travel as a
    kind code plus int fields: the stream writes those scalars straight
    into the flight recorder's {!ring} it holds, and the payload record
    is built only when a subscriber exists.  A run whose only observer
    is the tap therefore allocates nothing per dispatch; on the
    benchmark's [calls] workload a trace pass fell from 3247 to about
    1070 minor words per 1000 instructions, of which the VM's own
    interpretation accounts for about 1050.  Subscribers are invoked
    synchronously, in subscription order. *)

type evict_reason =
  | Capacity
      (** the {!Config.max_cache_traces} bound was exceeded and a
          victim chosen by the configured policy was dropped *)
  | Pressure
      (** an injected allocation-pressure fault ([FT007]) forced an
          LRU eviction *)
  | Quarantine
      (** the trace was removed because its entry transition was
          quarantined or blacklisted *)
  | Footprint
      (** allocation pressure forced an eviction under the
          footprint-aware policy: the victim had the worst
          bytes-per-entry (footprint/heat) ratio, not the oldest
          stamp *)

val evict_reason_to_string : evict_reason -> string
(** Stable lowercase tag: ["capacity"] / ["pressure"] / ["quarantine"] /
    ["footprint"] — the ["reason"] field of the JSONL schema. *)

type payload =
  | Signal_raised of {
      x : Cfg.Layout.gid;
      y : Cfg.Layout.gid;  (** the signalled branch node [N_XY] *)
      old_state : State.t;
      new_state : State.t;
      best_changed : bool;
    }
      (** A branch crossed the followable boundary or a followable
          branch's maximally correlated successor changed — the trigger
          for trace (re)construction. *)
  | Trace_constructed of {
      trace_id : int;
      first : Cfg.Layout.gid;  (** entry context block *)
      blocks : Cfg.Layout.gid array;
          (** a copy of the trace body [X1 .. Xk] as installed: a fault
              that corrupts the live body later leaves it intact *)
      n_instrs : int;
      prob : float;  (** expected completion probability at construction *)
      reused : bool;
          (** [true] when the reconstruction was satisfied by an
              identical cached trace (hash-cons hit) *)
    }
  | Trace_replaced of {
      first : Cfg.Layout.gid;
      head : Cfg.Layout.gid;  (** the rebound entry transition *)
      trace_id : int;  (** the trace now installed at that entry *)
    }
      (** An entry transition was rebound to a different trace — the
          cache-instability event counted by [Stats.traces_replaced]. *)
  | Trace_entered of {
      trace_id : int;
      chained : bool;
          (** the previous dispatch completed another trace
              (Dynamo-style linking) *)
    }
  | Side_exit of {
      trace_id : int;
      at_block : int;
          (** index in the trace where execution diverged — the number
              of positions matched before it *)
      matched_instrs : int;
    }
  | Trace_completed of { trace_id : int; n_blocks : int; n_instrs : int }
  | Decay_pass of { decays : int }
      (** The BCG ran one or more periodic decay passes during this
          dispatch; [decays] is the cumulative pass count. *)
  | Path_walked of { transitions : int }
      (** The trace builder walked one candidate path (a profiler
          signal's maximum-likelihood walk or an OSR promotion's closed
          walk) of [transitions] transitions, before any cut. *)
  | Phase_snapshot of Metrics.snapshot
      (** Every [Config.snapshot_period] dispatches the engine samples
          its counters and cache, recorder and ledger state; [at] is the
          dispatch's 1-based index. *)
  | Invariant_violation of {
      code : string;  (** stable check code, e.g. ["TL204"] *)
      severity : string;  (** ["error"] / ["warning"] / ["info"] *)
      message : string;  (** rendered diagnostic, location included *)
    }
      (** A {!Config.debug_checks} run found a trace/BCG invariant
          violation.  The payload is pre-rendered strings so the stream
          does not depend on the analysis library's diagnostic type. *)
  | Fault_injected of {
      code : string;  (** catalogue code, e.g. ["FT001"] *)
      detail : string;  (** what was corrupted, human-readable *)
    }  (** The fault injector ([Faults]) applied one fault. *)
  | Trace_quarantined of {
      trace_id : int;
      first : Cfg.Layout.gid;
      head : Cfg.Layout.gid;  (** the blacklisted entry transition *)
      code : string;  (** the TL2xx check that condemned it *)
      attempts : int;  (** quarantines of this entry so far *)
      until : int;
          (** cache clock before a rebuild may be attempted;
              [max_int] = permanently blacklisted *)
    }
      (** A trace failed validation (or a sweep found it corrupted) and
          was removed from the cache with its entry blacklisted. *)
  | Trace_evicted of {
      trace_id : int;
      first : Cfg.Layout.gid;
      head : Cfg.Layout.gid;
      n_live : int;  (** live traces after the eviction *)
      reason : evict_reason;  (** why the trace left the cache *)
      footprint : int;
          (** estimated i-cache bytes of the victim
              ({!Footprint_model.trace_bytes}) *)
      heat : int;  (** the entry's use count when it left *)
      stamp : int;  (** the entry's LRU stamp: its last use *)
    }
      (** A trace was removed from the cache: capacity pressure
          ({!Config.max_cache_traces}), an injected allocation-pressure
          fault, or a quarantine/blacklist of its entry transition.
          [Capacity], [Pressure] and [Footprint] removals count toward
          [Stats.traces_evicted] — [Quarantine] removals are counted by
          [Stats.traces_quarantined] and carry their own
          [Trace_quarantined] event alongside. *)
  | Mode_degraded of { from_level : Health.level; to_level : Health.level }
      (** Repeated detections dropped the engine one level down the
          degradation ladder. *)
  | Mode_recovered of { from_level : Health.level; to_level : Health.level }
      (** A full window of clean dispatches climbed the engine one level
          back up. *)
  | Cache_restored of {
      traces : int;  (** traces rebound from the snapshot *)
      cache_blocks : int;  (** block slots they occupy *)
      bcg_nodes : int;
      bcg_edges : int;  (** BCG population after the restore *)
    }
      (** A warm-start snapshot was accepted and installed
          ({!Engine.restore}). *)
  | Snapshot_rejected of { reason : string }
      (** A warm-start snapshot failed validation and was discarded
          without touching the cache or BCG; [reason] is the rendered
          {!Persist.error}. *)
  | Deopt_entered of {
      trace_id : int;
      at_block : int;
          (** trace position of the failed or abandoned guard *)
      resume_block : int;
          (** gid block dispatch resumes at ([-1] when unknown — e.g. a
              mid-flight condemnation with no interpreter handle
              attached) *)
      residue_blocks : int;
          (** trace positions abandoned past [at_block] — the work a
              non-OSR side exit would have thrown away *)
      reason : string;
          (** ["guard-failure"] (organic mismatch), ["guard-flip"]
              (FT008), or ["condemned"] (mid-flight cut-over) *)
    }
      (** OSR deoptimization: the engine abandoned the active trace and
          resumed block dispatch at the materialized interpreter state
          ({!Config.osr_enabled}). *)
  | Osr_promoted of {
      trace_id : int;
      header : Cfg.Layout.gid;  (** the promoted loop's header block *)
      latch : Cfg.Layout.gid;
          (** the back-edge source the trace is entered from *)
      hotness : int;  (** header dispatches that triggered the promotion *)
    }
      (** OSR promotion: a hot loop was promoted into a freshly built
          trace mid-iteration; the trace is entered at [header] on the
          very next back-edge. *)
  | Trace_compiled of {
      trace_id : int;
      ops : int;  (** micro-ops in the lowered body *)
      fused : int;  (** superinstructions formed *)
      src_instrs : int;  (** source bytecode instructions lowered *)
      heat : int;
          (** the trace's cache heat, at or above
              {!Config.tier_compile_after} *)
    }
      (** The tier cost model promoted a hot trace to the compiled tier:
          its blocks were lowered to register micro-IR
          ({!Config.tier_enabled}). *)
  | Tier_demoted of {
      trace_id : int;
      uses : int;  (** cache heat at demotion — the losing bid *)
      winner_heat : int;  (** heat of the trace that took the slot *)
    }
      (** A compiled trace lost its compiled-tier slot to a hotter
          candidate under [compile_budget]; its lowered body was
          dropped (the source view stays cached). *)

type event = { time : int; payload : payload }
(** [time] is the engine's dispatch index (block + trace dispatches) at
    emission. *)

val filler : event
(** A static event that fills the unused slots of an event array.  An
    array of more than 256 words seeded with a young value forces a
    minor collection, so a per-run store never seeds one with the event
    it is recording; nothing reads a slot that holds the filler. *)

(** {2 The flight recorder's ring}

    A bounded ring of the most recent events, in emission order.  The
    hot kinds are stored as a kind code and three int fields, unused
    ones [0] — [Trace_entered]: trace id, chained (0/1); [Side_exit]:
    trace id, at_block, matched_instrs; [Trace_completed]: trace id,
    n_blocks, n_instrs; [Decay_pass]: decays — in a flat int array, so
    recording one allocates nothing; every other event is stored by
    pointer. *)

type ring

val ring : capacity:int -> ring
(** An empty ring of [capacity] slots (clamped to at least 2). *)

val ring_capacity : ring -> int

val ring_recorded : ring -> int
(** Events ever recorded; above the capacity the ring has wrapped. *)

val ring_window : ring -> (int * event) list
(** The surviving window, oldest first, each event with its sequence
    number (the count of events recorded before it). *)

type t
(** A stream: an ordered set of subscribers and a logical clock. *)

val create : unit -> t

val enabled : t -> bool
(** [true] iff the stream has at least one subscriber or a tap.
    Emission sites must guard payload construction behind this. *)

val subscribe : t -> (event -> unit) -> unit
(** Subscribers are called synchronously, in subscription order, for
    the stream's lifetime. *)

val set_tap : t -> ring:ring option -> cold:(event -> unit) -> unit
(** Install the out-of-band observers: the flight recorder's [ring],
    which records every event, and [cold], which then sees every event
    that is not a hot kind (the engine's decision ledger).  The tap sees
    each event before the subscribers do and enables the stream like a
    subscriber would, but is not one and is invisible to {!emitted}:
    user-facing "is anyone listening?" semantics are unchanged by an
    armed recorder.  At most one tap; installing again replaces it. *)

val set_now : t -> int -> unit
(** Advance the logical clock; events emitted afterwards carry this
    time. *)

val emit : t -> payload -> unit
(** Deliver to the tap and to every subscriber; a no-op when
    disabled. *)

val emit_trace_entered : t -> trace_id:int -> chained:bool -> unit
(** Emit [Trace_entered] the hot way: scalars into the tap's ring, a
    payload only for subscribers.  Needs no {!enabled} guard — a disabled stream
    pays two tests and allocates nothing. *)

val emit_side_exit :
  t -> trace_id:int -> at_block:int -> matched_instrs:int -> unit
(** Emit [Side_exit] the hot way (see {!emit_trace_entered}). *)

val emit_trace_completed :
  t -> trace_id:int -> n_blocks:int -> n_instrs:int -> unit
(** Emit [Trace_completed] the hot way (see {!emit_trace_entered}). *)

val emit_decay_pass : t -> decays:int -> unit
(** Emit [Decay_pass] the hot way (see {!emit_trace_entered}). *)

val emitted : t -> int
(** Events delivered to subscribers so far. *)

val kind : payload -> string
(** Stable lowercase tag naming the constructor ("signal_raised",
    "trace_entered", …) — the ["event"] field of the JSONL schema. *)
