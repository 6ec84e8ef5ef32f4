(** On-stack replacement: mid-trace deoptimization and mid-loop
    promotion (ROADMAP item 4).

    The paper's engine only switches between block dispatch and trace
    dispatch at trace boundaries: a guard failure abandons the whole
    residue and restarts from the trace head, and a hot loop keeps
    interpreting until its next header re-entry.  OSR removes both blind
    spots:

    - {e deoptimization} — a failed guard (organic, FT008-flipped, or a
      mid-flight condemnation by the self-healing sweeps) resumes block
      dispatch {e at the failing block}.  Trace dispatch is a pure
      observational overlay, so the interpreter is already in exactly
      the state pure block dispatch would have produced; the deopt
      {e verifies} this by materializing the live continuation
      ({!Vm.Interp.materialize}) and comparing its innermost block
      against the resume block — a mismatch is invariant TL219;
    - {e promotion} — outside-trace dispatches of natural-loop headers
      ({!Analysis.Loops}) are counted, and a header crossing
      {!Config.osr_promote_after} promotes its loop into a freshly
      built back-edge trace mid-iteration, entered at the header on the
      very next latch→header transition.

    This module holds the detection tables, the materialization hook and
    the armed-promotion id.  The dispatch-loop integration (deopt and
    promotion) lives in [Engine], and so do the OSR counters: [Engine]
    advances [deopts], [deopt_residue_blocks], [osr_promotions],
    [osr_entries], [osr_state_checks] and [osr_state_mismatches] in its
    one [Stats.t]. *)

type reason =
  | Guard_failure  (** organic guard mismatch while following a trace *)
  | Guard_flip  (** an armed FT008 fault forced the mismatch *)
  | Condemned
      (** a debug-check sweep condemned the trace being executed and the
          engine cut over mid-flight *)

val reason_to_string : reason -> string
(** ["guard-failure"] / ["guard-flip"] / ["condemned"] — the
    [Deopt_entered] event payload spelling. *)

type t

val create : promote_after:int -> Cfg.Layout.t -> t
(** Compute the natural-loop header set of every method CFG, with every
    header's heat at zero and no promotion armed.
    @raise Invalid_argument if [promote_after < 1]. *)

val set_materialize : t -> (unit -> Vm.Interp.materialized option) -> unit
(** Install the interpreter-state hook — whoever owns the live
    [Vm.Interp.handle] ([Engine.drive], [Session.add]) points it here.
    Without a hook deopts skip the TL219 state check (observer-only
    drivers have no interpreter to materialize). *)

val materialized : t -> Vm.Interp.materialized option
(** Materialize the live interpreter continuation through the hook. *)

val observe_header : t -> Cfg.Layout.gid -> promote:bool -> int option
(** Count one outside-trace dispatch of [g].  Returns [Some hotness]
    exactly when [g] is a header, its counter crosses [promote_after]
    {e and} [promote] is true (the counter then resets); with
    [promote = false] the counter saturates at the threshold so the heat
    survives until a trace-building backend can act on it.  Never
    allocates. *)

val arm : t -> trace_id:int -> unit
(** A mid-loop promotion installed (or re-armed) trace [trace_id]: its
    first entry will count as an OSR entry taken. *)

val take_armed : t -> trace_id:int -> bool
(** Called at every trace entry: [true] exactly when [trace_id] is the
    armed promotion, which is then disarmed. *)
