(** Chaos testing: workloads under randomized (but seeded, deterministic)
    fault schedules, holding the engine to two promises:

    - {b transparency} (gate code FT901) — tracing is a pure
      observational overlay, so VM results must be bit-identical to a
      no-tracing baseline under {e any} fault schedule;
    - {b recovery} (gate code FT902) — the fault budget exhausts early in
      the run, after which the self-healing machinery must climb the
      degradation ladder back to full tracing before the run ends.

    A schedule is a pure function of (spec, seed), so a failing seed is a
    reproducible bug report. *)

val default_spec : string
(** Every fault kind armed, with a budget sized so a default-size
    workload sees all of it early and then recovers. *)

val config :
  ?spec:string -> ?osr:bool -> ?tier:bool -> seed:int -> unit -> Tracegen.Config.t
(** The chaos operating point: self-healing and debug checks on, the
    cache bounded, the given fault schedule armed.  [osr] (default
    [false]) additionally arms on-stack replacement, putting the
    mid-trace deoptimization paths under the transparency gate — pair it
    with a [guard-flip] spec to actually exercise them.  [tier] (default
    [false]) arms the compiled micro-IR tier, so compiled-trace dispatch
    (and, with [osr], deopt from the compiled tier) runs under the same
    gate. *)

type verdict = {
  workload : string;
  seed : int;
  identical : bool;  (** FT901: VM results match the baseline *)
  recovered : bool;  (** FT902: ended the run at full tracing *)
  reconciled : bool;
      (** FT903: the event timeline and decision ledger reconcile with
          the end-of-run statistics ({!Oracle.run_checks}). *)
  stats : Tracegen.Stats.t;
}

val passed : verdict -> bool

val fingerprint : Vm.Interp.result -> string * int * int
(** A comparable fingerprint of a VM result: the outcome rendered to a
    string plus both dispatch-model counts.  Two runs with equal
    fingerprints are bit-identical for the FT901 gate's purposes — the
    [backends] and [session] equivalence checks reuse it. *)

val run_one :
  ?spec:string ->
  ?osr:bool ->
  ?tier:bool ->
  ?max_instructions:int ->
  ?dump_dir:string ->
  Workloads.Workload.t ->
  size:int ->
  seed:int ->
  verdict
(** One workload under one seeded schedule, compared against a fresh
    no-tracing baseline of the same layout.  The run's event stream
    feeds the reconciliation oracle (the [reconciled] verdict);
    [dump_dir], when given, arms the flight recorder's post-mortem file
    sink there — a divergence triggers a dump, as do the engine's own
    invariant/degradation triggers. *)

val describe : verdict -> string
(** One line: pass/fail flags plus the resilience counters. *)
