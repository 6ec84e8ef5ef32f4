(** Next-Executing-Tail trace selection, after Dynamo (Bala, Duesterwald &
    Banerjia, PLDI 2000).

    Counters sit on potential trace heads — targets of backward taken
    branches.  When a counter crosses the hot threshold, the blocks
    executed {e next} are recorded as a trace until a backward taken
    branch, the head of an existing trace, or the length cap.  Traces are
    keyed by head block alone, as Dynamo dispatches fragments by address.
    This is the "assume what follows a hot point will recur" strategy the
    paper contrasts with branch-correlation profiling. *)

type config = {
  hot_threshold : int;  (** Dynamo uses ~50; the default is 50 *)
  max_blocks : int;  (** the default is 64 *)
}

type t

val create : ?config:config -> Cfg.Layout.t -> t

val on_block : t -> Cfg.Layout.gid -> unit
(** Feed one dispatched block (attach to {!Vm.Interp.run}'s observer). *)

val run :
  ?config:config -> ?max_instructions:int -> Cfg.Layout.t -> Tracegen.Stats.t
(** Run a program under NET selection and return a copy of its counters
    in the engine's record, with [instructions], the run's instruction
    count, filled in: dispatches outside traces, trace entries and
    completions, completed and partial work, and traces built
    ([traces_constructed]); every other field is 0. *)
