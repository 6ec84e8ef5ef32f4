(** The interpreter.

    Execution proceeds basic block by basic block, mirroring a
    direct-threaded-inlining interpreter: entering a block is a
    {e dispatch}, and the [on_block] observer is invoked with the block's
    global id at every dispatch — this is the hook the paper's profiler
    attaches to.  Calls and returns produce dispatches too (caller block,
    callee entry block, return-continuation block), so traces can cross
    method boundaries seamlessly.

    Runtime errors (null dereference, bad index, division by zero, …) are
    reported as {!Trapped} outcomes, never OCaml exceptions escaping
    {!run}. *)

type error_kind =
  | Null_pointer
  | Array_bounds
  | Division_by_zero
  | No_such_method
  | Type_confusion
  | Stack_overflow
  | Uncaught_exception
  | Instruction_budget

exception Runtime_error of error_kind * string

val error_kind_to_string : error_kind -> string

type outcome =
  | Finished of Value.t option  (** the entry method's return value *)
  | Trapped of error_kind * string

type result = {
  outcome : outcome;
  instructions : int;
      (** bytecodes executed — the per-instruction dispatch count of an
          ordinary interpreter (Figure 1) *)
  block_dispatches : int;
      (** block entries — the dispatch count of a
          direct-threaded-inlining interpreter (Figure 2) *)
}

val run :
  ?max_instructions:int ->
  Cfg.Layout.t ->
  on_block:(Cfg.Layout.gid -> unit) ->
  result
(** Execute the program from its entry method, invoking [on_block] at
    every basic-block dispatch.  [max_instructions] bounds runaway
    programs via an {!Instruction_budget} trap.  [on_block] is the
    interpreter's one observer; one that needs the frame's state reads
    it with {!materialize} on a handle from {!start}. *)

val run_plain : ?max_instructions:int -> Cfg.Layout.t -> result
(** {!run} with no observer: the unmodified interpreter of Table VI. *)

(** {2 Resumable execution}

    The stepping API underneath {!run}: a handle holds a paused program
    between batches of basic blocks, so several programs can be
    interleaved by one driver (the multi-workload [Session] layer).
    Executing all blocks through a handle is bit-identical to a single
    {!run} — same observer calls, same counters, same outcome. *)

type handle
(** A paused program.  It owns its interpreter state: one shared stack
    holding every frame's locals and operands, ints and floats unboxed,
    and a pool of frames, one per call depth, that calls reuse instead
    of allocating.  No two handles share any of it. *)

val start :
  ?max_instructions:int ->
  Cfg.Layout.t ->
  on_block:(Cfg.Layout.gid -> unit) ->
  handle
(** Set up the program at its entry method without executing anything.
    Parameters as in {!run}. *)

val running : handle -> bool
(** Whether there is more program to execute: [false] once the entry
    method has returned or a runtime error trapped the program. *)

val step_blocks : handle -> int -> int
(** [step_blocks h n] executes up to [n] basic blocks (each one dispatch)
    and returns the number actually dispatched — less than [n] only when
    the program finished or trapped.  A runtime error raised mid-block is
    absorbed into the handle's outcome, never re-raised; the trapping
    block counts as dispatched.  Returns [0] once {!running} is false. *)

val finish : handle -> result
(** Execute the remaining program (if any) and return the final result.
    Idempotent once the program has stopped. *)

val result_of : handle -> result
(** The result of a stopped handle without driving it further.
    @raise Invalid_argument if the program is still {!running}. *)

(** {2 State materialization (OSR)}

    A deoptimizing engine must show that abandoning a trace mid-flight
    leaves the interpreter exactly where pure block dispatch would be.
    {!materialize} captures the live continuation at a block boundary.
    At every deopt the OSR machinery compares the innermost block
    ({!innermost_block}, the snapshot's [m_block]) with the block
    dispatch resumes at, and reports a mismatch as invariant TL219; it
    compares no locals or operands. *)

type frame_snapshot = {
  fs_method : int;  (** method id *)
  fs_pc : int;
  fs_sp : int;  (** operands in the frame's own window *)
  fs_locals : Value.t array;
      (** the frame's locals, boxed into a fresh array; as many as
          [max 1 n_locals] *)
  fs_stack : Value.t array;  (** the frame's operands only, bottom first *)
}

type materialized = {
  m_frames : frame_snapshot list;  (** innermost first *)
  m_instructions : int;
  m_block : Cfg.Layout.gid option;
      (** the block the innermost frame's pc resolves to; [None] once
          the program has stopped *)
}

val innermost_block : handle -> Cfg.Layout.gid
(** The block the innermost frame's pc resolves to, [-1] once the
    program has stopped: {!materialize}'s [m_block] without the
    snapshot.  Allocates nothing. *)

val materialize : handle -> materialized
(** Snapshot the interpreter continuation.  Meaningful at block
    boundaries — between {!step_blocks} batches, or from inside an
    [on_block] observer (the observer runs before the block executes, so
    [m_block] is the block just dispatched).  The snapshot copies every
    value it shows, so later calls that reuse the frames it describes
    leave it unchanged. *)

val result_value : result -> Value.t option
(** The returned value.
    @raise Invalid_argument if the program trapped. *)
