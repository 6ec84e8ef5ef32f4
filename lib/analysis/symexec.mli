(** Symbolic evaluation of straight-line stack bytecode.

    Evaluates an instruction sequence to a canonical symbolic state:
    a normalized symbolic operand stack, the final store write per
    (epoch, slot), and ordered journals of heap/allocation effects,
    trap conditions and guard predicates.  {!Equiv} compares two such
    states to decide observational equivalence of an optimized trace
    and its source blocks; [Tracegen.Trace_prover] walks states
    block-by-block to prove guards implied.

    The evaluator mirrors {!Vm.Interp}'s concrete semantics (same
    folding, same masked shifts, same [compare]-based [fcmp], same trap
    preconditions) but over terms.  Calls, returns and throws are
    {e epoch barriers}: they snapshot the residual stack into the effect
    journal and reset stack and locals, exactly where
    [Tracegen.Trace_optimizer] forgets its own abstract state.

    Deliberate abstractions (each shared with the optimizer's license):
    intermediate local writes overwritten within the same epoch are not
    modeled; resource-exhaustion traps (instruction budget, call-stack
    overflow) are environmental and not modeled; type-confusion traps
    are excluded because {!Bytecode.Verify} rules them out. *)

type sym =
  | Sint of int
  | Sfloat of float
  | Snull
  | Slocal of int * int
      (** [(epoch, slot)]: the value local [slot] held at epoch start *)
  | Sstack of int * int
      (** [(epoch, k)]: the k-th value popped from below the epoch's
          initial stack top *)
  | Sunop of string * sym
  | Sbinop of string * sym * sym
  | Seffect of int * string  (** result of effect-journal entry [i] *)

type effect_ = {
  eff_op : string;
  eff_args : sym list;
  eff_stack : sym list;
      (** barriers only: normalized residual stack at the barrier *)
  eff_consumed : int;
}

type trap = { trap_kind : string; trap_args : sym list }
(** A condition under which the sequence traps instead of completing:
    ["div_zero"], ["null"], ["bounds"] or ["negsize"].  Recorded unless
    the argument term proves the trap impossible. *)

type guard = { guard_op : string; guard_args : sym list }
(** A conditional/switch with its popped operand terms. *)

module Smap : Map.S with type key = int * int

type state = {
  stack : sym list;  (** top first *)
  consumed : int;
  epoch : int;
  locals : sym Smap.t;
  writes : sym Smap.t;
  effects : effect_ list;  (** reverse program order *)
  n_effects : int;
  traps : trap list;  (** reverse program order *)
  guards : guard list;  (** reverse program order *)
}

val initial : state

val exec : state -> Bytecode.Instr.t -> state
(** One instruction; total — every opcode has a symbolic transfer. *)

val run : ?from:state -> Bytecode.Instr.t array -> state
(** Fold {!exec} over a sequence.  [from] resumes an earlier state, the
    shape the block-by-block pruner walk needs. *)

val pop : state -> sym * state
(** Pop (materializing a [Sstack] term below the epoch's entry stack when
    the symbolic stack is empty).  Exposed so a caller can name the exact
    operand terms an upcoming [exec] will consume. *)

val assume_local : state -> slot:int -> sym -> state
(** Record an externally-established local value (e.g. a constant-
    propagation fact) without counting it as a store. *)

val tracks_local : state -> slot:int -> bool

val normalized_stack : state -> sym list * int
(** The stack with the untouched identity suffix stripped from the
    bottom, paired with the net consumed-from-below count. *)

val final_writes : state -> sym Smap.t
(** Last write per (epoch, slot), identity writes removed. *)

val effects : state -> effect_ list
(** Program order. *)

val traps : state -> trap list
val guards : state -> guard list

val concretize : local:(int -> sym option) -> sym -> sym option
(** Substitute epoch-0 locals with concrete terms and refold; [None] when
    the term depends on unknown stack slots, later epochs or heap
    effects. *)

val sym_to_string : sym -> string
val effect_to_string : effect_ -> string
val trap_to_string : trap -> string
val guard_to_string : guard -> string
