(** Flat register-based micro-IR for hot traces.

    The stack bytecode of a trace's blocks is converted to straight-line
    register code: every operand-stack push allocates a virtual register
    identified by its (epoch, stack depth) at push time, where the epoch
    increments at each call/return/throw barrier.  Guards — the
    per-position block checks trace dispatch performs — are first-class
    IR ops, which lets a fusion pass combine a block-ending compare with
    the guard it feeds (one superinstruction) and adjacent local-load +
    integer-arithmetic pairs (another).

    Lowering constant-folds with trace-local constants plus an optional
    oracle of {!Analysis.Constprop} block-entry facts, forwards locals
    through stores, and eliminates dead registers and dead stores (the
    trailing-store license mirrors {!Trace_optimizer}: the caller proves
    a slot dead at the trace seam via {!Analysis.Liveness}).

    A lowered body is derived state: never persisted, never executed —
    {!Vm.Interp} always runs the real bytecode and backends only
    observe.  The body is what the compiled tier accounts dispatch
    against and what {!Trace_prover} re-derives to cross-check (TL220). *)

type reg = int

type cval =
  | Cint of int
  | Cfloat of float
  | Cnull

type iop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Ushr

type fop =
  | Fadd
  | Fsub
  | Fmul
  | Fdiv

type call_target =
  | Static of int  (** method id *)
  | Virtual of int  (** selector slot *)

type ret_kind =
  | Rvoid
  | Rint
  | Rfloat
  | Rref

type op =
  | Const of { dst : reg; v : cval }
  | Move of { dst : reg; src : reg }
  | Iarith of { op : iop; dst : reg; a : reg; b : reg }
  | Farith of { op : fop; dst : reg; a : reg; b : reg }
  | Ineg of { dst : reg; src : reg }
  | Fneg of { dst : reg; src : reg }
  | F2i of { dst : reg; src : reg }
  | I2f of { dst : reg; src : reg }
  | Fcmp of { dst : reg; a : reg; b : reg }
  | Load of { dst : reg; slot : int }
  | Store of { slot : int; src : reg }
  | Inc of { slot : int; delta : int }
  | Getfield of { dst : reg; obj : reg; cid : int; slot : int }
  | Putfield of { obj : reg; src : reg; cid : int; slot : int }
  | New_obj of { dst : reg; cid : int }
  | Instance_of of { dst : reg; src : reg; cid : int }
  | New_array of { dst : reg; kind : Bytecode.Instr.array_kind; len : reg }
  | Array_load of {
      dst : reg;
      arr : reg;
      idx : reg;
      kind : Bytecode.Instr.array_kind;
    }
  | Array_store of {
      arr : reg;
      idx : reg;
      src : reg;
      kind : Bytecode.Instr.array_kind;
    }
  | Array_len of { dst : reg; src : reg }
  | Branch of { cond : Bytecode.Instr.cond; a : reg; b : reg }
  | Branchz of { cond : Bytecode.Instr.cond; src : reg }
  | Switch of { src : reg }
  | Call of { target : call_target }
  | Ret of ret_kind
  | Throw of { src : reg }
  | Guard of { pos : int; expect : Cfg.Layout.gid }
  | Cmp_guard of {
      cond : Bytecode.Instr.cond;
      a : reg;
      b : reg;
      pos : int;
      expect : Cfg.Layout.gid;
    }  (** fused compare + transition guard *)
  | Cmpz_guard of {
      cond : Bytecode.Instr.cond;
      src : reg;
      pos : int;
      expect : Cfg.Layout.gid;
    }  (** fused compare-with-zero + transition guard *)
  | Load_arith of {
      op : iop;
      dst : reg;
      slot : int;
      other : reg;
      load_left : bool;
    }  (** fused local load + integer arithmetic *)

type body = {
  ops : op array;
  block_start : int array;
      (** ops index where each trace position's segment begins *)
  pos_ops : int array;  (** micro-ops per position, after DCE and fusion *)
  pos_fused : int array;  (** superinstructions per position *)
  pos_src : int array;  (** source bytecode instructions per position *)
  reg_origin : (int * int) array;
      (** (epoch, stack depth) of each register; depth -1 marks an opaque
          incoming value from below the trace entry's stack *)
  n_regs : int;
  src_instrs : int;
  folded : int;  (** ops never emitted: constants, renames, dispatch glue *)
  dead : int;  (** ops removed by dead-register/dead-store elimination *)
  fused : int;  (** superinstructions formed *)
}

val n_ops : body -> int

val n_positions : body -> int

val is_fused : op -> bool

val def_of : op -> reg option
(** The register the op writes, if any. *)

val uses_of : op -> reg list
(** The registers the op reads. *)

val lower :
  ?local_const:(pos:int -> slot:int -> cval option) ->
  ?store_dead:(pos:int -> slot:int -> bool) ->
  (Cfg.Layout.gid * Bytecode.Instr.t array) array ->
  body
(** [lower blocks] converts a trace — its positions as (block gid,
    instructions) pairs, entry first — into a lowered body.
    [local_const ~pos ~slot] supplies a constant known to hold for the
    local [slot] on entry to the block at trace position [pos]
    (typically a {!Analysis.Constprop} singleton); it is consulted only
    while sound (not after the slot was written in the position, not
    after a call barrier).  [store_dead ~pos ~slot] licenses dropping a
    trailing store (never re-read inside the trace) at position [pos]:
    the caller must prove the slot dead at the trace seam and not
    observable on an exceptional edge.  Raises [Invalid_argument] on an
    empty trace. *)

val equal_body : body -> body -> bool
(** Structural equality of the op streams (the TL220 comparison). *)

val check : ?expect:Cfg.Layout.gid array -> body -> string list
(** Structural invariant violations, empty when sound: monotone segment
    starts, registers in range, exactly one guard per position 1..n-1
    (fused or not), and — when [expect] gives the trace's block gids —
    every guard expecting the right block. *)

val cval_to_string : cval -> string

val op_to_string : op -> string
