module Program = Bytecode.Program
module Mthd = Bytecode.Mthd

(** Program-wide block numbering.

    Every basic block of every method gets a dense global id ("gid"); the
    profiler, the trace cache and all statistics speak gids.  The layout
    also records each block's static instruction count, needed for
    instruction-stream-coverage accounting. *)

type gid = int

type t = {
  program : Program.t;
  cfgs : Method_cfg.t array;  (** indexed by method id *)
  offsets : int array;  (** method id -> first gid of its blocks *)
  n_blocks : int;
  block_of_gid : Block.t array;
  instr_len : int array;  (** gid -> static instruction count *)
  mutable fingerprint_memo : string option;
      (** {!fingerprint}'s cached digest; [None] until first asked for *)
}

val build : Program.t -> t
(** Build every method's CFG and assign global ids.
    @raise Invalid_argument on malformed control flow (wild branch
    targets, code falling off a method's end). *)

val fingerprint : t -> string
(** 16-byte MD5 fingerprint of the layout: the program's binary
    encoding ([Marshal], without sharing) plus the block numbering.  Two layouts built separately from the same program have
    the same fingerprint.  Computed on first call and cached in the
    layout, so {!build} does not pay for it. *)

val gid : t -> method_id:int -> block_index:int -> gid

val gid_at_pc : t -> method_id:int -> pc:int -> gid
(** The gid of the block containing [pc]. *)

val block : t -> gid -> Block.t

val method_of_gid : t -> gid -> Mthd.t

val cfg_of_method : t -> method_id:int -> Method_cfg.t

val block_len : t -> gid -> int

val describe : t -> gid -> string
(** A readable block name: ["method:Bk@pc"]. *)
