(** Frame construction after rePLay (Patel & Lumetta, IEEE TC 2001),
    simulated in software.

    A conditional branch is {e promoted} to an assertion once it resolves
    the same way {!field:config.promotion_run} consecutive times under the
    same depth-{!field:config.history_bits} branch history.  Frames are
    maximal block sequences whose internal conditional branches were all
    promoted when executed; an assertion failure at run time aborts the
    frame (the hardware would roll the work back, so aborted work is
    accounted as partial, not completed).

    Deviations from the hardware (also recorded in DESIGN.md): frames are
    keyed by entry block rather than fetch address + history register, and
    construction happens on the dispatch stream rather than in a
    retirement buffer. *)

type config = {
  promotion_run : int;  (** consecutive same-direction outcomes: 32 *)
  history_bits : int;  (** correlated history depth: 6 *)
  max_blocks : int;  (** 32 by default *)
  min_blocks : int;  (** 2 by default *)
}

type t = private {
  layout : Cfg.Layout.t;
  config : config;
  bias : (int, bias) Hashtbl.t;
  frames : (Cfg.Layout.gid, frame) Hashtbl.t;
  mutable history : int;
  mutable mode : mode;
  mutable prev : Cfg.Layout.gid;
  counts : Tracegen.Stats.t;
      (** the engine's counters that frame construction has, a frame
          counting as a trace and rolled-back work as partial; read
          them through {!stats} *)
  mutable promotions : int;
  mutable demotions : int;
}

and bias = {
  mutable dir : bool;
  mutable count : int;
  mutable promoted : bool;
}

and frame = {
  entry : Cfg.Layout.gid;
  blocks : Cfg.Layout.gid array;
  total_instrs : int;
  instr_len : int array;
}

and mode =
  | Idle
  | Recording of Cfg.Layout.gid list
  | Executing of frame * int * int * int

val create : ?config:config -> Cfg.Layout.t -> t

val on_block : t -> Cfg.Layout.gid -> unit

val stats : t -> instructions:int -> Tracegen.Stats.t
(** A copy of the counters with [instructions], the run's instruction
    count, filled in; frames built are [traces_constructed]. *)

val run :
  ?config:config -> ?max_instructions:int -> Cfg.Layout.t -> Tracegen.Stats.t
(** Run a program under frame construction and return its {!stats}. *)
