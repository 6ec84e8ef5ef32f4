(** Branch-correlation states (paper §4.1.1), in descending degree of
    correlation. *)

type t =
  | Unique
      (** Exactly one successor is live: every surviving observation took
          the same branch.  Correlation is exactly 1. *)
  | Strongly_correlated
      (** The best successor's correlation is at or above the threshold:
          trace construction may follow it. *)
  | Weakly_correlated
      (** No successor is predictable enough to follow. *)
  | Newly_created
      (** Still inside the start-state delay: possibly rare code, not yet
          eligible for traces. *)

val to_string : t -> string

val is_followable : t -> bool
(** [true] when trace construction may extend a trace through this branch
    ({!Unique} or {!Strongly_correlated}). *)

val pp : Format.formatter -> t -> unit
