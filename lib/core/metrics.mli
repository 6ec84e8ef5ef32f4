(** Histograms and the phase-snapshot payload.

    A {e histogram} has fixed power-of-two buckets, so recording is
    O(1) and allocation-free.  The engine keeps none: a distribution
    such as executed-trace length is folded from the fields of the
    events that carry it ([Harness.Oracle]'s tally keeps five).  Every
    [Config.snapshot_period] dispatches the engine samples its counters
    into one {!snapshot}, published as a [Phase_snapshot] event. *)

type histogram
(** Fixed-bucket distribution of non-negative integer observations.
    Bucket 0 counts observations [<= 0]; bucket [i] counts
    [[2^(i-1), 2^i - 1]]; the last bucket is unbounded above
    (overflow).  Negative observations are clamped to [0]. *)

type snapshot = {
  at : int;  (** the dispatch the snapshot was taken in (1-based) *)
  values : (string * int) array;  (** every sampled value, in a fixed order *)
}

val histogram : string -> histogram
(** A fresh, empty histogram with 16 power-of-two buckets. *)

val record : histogram -> int -> unit
(** O(1): one bit-length loop and one array bump.  Negative values are
    clamped to [0]. *)

val hist_name : histogram -> string

val hist_count : histogram -> int
(** Number of observations recorded. *)

val hist_sum : histogram -> int

val hist_mean : histogram -> float
(** [0.0] when empty. *)

val hist_max : histogram -> int
(** Largest observation ([0] when empty). *)

val percentile : histogram -> float -> int
(** [percentile h p] for [p] in [[0, 100]]: an upper bound on the value
    at rank [ceil(p/100 * count)], reported as the containing bucket's
    upper edge clamped to the observed [min]/[max] (so [p <= 0] is the
    minimum, [p >= 100] the maximum, and a single-valued histogram
    answers exactly).  [0] when empty. *)
