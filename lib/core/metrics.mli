(** A registry of named counters, gauges and histograms with periodic
    snapshotting.

    The registry is the numeric half of the observability layer (the
    {!Events} stream is the other): components register either {e owned
    counters} (a mutable cell bumped on the hot path), {e polled gauges}
    (a closure evaluated only when a snapshot is taken — the engine
    exposes its dispatch accounting this way, at zero hot-path cost), or
    {e histograms} (fixed power-of-two buckets; recording is O(1) and
    allocation-free, so distributions such as executed-trace length can
    be captured from the dispatch path).

    Snapshotting is driven by {!tick}, which the engine calls once per
    dispatch: every [period] ticks the registry evaluates every metric
    and appends a {!snapshot} to the series.  With [period = 0]
    (the default) a tick is one integer increment and one compare —
    the disabled path stays effectively free. *)

type t

type counter
(** An owned mutable cell, resolved once at registration. *)

type histogram
(** Fixed-bucket distribution of non-negative integer observations.
    Bucket 0 counts observations [<= 0]; bucket [i] counts
    [[2^(i-1), 2^i - 1]]; the last bucket is unbounded above
    (overflow).  Negative observations are clamped to [0]. *)

type snapshot = {
  at : int;  (** the tick count (dispatch index) the snapshot was taken at *)
  values : (string * int) array;
      (** every registered metric, in registration order.  A histogram
          contributes six fields: [name.count], [name.sum], [name.p50],
          [name.p90], [name.p99] and [name.max]. *)
}

val create : ?period:int -> unit -> t
(** [period] ticks between snapshots; [0] (default) disables periodic
    snapshotting.  @raise Invalid_argument on a negative period. *)

val period : t -> int

val set_period : t -> int -> unit
(** Change the snapshot period and restart the countdown.  If ticks had
    already accumulated toward the next snapshot, one snapshot is taken
    at the change point first — a mid-run period change never drops the
    observations straddling the boundary. *)

val counter : t -> string -> counter
(** Find or register the named counter.
    @raise Invalid_argument if the name is registered as something
    else. *)

val incr : ?by:int -> counter -> unit

val counter_value : counter -> int

val counter_name : counter -> string

val gauge : t -> string -> (unit -> int) -> unit
(** Register a polled gauge; the closure runs only at snapshot time.
    @raise Invalid_argument if the name is already registered. *)

val gauges : t -> (string * ('a -> int)) list -> (unit -> 'a) -> unit
(** [gauges t named sample] registers one polled gauge per
    [(name, project)], all projecting one sample: a snapshot runs
    [sample] once for the whole group, which flattens into one field
    per name.
    @raise Invalid_argument if a name is already registered. *)

val histogram : t -> ?buckets:int -> string -> histogram
(** Find or register the named histogram with [buckets] power-of-two
    buckets (default 16; the first find-or-register fixes the count).
    @raise Invalid_argument if the name is registered as something else,
    or if [buckets] is outside [[2, 62]]. *)

val record : histogram -> int -> unit
(** O(1): one bit-length loop and one array bump.  Negative values are
    clamped to [0]. *)

val hist_name : histogram -> string

val hist_count : histogram -> int
(** Number of observations recorded. *)

val hist_sum : histogram -> int

val hist_mean : histogram -> float
(** [0.0] when empty. *)

val hist_min : histogram -> int
(** Smallest observation ([0] when empty). *)

val hist_max : histogram -> int
(** Largest observation ([0] when empty). *)

val percentile : histogram -> float -> int
(** [percentile h p] for [p] in [[0, 100]]: an upper bound on the value
    at rank [ceil(p/100 * count)], reported as the containing bucket's
    upper edge clamped to the observed [min]/[max] (so [p <= 0] is the
    minimum, [p >= 100] the maximum, and a single-valued histogram
    answers exactly).  [0] when empty. *)

val n_buckets : histogram -> int

val bucket_count : histogram -> int -> int
(** Observations in bucket [i]. *)

val bucket_bounds : histogram -> int -> int * int
(** Inclusive [(lo, hi)] range of bucket [i]; the overflow bucket's
    upper bound is [max_int].  @raise Invalid_argument out of range. *)

val read : t -> string -> int option
(** Current value of any registered metric (polls gauges; a histogram
    reads as its observation count). *)

val names : t -> string list
(** Registered metric names, in registration order. *)

val tick : t -> unit
(** Advance the dispatch clock; takes a snapshot when the period
    elapses. *)

val ticks : t -> int

val force_snapshot : t -> snapshot
(** Snapshot now, off the periodic schedule; appended to the series and
    reported to the {!on_snapshot} callback like a periodic one. *)

val snapshots : t -> snapshot list
(** The snapshot series so far, in chronological order. *)

val on_snapshot : t -> (snapshot -> unit) -> unit
(** Called at every snapshot (periodic or forced), after it is appended
    to the series.  Callbacks run in registration order. *)
