(** Wall-clock profiler overhead (paper Tables VI and VII).

    Table VI methodology: time the interpreter with no observer, then
    with the profiler hook on every block dispatch (trace building
    disabled), and report overhead per million dispatches.  The two
    runs alternate in pairs ({!paired}), and the overhead is the median
    of the pairs' differences.

    Table VII methodology: under trace dispatch the hook runs once per
    dispatch (block or trace), so multiplying the measured per-dispatch
    cost by the trace-model dispatch count predicts the full system's
    profiling overhead, as the paper does. *)

type row = {
  name : string;
  plain_sec : float;  (** the best round's time *)
  dispatches : int;  (** hook executions in the profiled configuration *)
  profiled_sec : float;  (** the best round's time *)
  per_million : float;
      (** the median of the rounds' profiled − plain differences, in
          seconds per million dispatches *)
}

val paired : repeats:int -> (unit -> 'a) -> (unit -> 'b) -> ('a * 'b) list
(** [paired ~repeats a b] runs [a] and [b] [repeats] times each, one of
    each per round, alternating which goes first: [a] leads rounds 0, 2,
    4, … and [b] rounds 1, 3, 5, ….  Returns each round's pair of
    results, [a]'s first, in round order. *)

val table6 : ?scale:float -> ?repeats:int -> unit -> string * row list
(** [repeats] {!paired} rounds of each workload in both configurations,
    one {!row} per workload. *)

val table7 : ?scale:float -> ?repeats:int -> ?rows:row list -> unit -> string
(** Pass [rows] from a prior {!table6} to avoid re-measuring (and to keep
    the two tables consistent within one report). *)
