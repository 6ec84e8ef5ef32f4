(** The byte-cost model of the profiling and trace structures — the one
    definition shared by the footprint-aware eviction policy
    ({!Trace_cache.pressure_evict}) and the harness footprint report,
    so the two cannot drift (paper §3.5's representation-cost concern,
    §3.3's cache-size concern). *)

val microp_bytes : int
(** Bytes per decoded micro-op of a compiled (lowered) trace body:
    opcode plus registers/immediate. *)

val trace_bytes : Trace.t -> int
(** Estimated i-cache footprint of one cached trace:
    one direct-threaded code slot per instruction, plus
    [n_ops * microp_bytes] for the
    lowered body when the trace holds a compiled-tier slot — so
    footprint-aware eviction and the cache-pressure path price compiled
    traces honestly. *)

val cache_bytes : trace_instrs:int -> int
(** Footprint of a whole cache holding [trace_instrs] instructions. *)

val bcg_bytes : nodes:int -> edges:int -> int
(** Footprint of a BCG with the given population. *)
