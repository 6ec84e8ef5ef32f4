(** Warm-start benchmarks: the payoff of persisting profile state
    ({!Tracegen.Persist}) and the cost model behind footprint-aware
    eviction. *)

type phase = {
  to_peak : int;  (** dispatch index of the first window at peak *)
  deficit : int;  (** dispatches spent below steady state *)
  built : int;  (** traces constructed *)
}

type cold_warm = {
  cold : phase;
  warm : phase;  (** restored from the cold run's end-of-run snapshot *)
}

val workloads : unit -> Workloads.Workload.t list
(** The two learning curves {!cold_vs_warm} is reported on: mpegaudio
    (a slow-ramping DSP pipeline) and raytrace (polymorphic). *)

val cold_vs_warm : ?scale:float -> Workloads.Workload.t -> cold_warm
(** Time-to-peak-throughput, cold vs warm, on one workload.  Each run
    takes a phase snapshot every 2000 dispatches; a window's
    throughput is its trace-dispatch share, and the run is "at peak"
    from the first window reaching 90% of its steady-state share (mean
    of the last quarter of windows).  The warm-up deficit — dispatches
    spent below steady state, the area above the throughput curve —
    aggregates the whole learning curve even when the workload ramps
    intrinsically.  The warm run restores the cold run's end-of-run
    snapshot and should show a smaller deficit while constructing far
    fewer traces.  Every field is a deterministic count. *)

val eviction_ablation : ?scale:float -> unit -> string
(** The same workloads under a starved cache (12 traces), once with
    plain LRU eviction and once with the footprint-aware policy
    (condemn the worst bytes-per-use trace), comparing evictions,
    trace-dispatch share, completed coverage and the i-cache footprint
    of the surviving cache. *)
