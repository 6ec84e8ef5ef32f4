(* Parameters of the profiling and trace-generation algorithm (paper §5.2)
   and of the subsystems layered on it, as one flat record.  [make] is
   the only constructor and validates; the leaf accessors below are the
   only readers. *)

module Cache = struct
  type eviction_policy = Lru | Footprint_aware

  let eviction_policy_to_string = function
    | Lru -> "lru"
    | Footprint_aware -> "footprint"
end

type t = {
  (* the BCG profiler and trace builder (paper §5.2 proper) *)
  start_state_delay : int;
      (* executions before a branch node leaves the newly-created state;
         filters rarely executed code *)
  threshold : float;
      (* minimum expected trace completion probability, and the
         strong/weak correlation boundary *)
  decay_period : int; (* node executions between exponential decay passes *)
  build_traces : bool; (* false = profile-only run (Table VI) *)
  snapshot_period : int;
      (* dispatches between Phase_snapshot events; 0 disables them
         (the observability layer's quiescent default) *)
  debug_checks : bool;
      (* run the trace/BCG invariant checks at trace-construction and
         decay boundaries, emitting an event per violation *)
  (* the trace cache *)
  max_cache_traces : int;
      (* bound on live traces; 0 = unbounded.  Exceeding it evicts a
         victim chosen by [eviction_policy]. *)
  eviction_policy : Cache.eviction_policy;
      (* Lru condemns the least recently dispatched entry;
         Footprint_aware the worst estimated-bytes-per-use ratio *)
  (* self-healing and the degradation ladder *)
  self_heal : bool;
      (* validate traces at dispatch, quarantine on any detected fault,
         heal corrupted BCG nodes, and walk the degradation ladder *)
  (* fault injection *)
  fault_spec : string;
      (* schedule DSL (see Faults.parse); "" disables injection.  Parsed
         by the engine at creation. *)
  fault_seed : int; (* PRNG seed of the fault injector *)
  (* on-stack replacement *)
  osr : bool;
      (* guard failures deoptimize to exact interpreter state at the
         failing block, and hot loop headers are promoted into traces
         mid-iteration *)
  osr_promote_after : int;
      (* outside-trace dispatches of one loop header before the mid-loop
         promotion fires *)
  (* the compiled micro-IR tier *)
  tier : bool;
  tier_compile_after : int;
      (* cache uses of one trace before the cost model compiles it *)
  tier_compile_budget : int;
      (* bound on simultaneously compiled traces; exceeding it demotes
         the coldest compiled trace (pinned traces are exempt) *)
  (* observability *)
  flightrec_capacity : int;
      (* flight-recorder ring capacity; 0 disarms the recorder *)
}

(* The constants the paper fixes, and the builder's defensive caps. *)
let counter_max = 65535 (* 16-bit saturating counters *)
let min_trace_blocks = 2 (* a 1-block trace is a no-op *)
let max_trace_blocks = 64
let max_walk = 256
let max_backtrack = 128

(* The self-healing schedule: quarantines of one entry before it is
   blacklisted for good; cache clock units before a quarantined entry
   may be rebuilt (doubling per quarantine of the same entry);
   detections before dropping a health level; consecutive clean
   dispatches before climbing one. *)
let heal_max_rebuilds = 3
let heal_backoff = 512
let heal_demote_after = 3
let heal_recover_after = 400

let default =
  {
    start_state_delay = 64;
    threshold = 0.97;
    decay_period = 256;
    build_traces = true;
    snapshot_period = 0;
    debug_checks = false;
    max_cache_traces = 0;
    eviction_policy = Cache.Lru;
    self_heal = false;
    fault_spec = "";
    fault_seed = 1;
    osr = false;
    osr_promote_after = 96;
    tier = false;
    tier_compile_after = 32;
    tier_compile_budget = 64;
    flightrec_capacity = 512;
  }

let validate t =
  if t.start_state_delay < 1 then invalid_arg "start_state_delay < 1";
  (* written positively so a NaN, which fails every comparison, is
     rejected too *)
  if not (t.threshold > 0.0 && t.threshold <= 1.0) then
    invalid_arg "threshold out of (0, 1]";
  if t.decay_period < 2 then invalid_arg "decay_period < 2";
  if t.snapshot_period < 0 then invalid_arg "snapshot_period < 0";
  if t.max_cache_traces < 0 then invalid_arg "max_cache_traces < 0";
  if t.osr_promote_after < 1 then invalid_arg "osr_promote_after < 1";
  if t.tier_compile_after < 1 then invalid_arg "tier_compile_after < 1";
  if t.tier_compile_budget < 1 then invalid_arg "tier_compile_budget < 1";
  if t.flightrec_capacity <> 0 && t.flightrec_capacity < 2 then
    invalid_arg "flightrec_capacity must be 0 (off) or >= 2"

let make ?(start_state_delay = default.start_state_delay)
    ?(threshold = default.threshold) ?(decay_period = default.decay_period)
    ?(build_traces = default.build_traces)
    ?(snapshot_period = default.snapshot_period)
    ?(debug_checks = default.debug_checks)
    ?(max_cache_traces = default.max_cache_traces)
    ?(eviction_policy = default.eviction_policy)
    ?(self_heal = default.self_heal)
    ?(fault_spec = default.fault_spec) ?(fault_seed = default.fault_seed)
    ?(osr = default.osr) ?(osr_promote_after = default.osr_promote_after)
    ?(tier = default.tier) ?(tier_compile_after = default.tier_compile_after)
    ?(tier_compile_budget = default.tier_compile_budget)
    ?(flightrec_capacity = default.flightrec_capacity) () =
  let t =
    {
      start_state_delay;
      threshold;
      decay_period;
      build_traces;
      snapshot_period;
      debug_checks;
      max_cache_traces;
      eviction_policy;
      self_heal;
      fault_spec;
      fault_seed;
      osr;
      osr_promote_after;
      tier;
      tier_compile_after;
      tier_compile_budget;
      flightrec_capacity;
    }
  in
  validate t;
  t

let start_state_delay t = t.start_state_delay
let threshold t = t.threshold
let decay_period t = t.decay_period
let build_traces t = t.build_traces
let snapshot_period t = t.snapshot_period
let debug_checks t = t.debug_checks
let max_cache_traces t = t.max_cache_traces
let eviction_policy t = t.eviction_policy
let self_heal t = t.self_heal
let fault_spec t = t.fault_spec
let fault_seed t = t.fault_seed
let osr_enabled t = t.osr
let osr_promote_after t = t.osr_promote_after
let tier_enabled t = t.tier
let tier_compile_after t = t.tier_compile_after
let tier_compile_budget t = t.tier_compile_budget
let flightrec_capacity t = t.flightrec_capacity
