module Stats = Tracegen.Stats
module Engine = Tracegen.Engine

(* Warm-start benchmarks.

   [cold_vs_warm] measures time-to-peak-throughput: how many dispatches
   a run spends below its best trace-dispatch mix before the cache has
   learned the program.  A cold engine pays the whole learning curve; a
   warm one restores the previous run's snapshot and should sit at peak
   from the first window.  Peak detection is deterministic: the engine
   publishes a phase snapshot every [window] dispatches, each window's
   trace-dispatch share is computed by differencing consecutive
   snapshots, and the run is "at peak" from the first window reaching
   90% of its steady-state share.  Because some workloads ramp or shift
   phases intrinsically (so cold and warm cross that line together),
   it also reports the warm-up deficit — the area between the
   throughput curve and steady state, in dispatches — which aggregates
   the whole learning curve and is what the snapshot actually buys
   back. *)

(* [eviction_ablation] starves the cache (small [max_cache_traces]) and
   runs the same workloads under plain LRU and under the footprint-aware
   policy, comparing completed coverage, trace-dispatch share and the
   i-cache footprint of what survived. *)

let window = 2_000

let value (s : Tracegen.Metrics.snapshot) name =
  match Array.find_opt (fun (n, _) -> n = name) s.Tracegen.Metrics.values with
  | Some (_, v) -> v
  | None -> 0

type phase = {
  to_peak : int;  (* dispatch index of the first window at >= 90% of peak *)
  deficit : int;  (* dispatches below steady state, summed over windows *)
  built : int;  (* traces constructed *)
}

type cold_warm = { cold : phase; warm : phase }

(* Drive a fresh engine (optionally warm-started from [snapshot]),
   collecting its phase snapshots off the event stream, and locate its
   throughput peak; returns the engine, for the next run's snapshot,
   with the run's phase. *)
let measure ?snapshot layout =
  let config = Tracegen.Config.make ~snapshot_period:window () in
  let events = Tracegen.Events.create () in
  let series = ref [] in
  Tracegen.Events.subscribe events (fun e ->
      match e.Tracegen.Events.payload with
      | Tracegen.Events.Phase_snapshot s -> series := s :: !series
      | _ -> ());
  let engine = Engine.create ~config ~events layout in
  (match snapshot with
  | None -> ()
  | Some data -> (
      match Engine.restore engine data with
      | Ok _ -> ()
      | Error e -> invalid_arg (Tracegen.Persist.error_to_string e)));
  let run = Engine.drive engine in
  let snaps = List.rev !series in
  (* windowed trace-dispatch share between consecutive snapshots *)
  let shares =
    let rec windows prev acc = function
      | [] -> List.rev acc
      | s :: rest ->
          let d name = value s name - value prev name in
          let traces = d "traces_entered" in
          let blocks = d "block_dispatches" in
          let share =
            if traces + blocks <= 0 then 0.0
            else float_of_int traces /. float_of_int (traces + blocks)
          in
          windows s ((s.Tracegen.Metrics.at, share) :: acc) rest
    in
    match snaps with
    | [] -> []
    | first :: rest ->
        (* the first snapshot's window starts at dispatch 0 *)
        let zero = { first with Tracegen.Metrics.values = [||] } in
        windows zero [] (first :: rest)
  in
  (* steady state = mean share over the last quarter of windows, robust
     to a single fully-traced outlier window mid-run *)
  let peak_share =
    let n = List.length shares in
    if n = 0 then 0.0
    else begin
      let tail = max 1 (n / 4) in
      let last = List.filteri (fun i _ -> i >= n - tail) shares in
      List.fold_left (fun acc (_, s) -> acc +. s) 0.0 last
      /. float_of_int (List.length last)
    end
  in
  let to_peak =
    match
      List.find_opt (fun (_, s) -> s >= 0.9 *. peak_share) shares
    with
    | Some (at, _) -> at
    | None -> (
        match snaps with [] -> 0 | s :: _ -> s.Tracegen.Metrics.at)
  in
  let deficit =
    int_of_float
      (List.fold_left
         (fun acc (_, s) ->
           acc +. (max 0.0 (peak_share -. s) *. float_of_int window))
         0.0 shares)
  in
  ( run.Engine.engine,
    { to_peak; deficit; built = run.Engine.run_stats.Stats.traces_constructed }
  )

let workloads () =
  (* two dissimilar learning curves: a slow-ramping DSP pipeline and a
     polymorphic ray tracer *)
  List.filter_map Workloads.Registry.find [ "mpegaudio"; "raytrace" ]

let cold_vs_warm ?(scale = 1.0) w =
  let layout = Experiment.layout_for w ~size:(Experiment.size_for ~scale w) in
  let engine, cold = measure layout in
  let _, warm = measure ~snapshot:(Engine.snapshot engine) layout in
  { cold; warm }

let policy_runs = [ Tracegen.Config.Cache.Lru; Tracegen.Config.Cache.Footprint_aware ]

let eviction_ablation ?(scale = 1.0) () =
  let max_traces = 12 in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "Eviction ablation: LRU vs footprint-aware (max %d traces)\n"
       max_traces);
  Buffer.add_string buf
    (Printf.sprintf "%-10s %-9s %8s %8s %11s %10s %11s\n" "workload" "policy"
       "evicted" "built" "trace-disp%" "coverage" "cache-KiB");
  (* compress's hot loop is a few big traces (footprint-aware hurts);
     raytrace's is many small polymorphic ones (it helps) — both
     directions of the trade-off belong in the table *)
  let ablation_workloads =
    List.filter_map Workloads.Registry.find
      [ "compress"; "mpegaudio"; "raytrace" ]
  in
  List.iter
    (fun w ->
      let size = Experiment.size_for ~scale w in
      let layout = Experiment.layout_for w ~size in
      List.iter
        (fun policy ->
          let config =
            Tracegen.Config.make ~max_cache_traces:max_traces
              ~eviction_policy:policy ()
          in
          let r = Engine.run ~config layout in
          let s = r.Engine.run_stats in
          let share =
            let total = s.Stats.block_dispatches + s.Stats.traces_entered in
            if total = 0 then 0.0
            else float_of_int s.Stats.traces_entered /. float_of_int total
          in
          Buffer.add_string buf
            (Printf.sprintf "%-10s %-9s %8d %8d %10.1f%% %9.4f %11.1f\n"
               w.Workloads.Workload.name
               (Tracegen.Config.Cache.eviction_policy_to_string policy)
               s.Stats.traces_evicted s.Stats.traces_constructed
               (100.0 *. share)
               (Stats.coverage_completed s)
               (float_of_int
                  (Tracegen.Trace_cache.footprint_bytes
                     (Engine.cache r.Engine.engine))
               /. 1024.0)))
        policy_runs)
    ablation_workloads;
  Buffer.contents buf
