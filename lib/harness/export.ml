module Stats = Tracegen.Stats

open Codec

(* Machine-readable results for experiment runs and sweeps; the JSON
   machinery and the per-record writers live in [Codec]. *)

(* One run's statistics: every counter of [Stats.counters], then the
   paper's derived values. *)
let stats_json ?(extra = []) (s : Stats.t) : json =
  J_obj
    (extra
    @ List.map (fun (name, get) -> (name, J_int (get s))) Stats.counters
    @ List.map
        (fun (name, f) -> (name, J_float (f s)))
        [
          ("avg_trace_length", Stats.avg_trace_length);
          ("dynamic_trace_length", Stats.dynamic_trace_length);
          ("coverage_completed", Stats.coverage_completed);
          ("coverage_total", Stats.coverage_total);
          ("completion_rate", Stats.completion_rate);
          ("dispatches_per_signal", Stats.dispatches_per_signal);
          ("trace_event_interval", Stats.trace_event_interval);
          ("linking_rate", Stats.linking_rate);
          ("dispatch_reduction", Stats.dispatch_reduction);
          ("quarantine_rate", Stats.quarantine_rate);
          ("eviction_rate", Stats.eviction_rate);
        ]
    @ [ ("wall_seconds", J_float s.Stats.wall_seconds) ])

let run_json (r : Experiment.run) : json =
  let k = r.Experiment.key in
  stats_json
    ~extra:
      [
        ("schema_version", J_int schema_version);
        ("workload", J_string k.Experiment.workload);
        ("size", J_int k.Experiment.size);
        ("delay", J_int k.Experiment.delay);
        ("threshold", J_float k.Experiment.threshold);
        ("checksum", J_int r.Experiment.result_value);
      ]
    r.Experiment.stats

(* The full threshold x delay grid as JSON lines (one run per line). *)
let sweep_jsonl ?(scale = 1.0) () : string =
  let buf = Buffer.create 4096 in
  List.iter
    (fun w ->
      let size = Experiment.size_for ~scale w in
      List.iter
        (fun threshold ->
          let run =
            Experiment.execute
              {
                Experiment.workload = w.Workloads.Workload.name;
                size;
                delay = 64;
                threshold;
                build_traces = true;
              }
          in
          Buffer.add_string buf (to_string (run_json run));
          Buffer.add_char buf '\n')
        Experiment.thresholds;
      List.iter
        (fun delay ->
          let run =
            Experiment.execute
              {
                Experiment.workload = w.Workloads.Workload.name;
                size;
                delay;
                threshold = 0.97;
                build_traces = true;
              }
          in
          Buffer.add_string buf (to_string (run_json run));
          Buffer.add_char buf '\n')
        Experiment.delays)
    (Experiment.bench_workloads ());
  Buffer.contents buf

(* CSV of the threshold sweep: one row per (workload, threshold). *)
let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let sweep_csv ?(scale = 1.0) () : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "workload,threshold,delay,instructions,avg_trace_length,\
     coverage_completed,coverage_total,completion_rate,\
     dispatches_per_signal,trace_event_interval,signals,traces_constructed\n";
  List.iter
    (fun w ->
      let size = Experiment.size_for ~scale w in
      List.iter
        (fun threshold ->
          let r =
            Experiment.execute
              {
                Experiment.workload = w.Workloads.Workload.name;
                size;
                delay = 64;
                threshold;
                build_traces = true;
              }
          in
          let s = r.Experiment.stats in
          Buffer.add_string buf
            (Printf.sprintf "%s,%.2f,%d,%d,%.3f,%.4f,%.4f,%.5f,%.1f,%.1f,%d,%d\n"
               (csv_escape w.Workloads.Workload.name)
               threshold 64 s.Stats.instructions (Stats.avg_trace_length s)
               (Stats.coverage_completed s) (Stats.coverage_total s)
               (Stats.completion_rate s)
               (Stats.dispatches_per_signal s)
               (Stats.trace_event_interval s)
               s.Stats.signals s.Stats.traces_constructed))
        Experiment.thresholds)
    (Experiment.bench_workloads ());
  Buffer.contents buf
