module Stats = Tracegen.Stats

(* Regeneration of the paper's Tables I-VII and the Figure 1/2 dispatch
   comparison.  Each function returns the rendered table as a string;
   [Experiment] caches runs so one sweep feeds Tables I-IV. *)

let workload_names () =
  List.map (fun w -> w.Workloads.Workload.name) (Experiment.bench_workloads ())

(* generic renderer: left header column + one column per workload + average *)
let render ~title ~row_label ~rows =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  let headers = row_label :: (workload_names () @ [ "average" ]) in
  let cells =
    List.map
      (fun (label, values) ->
        let avg =
          if values = [] then 0.0
          else List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values)
        in
        label :: List.map (fun x -> Printf.sprintf "%.1f" x) (values @ [ avg ]))
      rows
  in
  let table = headers :: cells in
  let n_cols = List.length headers in
  let widths = Array.make n_cols 0 in
  List.iter
    (List.iteri (fun c s -> widths.(c) <- max widths.(c) (String.length s)))
    table;
  List.iter
    (fun row ->
      List.iteri
        (fun c s ->
          Buffer.add_string buf (Printf.sprintf "%*s" (widths.(c) + 2) s))
        row;
      Buffer.add_char buf '\n')
    table;
  Buffer.contents buf

let pct x = 100.0 *. x

(* threshold sweep at delay 64 over the bench sizes *)
let sweep_runs ~scale =
  List.concat_map
    (fun w ->
      List.map
        (fun threshold ->
          let key =
            {
              Experiment.workload = w.Workloads.Workload.name;
              size = Experiment.size_for ~scale w;
              delay = 64;
              threshold;
              build_traces = true;
            }
          in
          (w.Workloads.Workload.name, threshold, Experiment.execute key))
        Experiment.thresholds)
    (Experiment.bench_workloads ())

let threshold_rows ~scale ~(value : Stats.t -> float) =
  let runs = sweep_runs ~scale in
  List.map
    (fun threshold ->
      let label = Printf.sprintf "%.0f%%" (100.0 *. threshold) in
      let values =
        List.filter_map
          (fun (_, th, run) ->
            if th = threshold then Some (value run.Experiment.stats) else None)
          runs
      in
      (label, values))
    Experiment.thresholds

let table1 ?(scale = 1.0) () =
  render ~title:"Table I: Average executed trace length (blocks) vs. threshold"
    ~row_label:"threshold"
    ~rows:(threshold_rows ~scale ~value:Stats.avg_trace_length)

let table2 ?(scale = 1.0) () =
  render
    ~title:
      "Table II: Instruction stream coverage (%, completed traces) vs. \
       threshold"
    ~row_label:"threshold"
    ~rows:
      (threshold_rows ~scale ~value:(fun s -> pct (Stats.coverage_completed s)))

let table3 ?(scale = 1.0) () =
  render ~title:"Table III: Trace completion rate (%) vs. threshold"
    ~row_label:"threshold"
    ~rows:(threshold_rows ~scale ~value:(fun s -> pct (Stats.completion_rate s)))

let table4 ?(scale = 1.0) () =
  render
    ~title:
      "Table IV: Thousands of dispatches per state-change signal vs. \
       threshold"
    ~row_label:"threshold"
    ~rows:
      (threshold_rows ~scale ~value:(fun s ->
           Stats.dispatches_per_signal s /. 1000.0))

let table5 ?(scale = 1.0) () =
  let rows =
    List.map
      (fun delay ->
        let values =
          List.map
            (fun w ->
              let key =
                {
                  Experiment.workload = w.Workloads.Workload.name;
                  size = Experiment.size_for ~scale w;
                  delay;
                  threshold = 0.97;
                  build_traces = true;
                }
              in
              let run = Experiment.execute key in
              Stats.trace_event_interval run.Experiment.stats /. 1000.0)
            (Experiment.bench_workloads ())
        in
        (string_of_int delay, values))
      Experiment.delays
  in
  render
    ~title:
      "Table V: Thousands of dispatches per trace event (traces built + \
       signals) at 97% threshold vs. start state delay"
    ~row_label:"delay" ~rows

(* coverage including partially executed traces (the 90.7% number) *)
let coverage_totals ?(scale = 1.0) () =
  render
    ~title:
      "Coverage including partially executed traces (%, paper section 5.3)"
    ~row_label:"threshold"
    ~rows:(threshold_rows ~scale ~value:(fun s -> pct (Stats.coverage_total s)))

(* Figure 1 / Figure 2 companion: dispatch counts per model *)
let figure_dispatch ?(scale = 1.0) () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Dispatch models (Figures 1 and 2): dispatches needed to execute each \
     program\n";
  Buffer.add_string buf
    (Printf.sprintf "%-11s %14s %14s %14s %10s\n" "benchmark"
       "per-instruction" "per-block" "per-trace" "reduction");
  List.iter
    (fun w ->
      let key =
        Experiment.default_key ~workload:w.Workloads.Workload.name
          ~size:(Experiment.size_for ~scale w)
      in
      let run = Experiment.execute key in
      let s = run.Experiment.stats in
      let trace_model = Stats.total_dispatches s in
      Buffer.add_string buf
        (Printf.sprintf "%-11s %14d %14d %14d %9.1fx\n"
           w.Workloads.Workload.name s.Stats.instructions
           (s.Stats.block_dispatches + s.Stats.completed_blocks
          + s.Stats.partial_blocks)
           trace_model
           (Stats.dispatch_reduction s)))
    (Experiment.bench_workloads ());
  Buffer.contents buf

(* Baseline comparison (paper section 5.3 compares against rePLay's
   coverage band).  All three rows read the same [Stats] functions.
   Length is the completion-weighted one, the only length all three
   selectors record (NET and rePLay keep no per-trace completion
   sets). *)
let baselines ?(scale = 1.0) () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Trace selection comparison: BCG (this paper) vs. NET (Dynamo) vs. \
     frame construction (rePLay)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-11s %-8s %12s %12s %12s %10s\n" "benchmark" "system"
       "dyn len(blk)" "coverage%" "completion%" "built");
  let row bench system s =
    Buffer.add_string buf
      (Printf.sprintf "%-11s %-8s %12.1f %12.1f %12.2f %10d\n" bench system
         (Stats.dynamic_trace_length s)
         (pct (Stats.coverage_completed s))
         (pct (Stats.completion_rate s))
         s.Stats.traces_constructed)
  in
  List.iter
    (fun w ->
      let name = w.Workloads.Workload.name in
      let size = Experiment.size_for ~scale w in
      let key = Experiment.default_key ~workload:name ~size in
      row name "bcg" (Experiment.execute key).Experiment.stats;
      let layout = Experiment.layout_for w ~size in
      row "" "net" (Baselines.Net.run layout);
      row "" "replay" (Baselines.Replay_frames.run layout))
    (Experiment.bench_workloads ());
  Buffer.contents buf
