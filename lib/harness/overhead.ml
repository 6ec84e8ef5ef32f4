module Stats = Tracegen.Stats
module Config = Tracegen.Config

(* Wall-clock profiler overhead (paper Tables VI and VII).

   Table VI methodology: time the interpreter with no observer at all, then
   with the profiler hook attached to every block dispatch (trace building
   disabled), and report the overhead per million dispatches.  The two
   configurations run in pairs, alternating which goes first, and the
   overhead is the median of the pairs' differences, so drift on the host
   between rounds does not land in the per-dispatch cost.

   Table VII methodology: under the trace-dispatch model the hook runs once
   per dispatch (block or trace); multiplying the measured per-dispatch
   cost by the trace-model dispatch count predicts the profiling overhead
   of the full system, as the paper does. *)

type row = {
  name : string;
  plain_sec : float;
  dispatches : int; (* block dispatches = hook executions in Table VI *)
  profiled_sec : float;
  per_million : float; (* overhead seconds per million dispatches *)
}

let paired ~repeats a b =
  let rounds = ref [] in
  for k = 0 to repeats - 1 do
    let round =
      if k mod 2 = 0 then
        let x = a () in
        (x, b ())
      else
        let y = b () in
        (a (), y)
    in
    rounds := round :: !rounds
  done;
  List.rev !rounds

let timed f () =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

(* of a non-empty list *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let best xs = List.fold_left Float.min infinity xs

let measure ?(scale = 1.0) ?(repeats = 3) (w : Workloads.Workload.t) : row =
  let size = Experiment.size_for ~scale w in
  let layout = Experiment.layout_for w ~size in
  (* with build_traces off the engine selects the Profile kind on the
     paper's path: the hook runs at every dispatch, no trace is built or
     entered *)
  let config = Config.make ~build_traces:false () in
  let rounds =
    paired ~repeats
      (timed (fun () -> Vm.Interp.run_plain layout))
      (timed (fun () -> ignore (Tracegen.Engine.run ~config layout)))
  in
  let plain_secs = List.map (fun ((t, _), _) -> t) rounds in
  let profiled_secs = List.map (fun (_, (t, ())) -> t) rounds in
  let dispatches =
    match rounds with
    | ((_, plain), _) :: _ -> plain.Vm.Interp.block_dispatches
    | [] -> 0
  in
  let per_million =
    if dispatches = 0 then 0.0
    else
      median (List.map2 ( -. ) profiled_secs plain_secs)
      /. (float_of_int dispatches /. 1e6)
  in
  {
    name = w.Workloads.Workload.name;
    plain_sec = best plain_secs;
    dispatches;
    profiled_sec = best profiled_secs;
    per_million;
  }

let table6 ?(scale = 1.0) ?(repeats = 3) () =
  let rows = List.map (measure ~scale ~repeats) (Experiment.bench_workloads ()) in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Table VI: Profiler overhead per basic-block dispatch\n";
  Buffer.add_string buf
    (Printf.sprintf "%-11s %12s %14s %12s %18s\n" "benchmark" "no-prof (s)"
       "dispatches (M)" "profiler (s)" "ovh per 10^6 disp");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-11s %12.3f %14.2f %12.3f %17.4fs\n" r.name
           r.plain_sec
           (float_of_int r.dispatches /. 1e6)
           r.profiled_sec r.per_million))
    rows;
  (Buffer.contents buf, rows)

let table7 ?(scale = 1.0) ?(repeats = 3) ?rows () =
  let rows6 =
    match rows with
    | Some rows -> rows
    | None -> snd (table6 ~scale ~repeats ())
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Table VII: Expected profiler overhead under trace dispatch\n";
  Buffer.add_string buf
    (Printf.sprintf "%-11s %18s %18s %14s %10s\n" "benchmark"
       "trace disp (M)" "ovh/10^6 disp (s)" "expected (s)" "% ovh");
  List.iter
    (fun r6 ->
      let key =
        {
          Experiment.workload = r6.name;
          size =
            Experiment.size_for ~scale
              (Option.get (Workloads.Registry.find r6.name));
          delay = 64;
          threshold = 0.97;
          build_traces = true;
        }
      in
      let run = Experiment.execute key in
      let s = run.Experiment.stats in
      let trace_disp = Stats.total_dispatches s in
      let expected = float_of_int trace_disp /. 1e6 *. r6.per_million in
      let pct_ovh =
        if r6.plain_sec > 0.0 then 100.0 *. expected /. r6.plain_sec else 0.0
      in
      Buffer.add_string buf
        (Printf.sprintf "%-11s %18.2f %18.4f %14.4f %9.1f%%\n" r6.name
           (float_of_int trace_disp /. 1e6)
           r6.per_million expected pct_ovh))
    rows6;
  Buffer.contents buf
