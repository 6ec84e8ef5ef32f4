(* Three trace-selection strategies on one workload: the paper's branch
   correlation graph, Dynamo's next-executing-tail, and rePLay's promoted
   frames.

     dune exec examples/baseline_comparison.exe -- [workload] *)

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "javac" in
  let w =
    match Workloads.Registry.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 2
  in
  let layout = Cfg.Layout.build (Workloads.Workload.build_default w) in
  Printf.printf "workload: %s\n\n" name;
  Printf.printf "%-22s %13s %11s %13s %8s\n" "system" "dyn len(blk)"
    "coverage%" "completion%" "built";
  (* all three report the engine's Stats record, read the same way;
     length is the completion-weighted one, which all three record *)
  let row system s =
    Printf.printf "%-22s %13.1f %11.1f %13.2f %8d\n" system
      (Tracegen.Stats.dynamic_trace_length s)
      (100.0 *. Tracegen.Stats.coverage_completed s)
      (100.0 *. Tracegen.Stats.completion_rate s)
      s.Tracegen.Stats.traces_constructed
  in
  (* this paper: branch correlation graph *)
  row "bcg (this paper)" (Tracegen.Engine.run layout).Tracegen.Engine.run_stats;
  (* Dynamo: next executing tail *)
  row "net (Dynamo)" (Baselines.Net.run layout);
  (* rePLay: promotion + frames *)
  row "frames (rePLay)" (Baselines.Replay_frames.run layout);

  print_newline ();
  print_endline
    "The BCG bounds expected completion probability during construction, so";
  print_endline
    "its completion rate stays near 100% where NET records whatever follows";
  print_endline "a hot point and pays for it in early exits."
