(* A look inside the machinery: disassemble a hot method, show the hottest
   branch-correlation nodes with their states, and the traces built over
   them.

     dune exec examples/inspect_traces.exe -- [workload] [method] *)

module St = Tracegen.Stats

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "compress" in
  let meth = if Array.length Sys.argv > 2 then Sys.argv.(2) else "lzw_encode" in
  let w =
    match Workloads.Registry.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 2
  in
  let program = w.Workloads.Workload.build ~size:(w.Workloads.Workload.default_size / 2) in
  let layout = Cfg.Layout.build program in

  (match Bytecode.Program.find_method program meth with
  | Some m ->
      Printf.printf "=== disassembly of %s ===\n" meth;
      print_string (Bytecode.Disasm.method_to_string program m);
      Printf.printf "\n=== its control-flow graph ===\n";
      Format.printf "%a@."
        Cfg.Method_cfg.pp
        (Cfg.Layout.cfg_of_method layout ~method_id:m.Bytecode.Mthd.id)
  | None -> Printf.printf "(no method named %s; skipping disassembly)\n" meth);

  let events = Tracegen.Events.create () in
  let tally = Harness.Oracle.attach events in
  let r = Tracegen.Engine.run ~events layout in
  let engine = r.Tracegen.Engine.engine in

  Printf.printf "\n=== hottest branch correlation nodes ===\n";
  let bcg = Tracegen.Profiler.bcg (Tracegen.Engine.profiler engine) in
  let nodes = ref [] in
  Tracegen.Bcg.iter_nodes bcg (fun n -> nodes := n :: !nodes);
  !nodes
  |> List.sort (fun a b ->
         compare b.Tracegen.Bcg.exec_total a.Tracegen.Bcg.exec_total)
  |> List.iteri (fun k n ->
         if k < 10 then Format.printf "%a@." (Tracegen.Bcg.pp_node layout) n);

  Printf.printf "\n=== traces by instructions delivered ===\n";
  let entered tr = Harness.Oracle.entered tally tr.Tracegen.Trace.id in
  let completed tr = Harness.Oracle.completed tally tr.Tracegen.Trace.id in
  let delivered tr = completed tr * tr.Tracegen.Trace.total_instrs in
  let traces = ref [] in
  Tracegen.Trace_cache.iter_all (Tracegen.Engine.cache engine) (fun tr ->
      traces := tr :: !traces);
  !traces
  |> List.sort (fun a b -> compare (delivered b) (delivered a))
  |> List.iteri (fun k tr ->
         if k < 10 then
           Printf.printf "%s entered=%d completed=%d\n"
             (Tracegen.Trace.describe layout tr)
             (entered tr) (completed tr));

  let s = r.Tracegen.Engine.run_stats in
  Printf.printf "\n%d signals, %d traces, %.1f%% coverage, %.2f%% completion\n"
    s.St.signals s.St.traces_constructed
    (100.0 *. St.coverage_completed s)
    (100.0 *. St.completion_rate s)
