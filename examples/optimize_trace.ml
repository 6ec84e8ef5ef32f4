(* Trace optimization (the paper's §6 next step): pick the hottest traces
   of a workload, run the straight-line optimizer over them, and show the
   before/after code.

     dune exec examples/optimize_trace.exe -- [workload] *)

module Opt = Tracegen.Trace_optimizer
module Instr = Bytecode.Instr

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "compress" in
  let w =
    match Workloads.Registry.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s\n" name;
        exit 2
  in
  let layout = Cfg.Layout.build (Workloads.Workload.build_default w) in
  let events = Tracegen.Events.create () in
  let tally = Harness.Oracle.attach events in
  let r = Tracegen.Engine.run ~events layout in
  let entered tr = Harness.Oracle.entered tally tr.Tracegen.Trace.id in
  let completed tr = Harness.Oracle.completed tally tr.Tracegen.Trace.id in
  let delivered tr = completed tr * tr.Tracegen.Trace.total_instrs in
  let traces = ref [] in
  Tracegen.Trace_cache.iter_all (Tracegen.Engine.cache r.Tracegen.Engine.engine)
    (fun tr -> traces := tr :: !traces);
  let hottest =
    !traces
    |> List.filter (fun tr -> completed tr > 0)
    |> List.sort (fun a b -> compare (delivered b) (delivered a))
  in
  List.iteri
    (fun k tr ->
      if k < 3 then begin
        let res = Opt.optimize layout tr in
        Printf.printf "=== %s entered=%d completed=%d ===\n"
          (Tracegen.Trace.describe layout tr)
          (entered tr) (completed tr);
        Printf.printf "original (%d instructions):\n"
          (Array.length res.Opt.original);
        Array.iter
          (fun ins -> Printf.printf "    %s\n" (Instr.to_string ins))
          res.Opt.original;
        Printf.printf "optimized (%d instructions; %d folded, %d forwarded, \
                       %d dead stores, %d trailing dead):\n"
          (Array.length res.Opt.optimized)
          res.Opt.folded res.Opt.forwarded res.Opt.dead_stores
          res.Opt.trailing_dead_stores;
        Array.iter
          (fun ins -> Printf.printf "    %s\n" (Instr.to_string ins))
          res.Opt.optimized;
        Printf.printf "savings: %.1f%% of the trace's instructions\n\n"
          (100.0 *. Opt.savings_ratio res)
      end)
    hottest
