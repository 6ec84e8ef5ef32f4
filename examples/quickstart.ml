(* Quickstart: write a small program in the structured front end, run it
   under the trace-cache engine, and look at what the profiler found.

     dune exec examples/quickstart.exe *)

open Workloads.Dsl
module S = Bytecode.Structured

let () =
  (* 1. Write a program: sum the digits of the first 50k integers. *)
  let p = S.create () in
  S.def_method p ~name:"digit_sum" ~args:[ ("n", S.I) ] ~ret:S.I
    ~body:
      [
        decl_i "s" (i 0);
        decl_i "x" (v "n");
        while_ (v "x" >! i 0)
          [ set "s" (v "s" +! (v "x" %! i 10)); set "x" (v "x" /! i 10) ];
        ret (v "s");
      ]
    ();
  S.def_method p ~name:"main" ~args:[] ~ret:S.I
    ~body:
      [
        decl_i "total" (i 0);
        for_ "k" (i 0) (i 50_000)
          [ set "total" (v "total" +! call "digit_sum" [ v "k" ]) ];
        ret (v "total");
      ]
    ();

  (* 2. Link, verify, and lay out basic blocks. *)
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  let layout = Cfg.Layout.build program in
  Printf.printf "program: %d methods, %d basic blocks\n"
    (Array.length program.Bytecode.Program.methods)
    layout.Cfg.Layout.n_blocks;

  (* 3. Run under the profiling + trace-cache engine. *)
  let events = Tracegen.Events.create () in
  let tally = Harness.Oracle.attach events in
  let result = Tracegen.Engine.run ~events layout in
  (match Vm.Interp.result_value result.Tracegen.Engine.vm_result with
  | Some v -> Printf.printf "result: %s\n\n" (Vm.Value.to_string v)
  | None -> print_endline "void result");

  (* 4. The five dependent values of the paper. *)
  let s = result.Tracegen.Engine.run_stats in
  let module St = Tracegen.Stats in
  Printf.printf "average trace length : %.1f blocks\n" (St.avg_trace_length s);
  Printf.printf "stream coverage      : %.1f%% (completed traces)\n"
    (100.0 *. St.coverage_completed s);
  Printf.printf "completion rate      : %.2f%%\n"
    (100.0 *. St.completion_rate s);
  Printf.printf "dispatches/signal    : %.1fk\n"
    (St.dispatches_per_signal s /. 1000.0);
  Printf.printf "trace event interval : %.1fk dispatches\n\n"
    (St.trace_event_interval s /. 1000.0);

  (* 5. The traces themselves.  Their entry and completion counts are
        folds of the run's event stream, kept by the tally attached in
        step 3. *)
  print_endline "hottest traces:";
  let entered tr = Harness.Oracle.entered tally tr.Tracegen.Trace.id in
  let completed tr = Harness.Oracle.completed tally tr.Tracegen.Trace.id in
  let traces = ref [] in
  Tracegen.Trace_cache.iter_all (Tracegen.Engine.cache result.Tracegen.Engine.engine)
    (fun tr -> traces := tr :: !traces);
  !traces
  |> List.sort (fun a b -> compare (completed b) (completed a))
  |> List.iteri (fun k tr ->
         if k < 5 then
           Printf.printf "  %s entered=%d completed=%d\n"
             (Tracegen.Trace.describe layout tr)
             (entered tr) (completed tr))
