(* Cache stability under a phase change (paper sections 3.6 and 4.1.1).

   A program runs the same loop skeleton through three behavioural phases;
   the decayed correlations adapt, the profiler signals the changes, and
   the trace cache rebuilds only what the branch correlation graph says is
   affected.

     dune exec examples/phase_change.exe *)

open Workloads.Dsl
module S = Bytecode.Structured
module St = Tracegen.Stats

let program () =
  let p = S.create () in
  S.def_method p ~name:"work" ~args:[ ("mode", S.I); ("k", S.I) ] ~ret:S.I
    ~body:
      [
        (* three behaviours behind the same call site *)
        switch (v "mode")
          [
            (0, [ ret (v "k" *! i 3 &! i 0xFFFF) ]);
            (1, [ ret (v "k" +! (v "k" <<! i 2) &! i 0xFFFF) ]);
          ]
          [ ret (v "k" ^! i 0x5555) ];
      ]
    ();
  S.def_method p ~name:"main" ~args:[] ~ret:S.I
    ~body:
      [
        decl_i "acc" (i 0);
        for_ "phase" (i 0) (i 3)
          [
            for_ "k" (i 0) (i 30_000)
              [
                set "acc"
                  ((v "acc" +! call "work" [ v "phase"; v "k" ]) &! i 0xFFFFF);
              ];
          ];
        ret (v "acc");
      ]
    ();
  S.link p ~entry:"main"

let () =
  let layout = Cfg.Layout.build (program ()) in
  let events = Tracegen.Events.create () in
  let tally = Harness.Oracle.attach events in
  let r = Tracegen.Engine.run ~events layout in
  let s = r.Tracegen.Engine.run_stats in
  Printf.printf "three phases of 30k iterations each\n\n";
  Printf.printf "signals raised      : %d\n" s.St.signals;
  Printf.printf "traces constructed  : %d\n" s.St.traces_constructed;
  Printf.printf "traces replaced     : %d (cache entries rebound)\n"
    s.St.traces_replaced;
  Printf.printf "traces live at end  : %d\n" s.St.traces_live;
  Printf.printf "completion rate     : %.2f%%\n"
    (100.0 *. St.completion_rate s);
  Printf.printf "total coverage      : %.1f%%\n\n"
    (100.0 *. St.coverage_total s);
  print_endline "hottest traces at exit (phase 2's path dominates):";
  let entered tr = Harness.Oracle.entered tally tr.Tracegen.Trace.id in
  let completed tr = Harness.Oracle.completed tally tr.Tracegen.Trace.id in
  let traces = ref [] in
  Tracegen.Trace_cache.iter_all (Tracegen.Engine.cache r.Tracegen.Engine.engine)
    (fun tr -> traces := tr :: !traces);
  !traces
  |> List.sort (fun a b -> compare (entered b) (entered a))
  |> List.iteri (fun k tr ->
         if k < 6 then
           Printf.printf "  %s entered=%d completed=%d\n"
             (Tracegen.Trace.describe layout tr)
             (entered tr) (completed tr));
  print_newline ();
  print_endline
    "Each phase flip demotes the switch's old target, raises a handful of";
  print_endline
    "signals, and rebuilds a handful of traces — the cache is not flushed";
  print_endline "(Dynamo's fallback), it is repaired locally."
