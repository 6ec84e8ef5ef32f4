module Config = Tracegen.Config
module Stats = Tracegen.Stats

(* Ablations of the design choices DESIGN.md calls out:

   - decay: the paper argues periodic exponential decay is what lets the
     cache adapt to phase changes without flushing (§3.6, §4.1.1).

     Measured finding (see EXPERIMENTS.md): completion turns out to be
     surprisingly robust even with decay disabled, because transition-keyed
     dispatch tends to place trace *seams* exactly at the unstable branch —
     the branch's outcome block is dispatched normally and each phase's
     chain picks up from there, so no stale trace is entered.  What decay
     still governs is the signal dynamics (stale Strong states and
     never-pruned edges accumulate without it) and the BCG's memory; and an
     intermediate decay period can transiently *hurt*, by rebuilding traces
     mid-flip with seams inside the unstable region.

   - start-state delay: Table V, already covered by the main harness.

   - trace optimization headroom: how much straight-line optimization the
     completed traces admit (the paper's §6 next step). *)

(* The phase-change subject program.  The phase flip changes the *bias*
   of one branch between two targets that are both exercised in every
   phase (63/64 vs 1/64 — above the 0.97 threshold, so traces are built
   across it), with shared code after the merge.  No new BCG nodes appear
   at a flip, so start-state promotion cannot drive the adaptation: only
   the correlation dynamics can. *)
let phase_program ~iters_per_phase =
  let open Workloads.Dsl in
  let module S = Bytecode.Structured in
  let p = S.create () in
  S.def_method p ~name:"main" ~args:[] ~ret:S.I
    ~body:
      [
        decl_i "acc" (i 0);
        for_ "phase" (i 0) (i 4)
          [
            decl_i "hot" (i 1);
            when_ ((v "phase" &! i 1) =! i 1) [ set "hot" (i 63) ];
            for_ "k" (i 0) (i iters_per_phase)
              [
                decl_i "x" (i 0);
                if_
                  ((v "k" &! i 63) <! v "hot")
                  [ set "x" (v "k" *! i 3 &! i 0xFFFF) ]
                  [ set "x" (v "k" ^! i 0x5555) ];
                (* shared tail after the merge *)
                set "acc" ((v "acc" +! v "x") &! i 0xFFFFF);
                set "acc" ((v "acc" *! i 5 +! i 1) &! i 0xFFFFF);
              ];
          ];
        ret (v "acc");
      ]
    ();
  S.link p ~entry:"main"

type decay_row = {
  label : string;
  signals : int;
  traces_replaced : int;
  completion : float;
  coverage_total : float;
  partial_exits : int;
}

let decay_run ~decay_period ~iters_per_phase : decay_row =
  let layout = Cfg.Layout.build (phase_program ~iters_per_phase) in
  let config = Config.make ~decay_period () in
  let events = Tracegen.Events.create () in
  let tally = Oracle.attach events in
  let r = Tracegen.Engine.run ~config ~events layout in
  let s = r.Tracegen.Engine.run_stats in
  {
    label =
      (if decay_period > 1_000_000 then "no decay"
       else Printf.sprintf "decay %d" decay_period);
    signals = s.Stats.signals;
    traces_replaced = s.Stats.traces_replaced;
    completion = Stats.completion_rate s;
    coverage_total = Stats.coverage_total s;
    partial_exits =
      List.fold_left
        (fun acc row -> acc + Oracle.side_exits row)
        0 (Oracle.traces tally);
  }

let decay_ablation ?(iters_per_phase = 40_000) () =
  let rows =
    [
      decay_run ~decay_period:256 ~iters_per_phase;
      decay_run ~decay_period:4096 ~iters_per_phase;
      decay_run ~decay_period:100_000_000 ~iters_per_phase;
    ]
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Ablation: periodic decay across four bias-flip phases of one hot branch\n";
  Buffer.add_string buf
    (Printf.sprintf "%-12s %8s %9s %12s %11s %14s\n" "config" "signals"
       "replaced" "completion%" "coverage%" "partial exits");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-12s %8d %9d %12.2f %11.1f %14d\n" r.label r.signals
           r.traces_replaced
           (100.0 *. r.completion)
           (100.0 *. r.coverage_total)
           r.partial_exits))
    rows;
  Buffer.contents buf

(* Optimization headroom: weight each trace's savings by the instructions
   it actually delivered. *)
let optimizer_report ?(scale = 1.0) () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Trace optimization headroom (completion-weighted; paper section 6)\n";
  Buffer.add_string buf
    (Printf.sprintf "%-11s %10s %10s %10s %12s %12s\n" "benchmark" "traces"
       "instrs" "removed" "headroom%" "fold/fwd/dead/tail");
  List.iter
    (fun w ->
      let name = w.Workloads.Workload.name in
      let size = Experiment.size_for ~scale w in
      let layout = Experiment.layout_for w ~size in
      let events = Tracegen.Events.create () in
      let tally = Oracle.attach events in
      let r = Tracegen.Engine.run ~events layout in
      let traces = ref 0 in
      let weighted_orig = ref 0 in
      let weighted_saved = ref 0 in
      let folded = ref 0 in
      let fwd = ref 0 in
      let dead = ref 0 in
      let tail = ref 0 in
      Tracegen.Trace_cache.iter_all (Tracegen.Engine.cache r.Tracegen.Engine.engine)
        (fun tr ->
          let c = Oracle.completed tally tr.Tracegen.Trace.id in
          if c > 0 then begin
            incr traces;
            let res = Tracegen.Trace_optimizer.optimize layout tr in
            weighted_orig :=
              !weighted_orig + (c * Array.length res.Tracegen.Trace_optimizer.original);
            weighted_saved :=
              !weighted_saved + (c * Tracegen.Trace_optimizer.saved res);
            folded := !folded + res.Tracegen.Trace_optimizer.folded;
            fwd := !fwd + res.Tracegen.Trace_optimizer.forwarded;
            dead := !dead + res.Tracegen.Trace_optimizer.dead_stores;
            tail := !tail + res.Tracegen.Trace_optimizer.trailing_dead_stores
          end);
      Buffer.add_string buf
        (Printf.sprintf "%-11s %10d %10d %10d %11.1f%% %4d/%d/%d/%d\n" name
           !traces !weighted_orig !weighted_saved
           (if !weighted_orig = 0 then 0.0
            else 100.0 *. float_of_int !weighted_saved /. float_of_int !weighted_orig)
           !folded !fwd !dead !tail))
    (Experiment.bench_workloads ());
  Buffer.contents buf
