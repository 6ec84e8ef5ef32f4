(* The benchmark harness: the paper's tables and deterministic counters.

   The full run prints every table and figure of the paper's evaluation
   (Tables I-VII plus the Figure 1/2 dispatch-model comparison and the
   section-5.3 baseline comparison) and the ablations beyond it, then
   the counter rows.  --smoke prints the counter rows only.

   A counter row is one section label, one engine configuration run
   once, and the metrics read back from [Stats], [Engine] or [Session]
   — counts and ratios of counts, never wall-clock time, so two runs
   of the same build print the same numbers.  Wall-clock cost is
   perfbench's job (perfbench/README.md).  Section labels such as
   flightrec_ledger keep the names of the timed sections whose counters
   they carry, so older baselines still join on (section, metric).

   --json also writes the counter rows as BENCH_smoke.json (with
   --smoke) or BENCH_full.json, the machine-readable baseline that
   [repro_cli bench-diff] compares.  BENCH_SCALE, a finite number > 0,
   scales the tables' workload sizes (default 1.0 = paper scale, a few
   minutes) and the warm-start rows' (capped at 0.5); any other value
   exits 2. *)

module Stats = Tracegen.Stats
module Engine = Tracegen.Engine
module Perf = Harness.Perf

(* a scale that is not a finite positive number would clamp every
   workload to size 1 and write rows that look real *)
let scale =
  match Sys.getenv_opt "BENCH_SCALE" with
  | None -> 1.0
  | Some s -> (
      match float_of_string_opt s with
      | Some x when Float.is_finite x && x > 0.0 -> x
      | _ ->
          Printf.eprintf "BENCH_SCALE=%s: expected a finite number > 0\n" s;
          exit 2)

let smoke = Array.mem "--smoke" Sys.argv
let json_mode = Array.mem "--json" Sys.argv

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let tables () =
  section "Paper tables";
  Printf.printf "(workload scale %.2f; see EXPERIMENTS.md for analysis)\n\n"
    scale;
  let show table =
    print_string table;
    print_newline ()
  in
  show (Harness.Tables.figure_dispatch ~scale ());
  show (Harness.Tables.table1 ~scale ());
  show (Harness.Tables.table2 ~scale ());
  show (Harness.Tables.coverage_totals ~scale ());
  show (Harness.Tables.table3 ~scale ());
  show (Harness.Tables.table4 ~scale ());
  show (Harness.Tables.table5 ~scale ());
  let t6, rows6 = Harness.Overhead.table6 ~scale () in
  show t6;
  show (Harness.Overhead.table7 ~scale ~rows:rows6 ());
  show (Harness.Tables.baselines ~scale ());
  show (Harness.Ablation.decay_ablation ());
  show (Harness.Ablation.optimizer_report ~scale:(min scale 0.3) ());
  show (Harness.Footprint.report ~scale:(min scale 0.3) ());
  show (Harness.Warmstart.eviction_ablation ~scale:(min scale 0.5) ())

(* ------------------------------------------------------------------ *)
(* Counter rows                                                         *)
(* ------------------------------------------------------------------ *)

let m name value unit_ = { Perf.name; value; unit_ }
let count name n = m name (float_of_int n) "count"

(* a small real layout for the single-workload rows *)
let small_layout =
  lazy
    (let w = Workloads.Compress.workload in
     Cfg.Layout.build (w.Workloads.Workload.build ~size:500))

let run_small ?events config =
  Engine.run ~config ?events (Lazy.force small_layout)

(* The event stream with one counting subscriber and periodic metric
   snapshots: how much a subscriber sees per run. *)
let observability () =
  let seen = ref 0 in
  let events = Tracegen.Events.create () in
  let _sub = Tracegen.Events.subscribe events (fun _ -> incr seen) in
  ignore (run_small ~events (Tracegen.Config.make ~snapshot_period:10_000 ()));
  [ count "events_per_run" !seen ]

(* The default black box and decision ledger on an events-enabled run
   (the reconciliation oracle's tally subscribed, as the chaos gate and
   the events subcommand do), plus the trace-length distribution. *)
let flightrec_ledger () =
  let events = Tracegen.Events.create () in
  let tally = Harness.Oracle.attach events in
  let e = (run_small ~events (Tracegen.Config.make ())).Engine.engine in
  let trace_len =
    List.find
      (fun h -> Tracegen.Metrics.hist_name h = "executed_trace_len")
      (Harness.Oracle.histograms tally)
  in
  let p q =
    m
      (Printf.sprintf "trace_len_p%.0f" q)
      (float_of_int (Tracegen.Metrics.percentile trace_len q))
      "blocks"
  in
  [
    count "flightrec_recorded"
      (Option.fold ~none:0 ~some:Tracegen.Flightrec.recorded
         (Engine.flightrec e));
    count "ledger_records"
      (Option.fold ~none:0 ~some:Tracegen.Ledger.length (Engine.ledger e));
    p 50.0;
    p 90.0;
    p 99.0;
  ]

(* On-stack replacement under a guard-flip schedule that forces
   mid-trace deoptimization. *)
let osr () =
  let config =
    Harness.Chaos.config ~spec:"guard-flip@0.05,budget=200" ~osr:true ~seed:42
      ()
  in
  let s = (run_small config).Engine.run_stats in
  [
    count "deopts_per_run" s.Stats.deopts;
    count "promotions_per_run" s.Stats.osr_promotions;
  ]

(* Run workload [name] at its default size with [feature] off and on
   and return the "on" statistics.  The compiled tier changes what a
   position costs, never the dispatch stream, so differing dispatch
   counts are a bug and fail the bench. *)
let off_on feature name config =
  let w = Option.get (Workloads.Registry.find name) in
  let layout = Cfg.Layout.build (Workloads.Workload.build_default w) in
  let stats on = (Engine.run ~config:(config on) layout).Engine.run_stats in
  let off = stats false and on = stats true in
  if Stats.total_dispatches off <> Stats.total_dispatches on then begin
    Printf.eprintf "bench: %s.%s: DISPATCH MISMATCH (%d off vs %d on)\n"
      feature name
      (Stats.total_dispatches off)
      (Stats.total_dispatches on);
    exit 1
  end;
  on

(* The compiled tier: micro-ops executed per position against the
   source instructions those positions replaced — folding, dead-store
   elision and superinstruction fusion are exactly the gap. *)
let microir name () =
  let s = off_on "microir" name (fun tier -> Tracegen.Config.make ~tier ()) in
  let per n = float_of_int n /. float_of_int (max 1 s.Stats.mi_positions) in
  let ops_pp = per s.Stats.mi_ops in
  [
    m "micro_ops_per_position" ops_pp "ops/position";
    m "fold_pct"
      (100.0 *. (1.0 -. (ops_pp /. per s.Stats.mi_src_instrs)))
      "pct";
    count "traces_compiled" s.Stats.traces_compiled;
    count "fused_ops" s.Stats.mi_fused;
  ]

(* Four members of the same workload over one shared trace cache (a
   session): they should reconstruct far fewer traces than four solo
   engines would and enter traces built by their siblings. *)
let shared_cache () =
  let layout = Lazy.force small_layout in
  let session = Tracegen.Session.create () in
  for u = 1 to 4 do
    ignore
      (Tracegen.Session.add ~name:(Printf.sprintf "compress#%d" u) session
         layout)
  done;
  Tracegen.Session.run session;
  let shared =
    List.fold_left
      (fun n mb -> n + (Tracegen.Session.stats mb).Stats.traces_constructed)
      0
      (Tracegen.Session.members session)
  in
  [
    count "shared_traces_constructed" shared;
    count "cross_installs_saved" (Tracegen.Session.cross_installs session);
  ]

(* Time to peak throughput, cold vs warm-started from the cold run's
   snapshot ({!Harness.Warmstart.cold_vs_warm}). *)
let warm_start w () =
  let r = Harness.Warmstart.cold_vs_warm ~scale:(min scale 0.5) w in
  let phase label (p : Harness.Warmstart.phase) =
    [
      m (label ^ "_to_peak") (float_of_int p.to_peak) "dispatches";
      m (label ^ "_deficit") (float_of_int p.deficit) "dispatches";
      count (label ^ "_built") p.built;
    ]
  in
  phase "cold" r.cold @ phase "warm" r.warm

let rows =
  let per names label row =
    List.map (fun n -> (label ^ "." ^ n, row n)) names
  in
  let ablated = [ "compress"; "scimark" ] in
  [
    ("observability", observability);
    ("flightrec_ledger", flightrec_ledger);
    ("osr", osr);
  ]
  @ per ablated "microir" microir
  @ [ ("shared_cache", shared_cache) ]
  @ List.map
      (fun w -> ("warm_start." ^ w.Workloads.Workload.name, warm_start w))
      (Harness.Warmstart.workloads ())

let show_value v =
  if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4g" v

let counters () =
  section "Counter rows";
  Printf.printf "%-24s %-28s %12s  %s\n" "section" "metric" "value" "unit";
  List.map
    (fun (label, row) ->
      let metrics = row () in
      List.iter
        (fun (x : Perf.metric) ->
          Printf.printf "%-24s %-28s %12s  %s\n" label x.name
            (show_value x.value) x.unit_)
        metrics;
      { Perf.label; metrics })
    rows

let write_json ~bench sections =
  let path = Printf.sprintf "BENCH_%s.json" bench in
  let oc = open_out path in
  output_string oc
    (Perf.to_string { Perf.bench; env = Perf.env_stamp ~scale; sections });
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nperf baseline written to %s (%d sections)\n" path
    (List.length sections)

let () =
  if not smoke then tables ();
  let sections = counters () in
  if json_mode then
    write_json ~bench:(if smoke then "smoke" else "full") sections;
  print_newline ();
  print_endline (if smoke then "smoke ok." else "done.")
