(* The experiment harness: run caching, parameter grids, table rendering. *)

module Experiment = Harness.Experiment
module Tables = Harness.Tables

let tc = Alcotest.test_case
let check = Alcotest.check

let tiny_key workload =
  {
    Experiment.workload;
    size = 20;
    delay = 64;
    threshold = 0.97;
    build_traces = true;
  }

let test_execute_and_cache () =
  let k = tiny_key "compress" in
  let a = Experiment.execute k in
  let b = Experiment.execute k in
  check Alcotest.bool "second execution is cached (physical equality)" true
    (a == b);
  check Alcotest.bool "checksum recorded" true (a.Experiment.result_value <> 0)

let test_distinct_keys_distinct_runs () =
  let a = Experiment.execute (tiny_key "compress") in
  let b =
    Experiment.execute { (tiny_key "compress") with Experiment.threshold = 0.95 }
  in
  check Alcotest.bool "different configs are separate runs" true (a != b);
  check Alcotest.int "same program, same checksum" a.Experiment.result_value
    b.Experiment.result_value

let test_unknown_workload_rejected () =
  try
    ignore (Experiment.execute (tiny_key "missing"));
    Alcotest.fail "expected rejection"
  with Invalid_argument _ -> ()

let test_grid_constants () =
  check Alcotest.int "five thresholds" 5 (List.length Experiment.thresholds);
  check (Alcotest.list Alcotest.int) "paper delays" [ 1; 64; 4096 ]
    Experiment.delays;
  check Alcotest.int "six workloads" 6
    (List.length (Experiment.bench_workloads ()))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_tables_render () =
  (* tiny scale so the full grid stays fast *)
  let scale = 0.02 in
  let t1 = Tables.table1 ~scale () in
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " in table") true (contains_sub t1 name))
    [ "compress"; "javac"; "raytrace"; "mpegaudio"; "soot"; "scimark" ];
  List.iter
    (fun row -> check Alcotest.bool (row ^ " row present") true (contains_sub t1 row))
    [ "100%"; "99%"; "98%"; "97%"; "95%" ];
  let t5 = Tables.table5 ~scale () in
  List.iter
    (fun row -> check Alcotest.bool (row ^ " delay row") true (contains_sub t5 row))
    [ "1"; "64"; "4096" ];
  check Alcotest.bool "figure renders" true
    (contains_sub (Tables.figure_dispatch ~scale ()) "per-trace");
  check Alcotest.bool "baselines table renders" true
    (contains_sub (Tables.baselines ~scale ()) "replay")

let test_overhead_rows () =
  let text, rows = Harness.Overhead.table6 ~scale:0.02 ~repeats:1 () in
  check Alcotest.int "one row per workload" 6 (List.length rows);
  check Alcotest.bool "table text mentions dispatches" true
    (contains_sub text "dispatches");
  List.iter
    (fun r ->
      check Alcotest.bool "positive dispatch count" true
        (r.Harness.Overhead.dispatches > 0);
      check Alcotest.bool "times non-negative" true
        (r.Harness.Overhead.plain_sec >= 0.0
        && r.Harness.Overhead.profiled_sec >= 0.0))
    rows

let test_footprint_rows () =
  let w = Option.get (Workloads.Registry.find "compress") in
  let r = Harness.Footprint.measure ~scale:0.02 w in
  check Alcotest.bool "nodes positive" true (r.Harness.Footprint.bcg_nodes > 0);
  check Alcotest.bool "bytes consistent" true
    (r.Harness.Footprint.bcg_bytes
    >= r.Harness.Footprint.bcg_nodes + r.Harness.Footprint.bcg_edges);
  check Alcotest.bool "duplication >= 1" true
    (r.Harness.Footprint.duplication >= 1.0 -. 1e-9);
  check Alcotest.bool "stored instrs >= distinct instrs" true
    (r.Harness.Footprint.trace_instrs
    >= r.Harness.Footprint.distinct_block_instrs)

let test_ablation_rows () =
  let r = Harness.Ablation.decay_run ~decay_period:256 ~iters_per_phase:2_000 in
  check Alcotest.bool "completion in [0,1]" true
    (r.Harness.Ablation.completion >= 0.0 && r.Harness.Ablation.completion <= 1.0);
  check Alcotest.bool "signals observed" true (r.Harness.Ablation.signals > 0);
  let nr =
    Harness.Ablation.decay_run ~decay_period:100_000_000 ~iters_per_phase:2_000
  in
  check Alcotest.string "label for disabled decay" "no decay"
    nr.Harness.Ablation.label

let test_phase_program_runs () =
  let program = Harness.Ablation.phase_program ~iters_per_phase:500 in
  Bytecode.Verify.verify_program program;
  let layout = Cfg.Layout.build program in
  match (Vm.Interp.run_plain layout).Vm.Interp.outcome with
  | Vm.Interp.Finished (Some (Vm.Value.Vint _)) -> ()
  | _ -> Alcotest.fail "phase program must return an int"

(* Harness.Perf: the baseline document bench --json writes and the
   direction-aware diff repro_cli bench-diff gates on. *)
module Perf = Harness.Perf

let perf_run metrics =
  {
    Perf.bench = "unit";
    env = Perf.env_stamp ~scale:0.5;
    sections = [ { Perf.label = "sec"; metrics } ];
  }

let lower name value =
  Perf.metric ~name ~value ~unit_:"count" ~better:Perf.Lower

let higher name value =
  Perf.metric ~name ~value ~unit_:"pct" ~better:Perf.Higher

let test_perf_round_trip () =
  let run = perf_run [ lower "deopts" 235.0; higher "elision_pct" 37.25 ] in
  match Perf.of_string (Perf.to_string run) with
  | Error e -> Alcotest.fail e
  | Ok back ->
      check Alcotest.string "bench" run.Perf.bench back.Perf.bench;
      check
        Alcotest.(list (pair string string))
        "env" run.Perf.env back.Perf.env;
      check Alcotest.bool "sections" true
        (back.Perf.sections = run.Perf.sections)

let test_perf_regress_pct () =
  let pct = Alcotest.float 1e-9 in
  check pct "lower: a rise regresses" 10.0
    (Perf.regress_pct ~better:Perf.Lower ~old_v:100.0 ~new_v:110.0);
  check pct "lower: a fall improves" (-10.0)
    (Perf.regress_pct ~better:Perf.Lower ~old_v:100.0 ~new_v:90.0);
  check pct "higher: a fall regresses" 25.0
    (Perf.regress_pct ~better:Perf.Higher ~old_v:40.0 ~new_v:30.0);
  check pct "higher: a rise improves" (-25.0)
    (Perf.regress_pct ~better:Perf.Higher ~old_v:40.0 ~new_v:50.0);
  check pct "equal values" 0.0
    (Perf.regress_pct ~better:Perf.Higher ~old_v:40.0 ~new_v:40.0)

let test_perf_zero_baseline () =
  let pct = Alcotest.float 1e-9 in
  check pct "0 -> 3, lower better" 100.0
    (Perf.regress_pct ~better:Perf.Lower ~old_v:0.0 ~new_v:3.0);
  check pct "0 -> 3, higher better" (-100.0)
    (Perf.regress_pct ~better:Perf.Higher ~old_v:0.0 ~new_v:3.0);
  check pct "0 -> 0" 0.0
    (Perf.regress_pct ~better:Perf.Lower ~old_v:0.0 ~new_v:0.0);
  let d =
    Perf.diff
      ~baseline:(perf_run [ lower "violations" 0.0 ])
      ~candidate:(perf_run [ lower "violations" 1.0 ])
  in
  check Alcotest.bool "a nonzero count over a zero baseline fails" false
    (Perf.ok ~max_regress:50.0 d)

let test_perf_tolerance_boundary () =
  let d =
    Perf.diff
      ~baseline:(perf_run [ lower "ms" 100.0 ])
      ~candidate:(perf_run [ lower "ms" 105.0 ])
  in
  check Alcotest.bool "exactly at the tolerance passes" true
    (Perf.ok ~max_regress:5.0 d);
  check Alcotest.bool "just below it fails" false
    (Perf.ok ~max_regress:4.99 d);
  check Alcotest.int "one regression at 4.99%" 1
    (List.length (Perf.regressions ~max_regress:4.99 d))

let test_perf_missing_metric () =
  let d =
    Perf.diff
      ~baseline:(perf_run [ lower "deopts" 235.0; higher "elision_pct" 37.0 ])
      ~candidate:(perf_run [ lower "deopts" 235.0; higher "new_metric" 1.0 ])
  in
  check
    Alcotest.(list (pair string string))
    "missing" [ ("sec", "elision_pct") ] d.Perf.missing;
  check
    Alcotest.(list (pair string string))
    "added" [ ("sec", "new_metric") ] d.Perf.added;
  check Alcotest.bool "a missing metric fails even at any tolerance" false
    (Perf.ok ~max_regress:1000.0 d)

let () =
  Alcotest.run "harness"
    [
      ( "experiments",
        [
          tc "execute and cache" `Quick test_execute_and_cache;
          tc "distinct keys" `Quick test_distinct_keys_distinct_runs;
          tc "unknown workload" `Quick test_unknown_workload_rejected;
          tc "grid constants" `Quick test_grid_constants;
        ] );
      ( "tables",
        [
          tc "tables render" `Slow test_tables_render;
          tc "overhead rows" `Slow test_overhead_rows;
        ] );
      ( "ablations",
        [
          tc "footprint rows" `Slow test_footprint_rows;
          tc "decay ablation rows" `Slow test_ablation_rows;
          tc "phase program" `Quick test_phase_program_runs;
        ] );
      ( "perf",
        [
          tc "to_string/of_string round trip" `Quick test_perf_round_trip;
          tc "regress_pct direction" `Quick test_perf_regress_pct;
          tc "zero baseline" `Quick test_perf_zero_baseline;
          tc "tolerance boundary" `Quick test_perf_tolerance_boundary;
          tc "missing metric fails" `Quick test_perf_missing_metric;
        ] );
    ]
