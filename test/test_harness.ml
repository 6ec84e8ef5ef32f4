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

(* The plain and profiled runs alternate in pairs: each round runs one
   of each, and the two take turns going first. *)
let test_overhead_pairing () =
  let order = ref [] in
  let thunk name n () =
    order := name :: !order;
    n
  in
  let rounds =
    Harness.Overhead.paired ~repeats:5 (thunk "plain" 1) (thunk "profiled" 2)
  in
  check
    Alcotest.(list string)
    "call order"
    [
      "plain"; "profiled"; "profiled"; "plain"; "plain"; "profiled";
      "profiled"; "plain"; "plain"; "profiled";
    ]
    (List.rev !order);
  check
    Alcotest.(list (pair int int))
    "one pair per round, plain first" (List.init 5 (fun _ -> (1, 2))) rounds;
  check Alcotest.int "no rounds" 0
    (List.length (Harness.Overhead.paired ~repeats:0 (thunk "a" 0) (thunk "b" 0)))

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
   exact diff repro_cli bench-diff gates on. *)
module Perf = Harness.Perf

let perf_run metrics =
  {
    Perf.bench = "unit";
    env = Perf.env_stamp ~scale:0.5;
    sections = [ { Perf.label = "sec"; metrics } ];
  }

let count name value = { Perf.name; value; unit_ = "count" }
let keys = Alcotest.(list (pair string string))

let test_perf_round_trip () =
  let run =
    perf_run
      [
        count "deopts" 235.0;
        { Perf.name = "fold_pct"; value = 37.25; unit_ = "pct" };
      ]
  in
  match Perf.of_string (Perf.to_string run) with
  | Error e -> Alcotest.fail (Perf.error_to_string e)
  | Ok back ->
      check Alcotest.string "bench" run.Perf.bench back.Perf.bench;
      check
        Alcotest.(list (pair string string))
        "env" run.Perf.env back.Perf.env;
      check Alcotest.bool "sections" true
        (back.Perf.sections = run.Perf.sections)

let perf_diff old_metrics new_metrics =
  Perf.diff ~baseline:(perf_run old_metrics) ~candidate:(perf_run new_metrics)

(* a count that moved is unclean whichever way it moved, off a zero
   baseline too: there is no better direction to forgive it in *)
let test_perf_moved old_v new_v () =
  let d = perf_diff [ count "deopts" old_v ] [ count "deopts" new_v ] in
  check Alcotest.bool "a move is unclean" false (Perf.clean d);
  match d.Perf.changed with
  | [ c ] ->
      check Alcotest.string "name" "deopts" c.Perf.c_name;
      check (Alcotest.float 0.0) "old" old_v c.Perf.c_old;
      check (Alcotest.float 0.0) "new" new_v c.Perf.c_new
  | l -> Alcotest.failf "%d changed rows, expected 1" (List.length l)

let test_perf_missing_metric () =
  let d =
    perf_diff
      [ count "deopts" 235.0; count "ledger" 37.0 ]
      [ count "deopts" 235.0 ]
  in
  check keys "missing" [ ("sec", "ledger") ] d.Perf.missing;
  check Alcotest.bool "a missing metric is unclean" false (Perf.clean d)

let test_perf_added_metric () =
  let d =
    perf_diff
      [ count "deopts" 235.0 ]
      [ count "deopts" 235.0; count "ledger" 1.0 ]
  in
  check keys "added" [ ("sec", "ledger") ] d.Perf.added;
  check Alcotest.bool "an added metric is unclean" false (Perf.clean d)

let test_perf_identical () =
  let ms = [ count "deopts" 0.0; count "ledger" 37.0 ] in
  let d = perf_diff ms ms in
  check Alcotest.bool "identical runs diff clean" true (Perf.clean d);
  check Alcotest.int "no changed rows" 0 (List.length d.Perf.changed)

(* The version is read first: another version's document is refused
   even when the rest of it parses. *)
let test_perf_other_version () =
  let v = Harness.Codec.schema_version in
  let prefix v = Printf.sprintf {|{"schema_version":%d,|} v in
  let doc = Perf.to_string (perf_run [ count "deopts" 235.0 ]) in
  check Alcotest.bool "the writer leads with the version" true
    (String.starts_with ~prefix:(prefix v) doc);
  let n = String.length (prefix v) in
  let doc = prefix (v - 1) ^ String.sub doc n (String.length doc - n) in
  match Perf.of_string doc with
  | Error (Perf.Version_mismatch { got; expected }) ->
      check Alcotest.int "got" (v - 1) got;
      check Alcotest.int "expected" v expected
  | Error (Perf.Malformed msg) ->
      Alcotest.failf "malformed, not a version error: %s" msg
  | Ok _ -> Alcotest.fail "a document of another version was read"

(* A (section, metric) pair named twice is refused, whether the copies
   share a section or sit in two sections of one label: a diff would
   read whichever copy it met first.  One name in two sections is two
   pairs. *)
let test_perf_pair_twice () =
  let with_section label =
    let run = perf_run [ count "deopts" 235.0 ] in
    {
      run with
      Perf.sections =
        run.Perf.sections @ [ { Perf.label; metrics = [ count "deopts" 1.0 ] } ];
    }
  in
  let read run = Perf.of_string (Perf.to_string run) in
  let malformed = function Error (Perf.Malformed _) -> true | _ -> false in
  check Alcotest.bool "one section" true
    (malformed (read (perf_run [ count "deopts" 235.0; count "deopts" 1.0 ])));
  check Alcotest.bool "two sections of one label" true
    (malformed (read (with_section "sec")));
  check Alcotest.bool "two labels" true
    (Result.is_ok (read (with_section "other")))

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
          tc "overhead pairs alternate" `Quick test_overhead_pairing;
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
          tc "moved up fails" `Quick (test_perf_moved 0.0 1.0);
          tc "moved down fails" `Quick (test_perf_moved 235.0 234.0);
          tc "missing metric fails" `Quick test_perf_missing_metric;
          tc "added metric fails" `Quick test_perf_added_metric;
          tc "identical diffs clean" `Quick test_perf_identical;
          tc "another schema version fails" `Quick test_perf_other_version;
          tc "a pair named twice fails" `Quick test_perf_pair_twice;
        ] );
    ]
