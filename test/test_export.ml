(* Machine-readable export: JSON well-formedness, CSV shape, value
   consistency with the underlying stats. *)

module Codec = Harness.Codec
module Export = Harness.Export
module Experiment = Harness.Experiment
module Stats = Tracegen.Stats

let tc = Alcotest.test_case
let check = Alcotest.check

let test_json_escaping () =
  check Alcotest.string "quotes" "a\\\"b" (Codec.json_escape "a\"b");
  check Alcotest.string "backslash" "a\\\\b" (Codec.json_escape "a\\b");
  check Alcotest.string "newline" "a\\nb" (Codec.json_escape "a\nb");
  check Alcotest.string "control" "a\\u0001b" (Codec.json_escape "a\001b")

let test_json_rendering () =
  let j =
    Codec.J_obj
      [
        ("name", Codec.J_string "x\"y");
        ("n", Codec.J_int 42);
        ("f", Codec.J_float 0.25);
        ("ok", Codec.J_bool true);
        ("xs", Codec.J_list [ Codec.J_int 1; Codec.J_int 2 ]);
      ]
  in
  check Alcotest.string "rendering"
    "{\"name\":\"x\\\"y\",\"n\":42,\"f\":0.25,\"ok\":true,\"xs\":[1,2]}"
    (Codec.to_string j)

let test_nan_clamped () =
  check Alcotest.string "nan becomes 0" "0"
    (Codec.to_string (Codec.J_float Float.nan));
  check Alcotest.string "inf becomes 0" "0"
    (Codec.to_string (Codec.J_float Float.infinity))

(* a crude well-formedness scan: balanced braces/brackets outside strings *)
let json_balanced s =
  let depth = ref 0 in
  let in_str = ref false in
  let escaped = ref false in
  String.iter
    (fun c ->
      if !in_str then begin
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_str := false
      end
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' -> decr depth
        | _ -> ())
    s;
  (not !in_str) && !depth = 0

let test_run_json_consistent () =
  let run =
    Experiment.execute
      {
        Experiment.workload = "compress";
        size = 1000;
        delay = 64;
        threshold = 0.97;
        build_traces = true;
      }
  in
  let s = Codec.to_string (Export.run_json run) in
  check Alcotest.bool "balanced json" true (json_balanced s);
  (* the rendered text carries the right checksum *)
  let expected = Printf.sprintf "\"checksum\":%d" run.Experiment.result_value in
  let contains sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "checksum present" true (contains expected);
  check Alcotest.bool "workload present" true (contains "\"workload\":\"compress\"")

let test_csv_shape () =
  let csv = Export.sweep_csv ~scale:0.01 () in
  let lines =
    String.split_on_char '\n' csv |> List.filter (fun l -> l <> "")
  in
  (* header + 6 workloads x 5 thresholds *)
  check Alcotest.int "row count" 31 (List.length lines);
  let header = List.hd lines in
  let n_cols = List.length (String.split_on_char ',' header) in
  List.iter
    (fun line ->
      check Alcotest.int "uniform column count" n_cols
        (List.length (String.split_on_char ',' line)))
    lines

let test_jsonl_shape () =
  let out = Export.sweep_jsonl ~scale:0.01 () in
  let lines =
    String.split_on_char '\n' out |> List.filter (fun l -> l <> "")
  in
  (* 6 workloads x (5 thresholds + 3 delays) *)
  check Alcotest.int "line count" 48 (List.length lines);
  List.iter
    (fun line -> check Alcotest.bool "each line balanced" true (json_balanced line))
    lines

let test_csv_escape () =
  (* exercised indirectly; check the helper semantics via a value rendered
     through stats_json instead: strings with commas survive *)
  let j = Codec.to_string (Codec.J_string "a,b") in
  check Alcotest.string "comma in json string" "\"a,b\"" j

let () =
  Alcotest.run "export"
    [
      ( "json",
        [
          tc "escaping" `Quick test_json_escaping;
          tc "rendering" `Quick test_json_rendering;
          tc "nan clamped" `Quick test_nan_clamped;
          tc "run json" `Quick test_run_json_consistent;
        ] );
      ( "sweeps",
        [
          tc "csv shape" `Slow test_csv_shape;
          tc "jsonl shape" `Slow test_jsonl_shape;
          tc "csv escape" `Quick test_csv_escape;
        ] );
    ]
