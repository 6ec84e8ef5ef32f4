(* Deep observability: per-block attribution reconciliation, the JSON
   parser, and byte-mutation fuzzing of the decoders that read a file
   back (postmortem dumps and bench baselines). *)

open Workloads.Dsl
module S = Bytecode.Structured
module Engine = Tracegen.Engine
module Config = Tracegen.Config
module Metrics = Tracegen.Metrics
module Stats = Tracegen.Stats
module Codec = Harness.Codec
module Report = Harness.Report

let tc = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* wired through the engine                                             *)
(* ------------------------------------------------------------------ *)

let layout_of body =
  let p = S.create () in
  S.def_method p ~name:"main" ~args:[] ~ret:S.I ~body ();
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  Cfg.Layout.build program

let hot_loop =
  layout_of
    [
      decl_i "s" (i 0);
      for_ "k" (i 0) (i 20_000)
        [ set "s" ((v "s" +! v "k") &! i 0xFFFFF) ];
      ret (v "s");
    ]

let test_disabled_by_default () =
  let r = Engine.run hot_loop in
  let engine = r.Engine.engine in
  check Alcotest.int "no attribution arrays unless asked" 0
    (Array.length (Engine.attr_self engine));
  (* histograms are always on: O(1), off the dispatch fast path *)
  let s = r.Engine.run_stats in
  check Alcotest.int "one length observation per completion"
    s.Stats.traces_completed
    (Metrics.hist_count (Engine.trace_len_hist engine))

let test_engine_attribution () =
  let r = Engine.run ~config:(Config.make ~obs_attribution:true ()) hot_loop in
  let engine = r.Engine.engine in
  let s = r.Engine.run_stats in
  (* the hot-report reconciles exactly against Stats *)
  let report = Report.of_engine engine in
  check Alcotest.bool "report has trace rows" true (report.Report.traces <> []);
  check Alcotest.bool "report has block rows" true (report.Report.blocks <> []);
  check
    Alcotest.(list string)
    "every identity reconciles" []
    (List.map
       (fun (c : Harness.Oracle.check) -> c.Harness.Oracle.name)
       (Harness.Oracle.failures (Report.checks report engine s)));
  (* the side-exit distance histogram counts exactly the side exits *)
  let in_flight =
    match Engine.active_trace engine with Some _ -> 1 | None -> 0
  in
  check Alcotest.int "one distance observation per side exit"
    (s.Stats.traces_entered - s.Stats.traces_completed - in_flight)
    (Metrics.hist_count (Engine.exit_distance_hist engine))

(* ------------------------------------------------------------------ *)
(* the JSON parser                                                      *)
(* ------------------------------------------------------------------ *)

let test_parser_values () =
  let roundtrip j =
    match Codec.parse (Codec.to_string j) with
    | Ok j' -> check Alcotest.string "fixpoint" (Codec.to_string j)
        (Codec.to_string j')
    | Error e -> Alcotest.failf "parse: %s" e
  in
  roundtrip (Codec.J_int 42);
  roundtrip (Codec.J_int (-7));
  roundtrip (Codec.J_float 2.5);
  roundtrip (Codec.J_bool true);
  roundtrip Codec.J_null;
  roundtrip (Codec.J_string "a\"b\\c\nd");
  roundtrip (Codec.J_list []);
  roundtrip
    (Codec.J_obj
       [
         ("xs", Codec.J_list [ Codec.J_int 1; Codec.J_null ]);
         ("nested", Codec.J_obj [ ("k", Codec.J_string "v") ]);
       ]);
  let bad s =
    match Codec.parse s with
    | Ok _ -> Alcotest.failf "expected a parse error on %S" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "1 trailing";
  bad "\"unterminated"

(* ------------------------------------------------------------------ *)
(* decoders under byte mutation                                         *)
(* ------------------------------------------------------------------ *)

(* A real dump: a faulted, self-healing compress run, forced to dump its
   ring. *)
let faulted_dump =
  lazy
    (let layout =
       Harness.Experiment.layout_for Workloads.Compress.workload ~size:200
     in
     let config =
       Config.make ~self_heal:true ~debug_checks:true
         ~fault_spec:"corrupt-trace@0.01,budget=12" ~fault_seed:7 ()
     in
     let r = Engine.run ~config layout in
     Codec.postmortem_jsonl ~reason:"manual"
       (Option.get (Engine.flightrec r.Engine.engine)))

let bench_smoke =
  lazy (In_channel.with_open_bin "../BENCH_smoke.json" In_channel.input_all)

(* Each decoder must answer [Ok] or [Error] on any input; an exception
   fails the property. *)
let decoders_answer input =
  (match Codec.parse input with Ok _ | Error _ -> ());
  (match Harness.Postmortem.describe_dump input with Ok _ | Error _ -> ());
  (match Harness.Perf.of_string input with Ok _ | Error _ -> ());
  true

(* 1-8 byte edits, each overwriting, deleting or duplicating the byte
   at a random offset, then maybe a truncation. *)
let mutate source =
  let open QCheck.Gen in
  let edit s =
    let n = String.length s in
    if n = 0 then return s
    else
      let* at = int_bound (n - 1) in
      let* byte = char in
      oneofl
        [
          String.mapi (fun i c -> if i = at then byte else c) s;
          String.sub s 0 at ^ String.sub s (at + 1) (n - at - 1);
          String.sub s 0 (at + 1) ^ String.sub s at (n - at);
        ]
  in
  let rec edits k s = if k = 0 then return s else edit s >>= edits (k - 1) in
  let* s = int_range 1 8 >>= fun k -> edits k source in
  let* truncate = bool in
  if truncate then map (String.sub s 0) (int_bound (String.length s))
  else return s

let fuzz_decoders name source =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name ~count:150
       (QCheck.make ~print:(fun s -> String.escaped s)
          (QCheck.Gen.delay (fun () -> mutate (Lazy.force source))))
       decoders_answer)

(* Record kinds older schemas wrote and this one does not — a v10
   dump's span closures, a v11 dump's metric deltas — are typed errors
   naming their line. *)
let test_retired_records () =
  List.iter
    (fun (version, kind, line) ->
      let dump =
        String.concat "\n"
          [
            Printf.sprintf
              {|{"schema_version":%d,"rec":"postmortem","reason":"manual","capacity":4,"recorded":2,"dropped":0}|}
              version;
            Printf.sprintf
              {|{"schema_version":%d,"rec":"event","seq":0,"event":"decay_pass","time":5,"decays":1}|}
              version;
            line;
          ]
      in
      check
        Alcotest.(result (list string) string)
        (Printf.sprintf "a v%d %s line is rejected" version kind)
        (Error (Printf.sprintf "line 3: unknown rec kind %S" kind))
        (Harness.Postmortem.describe_dump dump))
    [
      ( 10,
        "span",
        {|{"schema_version":10,"rec":"span","seq":1,"time":9,"span":0,"parent":-1,"kind":"trace_build","label":"build N_1,2","start":9}|}
      );
      ( 11,
        "metric",
        {|{"schema_version":11,"rec":"metric","seq":1,"time":9,"name":"deopts","delta":1,"total":4}|}
      );
    ]

let () =
  Alcotest.run "obs"
    [
      ( "engine",
        [
          tc "disabled by default" `Quick test_disabled_by_default;
          tc "attribution reconciles" `Quick test_engine_attribution;
        ] );
      ( "export",
        [
          tc "parser round trips" `Quick test_parser_values;
          tc "retired dump records are typed errors" `Quick
            test_retired_records;
        ] );
      ( "fuzz",
        [
          fuzz_decoders "mutated postmortem dump decodes or errs"
            faulted_dump;
          fuzz_decoders "mutated bench baseline decodes or errs" bench_smoke;
        ] );
    ]
