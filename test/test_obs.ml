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

(* The tally's histogram named [name]. *)
let hist tally name =
  List.find
    (fun h -> Metrics.hist_name h = name)
    (Harness.Oracle.histograms tally)

let test_disabled_by_default () =
  let events = Tracegen.Events.create () in
  let tally = Harness.Oracle.attach events in
  let r = Engine.run ~events hot_loop in
  (* the trace-length distribution is a fold of the completion events *)
  let s = r.Engine.run_stats in
  check Alcotest.int "one length observation per completion"
    s.Stats.traces_completed
    (Metrics.hist_count (hist tally "executed_trace_len"))

(* Every oracle identity holds, the per-block one over a counted plain
   run under the engine run's own cap among them, and the hot report
   built from the same tally and counts sums, column by column, to the
   Stats totals. *)
let check_reconciles ?max_instructions where tally engine (s : Stats.t) =
  let executed = Harness.Oracle.executed ?max_instructions engine in
  List.iter
    (fun (c : Harness.Oracle.check) ->
      check Alcotest.int
        (where ^ ": " ^ c.Harness.Oracle.name)
        c.Harness.Oracle.want c.Harness.Oracle.got)
    (Harness.Oracle.run_checks tally ~engine s
    @ Harness.Oracle.block_checks ~executed tally ~engine s);
  let report = Report.of_engine ~executed tally engine in
  let sum rows f = List.fold_left (fun acc row -> acc + f row) 0 rows in
  let traces = sum report.Report.traces and blocks = sum report.Report.blocks in
  let in_flight =
    match Engine.active_trace engine with Some _ -> 1 | None -> 0
  in
  List.iter
    (fun (name, want, got) ->
      check Alcotest.int (where ^ ": report " ^ name) want got)
    [
      ("entered", s.Stats.traces_entered, traces (fun x -> x.Report.entered));
      ( "completed",
        s.Stats.traces_completed,
        traces (fun x -> x.Report.completed) );
      ( "partial exits",
        s.Stats.traces_entered - s.Stats.traces_completed - in_flight,
        traces (fun x -> x.Report.partial_exits) );
      ( "instrs",
        s.Stats.completed_instrs + s.Stats.partial_instrs,
        traces (fun x -> x.Report.instrs) );
      ("self", s.Stats.block_dispatches, blocks (fun x -> x.Report.self));
      ( "inlined",
        s.Stats.completed_blocks + s.Stats.partial_blocks
        + Engine.inflight_matched_blocks engine,
        blocks (fun x -> x.Report.inlined) );
    ];
  report

let test_engine_attribution () =
  let events = Tracegen.Events.create () in
  let tally = Harness.Oracle.attach events in
  let r =
    Engine.run ~events hot_loop
  in
  let engine = r.Engine.engine in
  let s = r.Engine.run_stats in
  let report = check_reconciles "hot loop" tally engine s in
  check Alcotest.bool "report has trace rows" true (report.Report.traces <> []);
  check Alcotest.bool "report has block rows" true (report.Report.blocks <> []);
  (* the side-exit distance histogram counts exactly the side exits *)
  let in_flight =
    match Engine.active_trace engine with Some _ -> 1 | None -> 0
  in
  check Alcotest.int "one distance observation per side exit"
    (s.Stats.traces_entered - s.Stats.traces_completed - in_flight)
    (Metrics.hist_count (hist tally "completion_distance"))

(* The hot exit events' fields sum to the exit counters, each
   histogram the tally folds from them counts one observation per
   event, and the hot report folded from the same tally reconciles — on
   full runs and on runs cut off by an instruction cap, which leave a
   trace in flight.  The configurations exercise side exits,
   self-healing quarantines, OSR deopts with a bounded cache, the
   compiled tier, and capacity eviction of traces that were entered. *)
let test_hot_event_sums () =
  let configs =
    [
      ("default", Config.default);
      ( "self-heal",
        Config.make ~self_heal:true
          ~fault_spec:"corrupt-trace@0.005,corrupt-instrs@0.005" () );
      ( "osr + self-heal, 48 traces",
        Config.make ~osr:true ~self_heal:true
          ~max_cache_traces:48
          ~fault_spec:
            "guard_flip@0.02,corrupt-trace@0.005,zero-counter@0.005,budget=40"
          () );
      ( "tier + osr",
        Config.make ~tier:true ~osr:true
          ~fault_spec:"guard_flip@0.05,budget=24" () );
      ( "8 traces, footprint-aware",
        Config.make ~max_cache_traces:8
          ~eviction_policy:Config.Cache.Footprint_aware () );
    ]
  in
  List.iter
    (fun w ->
      let layout = Harness.Experiment.layout_for w ~size:500 in
      List.iter
        (fun (label, config) ->
          List.iter
            (fun max_instructions ->
              let events = Tracegen.Events.create () in
              let tally = Harness.Oracle.attach events in
              let r = Engine.run ~config ~events ?max_instructions layout in
              let s = r.Engine.run_stats in
              let where =
                Printf.sprintf "%s/%s/%s" w.Workloads.Workload.name label
                  (match max_instructions with
                  | Some n -> string_of_int n
                  | None -> "full")
              in
              ignore
                (check_reconciles ?max_instructions where tally
                   r.Engine.engine s);
              check Alcotest.int (where ^ ": one residue per deopt")
                s.Stats.deopts
                (Metrics.hist_count (hist tally "deopt_residue")))
            [ None; Some 100_003; Some 33_331 ])
        configs)
    [ Workloads.Compress.workload; Workloads.Mpegaudio.workload ]

(* A corrupt-trace run under OSR and self-healing, debug checks off: the
   live bodies of condemned traces carry negated gids and their entries
   are quarantined away, yet the report, read from the stream, builds
   and reconciles. *)
let test_report_after_corruption () =
  let layout =
    Cfg.Layout.build
      (Workloads.Workload.build_default Workloads.Javacish.workload)
  in
  let events = Tracegen.Events.create () in
  let tally = Harness.Oracle.attach events in
  let config =
    Config.make ~osr:true ~self_heal:true
      ~fault_spec:"corrupt-trace@0.005,budget=20" ()
  in
  let r = Engine.run ~config ~events layout in
  let s = r.Engine.run_stats in
  check Alcotest.bool "traces were quarantined" true
    (s.Stats.traces_quarantined > 0);
  let report = check_reconciles "javac" tally r.Engine.engine s in
  check Alcotest.bool "report has trace rows" true (report.Report.traces <> [])

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
  bad "\"unterminated";
  (* a literal that overflows a float is not read as infinity *)
  bad "1e400";
  bad "[-1e400]"

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
          tc "hot event sums reconcile" `Quick test_hot_event_sums;
          tc "report after trace corruption" `Quick
            test_report_after_corruption;
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
