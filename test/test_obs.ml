(* Deep observability: causal spans (ring buffer, parent links,
   wraparound), per-block attribution reconciliation, and the timeline
   exports (span JSONL, Chrome trace_event, the JSON round trip). *)

open Workloads.Dsl
module S = Bytecode.Structured
module Engine = Tracegen.Engine
module Spans = Tracegen.Spans
module Config = Tracegen.Config
module Metrics = Tracegen.Metrics
module Stats = Tracegen.Stats
module Codec = Harness.Codec
module Report = Harness.Report

let tc = Alcotest.test_case
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* the recorder in isolation                                            *)
(* ------------------------------------------------------------------ *)

let parent_of t id =
  match Spans.find t id with
  | Some s -> s.Spans.parent
  | None -> Alcotest.failf "span %d not in the ring" id

let test_nesting_and_parents () =
  let t = Spans.create () in
  let a = Spans.begin_span t ~kind:Spans.Trace_build ~label:"a" ~now:1 in
  let b = Spans.begin_span t ~kind:Spans.Heal_sweep ~label:"b" ~now:2 in
  check Alcotest.int "a is a root" (-1) (parent_of t a);
  check Alcotest.int "b nests under a" a (parent_of t b);
  (* an emitted span parents under the innermost open span too *)
  let q =
    Spans.emit t ~kind:Spans.Quarantine ~label:"q" ~start_time:2 ~end_time:9
  in
  check Alcotest.int "emit parents under b" b (parent_of t q);
  check Alcotest.int "emit never joins the open stack" 2 (Spans.n_open t);
  Spans.end_span t b ~now:3;
  Spans.end_span t a ~now:4;
  let c = Spans.begin_span t ~kind:Spans.Member_turn ~label:"c" ~now:5 in
  check Alcotest.int "after unwinding, c is a root" (-1) (parent_of t c);
  Spans.end_span t c ~now:6;
  check Alcotest.int "all closed" 0 (Spans.n_open t);
  check Alcotest.(list int) "listed in begin order" [ a; b; q; c ]
    (List.map (fun s -> s.Spans.id) (Spans.to_list t));
  List.iter
    (fun s ->
      check Alcotest.bool "every span closed with a valid extent" true
        (s.Spans.end_time >= s.Spans.start_time
        && s.Spans.end_seq > s.Spans.start_seq))
    (Spans.to_list t)

let test_wraparound_keeps_links_consistent () =
  let t = Spans.create ~capacity:4 () in
  let root = Spans.begin_span t ~kind:Spans.Trace_build ~label:"root" ~now:0 in
  for i = 1 to 10 do
    let s =
      Spans.begin_span t ~kind:Spans.Heal_sweep
        ~label:(Printf.sprintf "child%d" i)
        ~now:i
    in
    Spans.end_span t s ~now:i
  done;
  check Alcotest.int "ids kept flowing" 11 (Spans.recorded t);
  check Alcotest.int "overwrites counted" 7 (Spans.dropped t);
  check Alcotest.bool "the root was evicted" true (Spans.find t root = None);
  (* surviving children still name the root as parent, and resolving
     that link answers None — never whichever span reused the slot *)
  List.iter
    (fun s ->
      if s.Spans.id <> root then begin
        check Alcotest.int "parent link survives eviction" root
          s.Spans.parent;
        check Alcotest.bool "evicted parent resolves to None" true
          (Spans.find t s.Spans.parent = None)
      end)
    (Spans.to_list t);
  (* closing the evicted root is a harmless no-op beyond unstacking *)
  Spans.end_span t root ~now:99;
  check Alcotest.int "stack unwound" 0 (Spans.n_open t);
  check Alcotest.int "ring holds the last capacity spans" 4
    (List.length (Spans.to_list t))

let test_end_all_closes_innermost_first () =
  let t = Spans.create () in
  let a = Spans.begin_span t ~kind:Spans.Trace_build ~label:"a" ~now:1 in
  let b = Spans.begin_span t ~kind:Spans.Member_turn ~label:"b" ~now:2 in
  Spans.end_all t ~now:9;
  check Alcotest.int "nothing left open" 0 (Spans.n_open t);
  let get id = Option.get (Spans.find t id) in
  check Alcotest.bool "both closed at now" true
    ((get a).Spans.end_time = 9 && (get b).Spans.end_time = 9);
  check Alcotest.bool "inner closed before outer on the event clock" true
    ((get b).Spans.end_seq < (get a).Spans.end_seq)

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

let run_obs ?(config = Config.make ~obs_spans:true ~obs_attribution:true ())
    () =
  let r = Engine.run ~config hot_loop in
  let engine = r.Engine.engine in
  let spans =
    match Engine.spans engine with
    | Some s -> s
    | None -> Alcotest.fail "obs_spans on but no recorder"
  in
  Spans.end_all spans ~now:(Engine.total_dispatches engine);
  (r, engine, spans)

let test_disabled_by_default () =
  let r = Engine.run hot_loop in
  let engine = r.Engine.engine in
  check Alcotest.bool "no recorder unless asked" true
    (Engine.spans engine = None);
  check Alcotest.int "no attribution arrays unless asked" 0
    (Array.length (Engine.attr_self engine));
  (* histograms are always on: O(1), off the dispatch fast path *)
  let s = r.Engine.run_stats in
  check Alcotest.int "one length observation per completion"
    s.Stats.traces_completed
    (Metrics.hist_count (Engine.trace_len_hist engine))

let test_engine_spans_and_attribution () =
  let r, engine, spans = run_obs () in
  let s = r.Engine.run_stats in
  check Alcotest.bool "builds were spanned" true (Spans.recorded spans > 0);
  List.iter
    (fun sp ->
      check Alcotest.bool "closed with a valid extent" true
        (sp.Spans.end_time >= sp.Spans.start_time))
    (Spans.to_list spans);
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

let test_session_member_turns () =
  let session = Tracegen.Session.create () in
  let config = Config.make ~obs_spans:true () in
  ignore (Tracegen.Session.add ~name:"a" ~config session hot_loop);
  ignore (Tracegen.Session.add ~name:"b" ~config session hot_loop);
  Tracegen.Session.run session;
  List.iter
    (fun m ->
      let engine = Tracegen.Session.engine m in
      match Engine.spans engine with
      | None -> Alcotest.fail "obs_spans on but no recorder"
      | Some spans ->
          Spans.end_all spans ~now:(Engine.total_dispatches engine);
          let turns =
            List.filter
              (fun s -> s.Spans.kind = Spans.Member_turn)
              (Spans.to_list spans)
          in
          check Alcotest.bool "member turns spanned" true (turns <> []);
          check Alcotest.string "labelled with the member name"
            (Tracegen.Session.member_name m)
            (List.hd turns).Spans.label;
          check Alcotest.(list string) "chrome-exportable" []
            (Report.check_chrome (Codec.chrome_trace (Spans.to_list spans))))
    (Tracegen.Session.members session)

let test_chrome_export_valid () =
  let _, _, spans = run_obs () in
  let j = Codec.chrome_trace (Spans.to_list spans) in
  check Alcotest.(list string) "structurally valid" [] (Report.check_chrome j);
  (* the printed form re-parses to an equally valid value *)
  match Codec.parse (Codec.to_string j) with
  | Error e -> Alcotest.failf "round trip failed to parse: %s" e
  | Ok parsed ->
      check Alcotest.(list string) "valid after the round trip" []
        (Report.check_chrome parsed);
      check Alcotest.string "printer/parser fixpoint" (Codec.to_string j)
        (Codec.to_string parsed)

let test_chrome_export_under_faults () =
  (* quarantine episodes overlap freely; they must export as X events
     and leave the B/E stack discipline intact *)
  let config =
    Config.make ~obs_spans:true ~self_heal:true ~debug_checks:true
      ~fault_spec:"corrupt-trace@0.02,budget=10" ~fault_seed:7 ()
  in
  let _, _, spans = run_obs ~config () in
  let spans = Spans.to_list spans in
  let quarantines =
    List.filter (fun s -> s.Spans.kind = Spans.Quarantine) spans
  in
  check Alcotest.bool "faults produced quarantine spans" true
    (quarantines <> []);
  check Alcotest.(list string) "still structurally valid" []
    (Report.check_chrome (Codec.chrome_trace spans))

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

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          tc "nesting and parent links" `Quick test_nesting_and_parents;
          tc "wraparound keeps links consistent" `Quick
            test_wraparound_keeps_links_consistent;
          tc "end_all closes innermost first" `Quick
            test_end_all_closes_innermost_first;
        ] );
      ( "engine",
        [
          tc "disabled by default" `Quick test_disabled_by_default;
          tc "spans + attribution reconcile" `Quick
            test_engine_spans_and_attribution;
          tc "session member turns spanned" `Quick
            test_session_member_turns;
        ] );
      ( "export",
        [
          tc "chrome trace valid" `Quick test_chrome_export_valid;
          tc "chrome trace valid under faults" `Quick
            test_chrome_export_under_faults;
          tc "parser round trips" `Quick test_parser_values;
        ] );
    ]
