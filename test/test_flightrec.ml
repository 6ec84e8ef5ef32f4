(* The flight recorder: ring wrap-around at capacity, dump triggers, the
   postmortem JSONL round trip through the codec, and the ledger/event
   reconciliation oracle over a live engine run. *)

open Workloads.Dsl
module S = Bytecode.Structured
module Engine = Tracegen.Engine
module Events = Tracegen.Events
module Flightrec = Tracegen.Flightrec
module Ledger = Tracegen.Ledger
module Config = Tracegen.Config
module Stats = Tracegen.Stats
module Codec = Harness.Codec
module Oracle = Harness.Oracle
module Postmortem = Harness.Postmortem

let tc = Alcotest.test_case
let check = Alcotest.check

let ev time n = { Events.time; payload = Events.Decay_pass { decays = n } }

(* A recorder fed the way an engine feeds it: each event emitted at its
   time on a stream tapped with the recorder's ring. *)
let recorder ~capacity =
  let fr = Flightrec.create ~capacity in
  let stream = Events.create () in
  Events.set_tap stream ~ring:(Some (Flightrec.ring fr)) ~cold:ignore;
  let record (e : Events.event) =
    Events.set_now stream e.time;
    Events.emit stream e.payload
  in
  (fr, record)

(* ------------------------------------------------------------------ *)
(* the ring in isolation                                                *)
(* ------------------------------------------------------------------ *)

let test_wraparound () =
  let fr, record = recorder ~capacity:4 in
  check Alcotest.int "capacity as asked" 4 (Flightrec.capacity fr);
  for i = 0 to 9 do
    record (ev (100 + i) i)
  done;
  check Alcotest.int "every record counted" 10 (Flightrec.recorded fr);
  check Alcotest.int "overflow counted as dropped" 6 (Flightrec.dropped fr);
  let window = Flightrec.to_list fr in
  check Alcotest.int "window bounded by capacity" 4 (List.length window);
  check Alcotest.(list int) "newest survive, oldest first" [ 6; 7; 8; 9 ]
    (List.map (fun (e : Flightrec.entry) -> e.seq) window);
  check Alcotest.(list int) "times ride along" [ 106; 107; 108; 109 ]
    (List.map (fun (e : Flightrec.entry) -> e.time) window)

let test_capacity_clamped () =
  let fr, record = recorder ~capacity:0 in
  check Alcotest.int "capacity clamps to 2" 2 (Flightrec.capacity fr);
  record (ev 1 1);
  check Alcotest.int "no drops below capacity" 0 (Flightrec.dropped fr)

(* A rare kind takes the pointer path, a hot kind the scalar one; a slot
   rewritten from one path to the other reads back as its new event. *)
let cold time =
  { Events.time; payload = Events.Snapshot_rejected { reason = "r" } }

let test_mixed_entries_survive_wrap () =
  let fr, record = recorder ~capacity:3 in
  for i = 0 to 7 do
    record (ev i i)
  done;
  record (cold 50);
  record (ev 55 8);
  record (cold 60);
  let window = Flightrec.to_list fr in
  check Alcotest.int "window still bounded" 3 (List.length window);
  check Alcotest.bool "[cold; hot; cold] oldest first" true
    (List.map (fun (e : Flightrec.entry) -> (e.seq, e.time, e.payload)) window
    = [
        (8, 50, (cold 50).payload);
        (9, 55, Events.Decay_pass { decays = 8 });
        (10, 60, (cold 60).payload);
      ]);
  (* the slot that held the first rare event now holds a hot one *)
  record (ev 70 9);
  check Alcotest.bool "overwritten pointer slot holds the hot event" true
    (match Flightrec.to_list fr with
    | [ _; _; { seq = 11; time = 70; payload = Events.Decay_pass { decays = 9 } }
      ] ->
        true
    | _ -> false)

let test_triggers () =
  let fr = Flightrec.create ~capacity:4 in
  (* a trigger with no hook installed still counts the dump *)
  Flightrec.trigger fr Flightrec.Invariant;
  check Alcotest.int "hookless trigger counted" 1 (Flightrec.dumps fr);
  let seen = ref [] in
  Flightrec.set_on_dump fr (fun r -> seen := r :: !seen);
  Flightrec.trigger fr Flightrec.Divergence;
  Flightrec.trigger fr Flightrec.Degraded;
  check Alcotest.int "hooked triggers counted" 3 (Flightrec.dumps fr);
  check Alcotest.(list string) "hook saw each reason, in order"
    [ "chaos_divergence"; "degraded_interp_only" ]
    (List.rev_map Flightrec.reason_to_string !seen);
  (* each reason has its own wire tag *)
  let tags =
    List.map Flightrec.reason_to_string
      [
        Flightrec.Invariant;
        Flightrec.Divergence;
        Flightrec.Snapshot_rejected;
        Flightrec.Degraded;
        Flightrec.Manual;
      ]
  in
  check Alcotest.int "reason tags are distinct" 5
    (List.length (List.sort_uniq compare tags))

(* ------------------------------------------------------------------ *)
(* postmortem round trip through the codec                              *)
(* ------------------------------------------------------------------ *)

let field name = function
  | Codec.J_obj fields -> List.assoc_opt name fields
  | _ -> None

let test_postmortem_round_trip () =
  let fr, record = recorder ~capacity:8 in
  for i = 0 to 11 do
    record (ev i i)
  done;
  record
    {
      Events.time = 90;
      payload = Events.Snapshot_rejected { reason = "q \"esc\"" };
    };
  record (ev 95 12);
  let lines =
    String.split_on_char '\n'
      (String.trim
         (Codec.postmortem_jsonl
            ~reason:(Flightrec.reason_to_string Flightrec.Manual)
            fr))
  in
  check Alcotest.int "header + one line per surviving entry" 9
    (List.length lines);
  List.iteri
    (fun i line ->
      match Codec.parse line with
      | Error e -> Alcotest.failf "line %d unparseable: %s" i e
      | Ok json -> (
          check Alcotest.bool "every record schema-versioned" true
            (field "schema_version" json = Some (Codec.J_int Codec.schema_version));
          match field "rec" json with
          | Some (Codec.J_string kind) ->
              if i = 0 then begin
                check Alcotest.string "header first" "postmortem" kind;
                check Alcotest.bool "header carries the reason" true
                  (field "reason" json = Some (Codec.J_string "manual"));
                check Alcotest.bool "header counts the overflow" true
                  (field "dropped" json = Some (Codec.J_int 6))
              end
              else
                check Alcotest.string "body records tagged" "event" kind
          | _ -> Alcotest.failf "line %d has no rec tag" i))
    lines;
  (* the harness-side pretty printer accepts the same artifact *)
  match Postmortem.describe_dump (String.concat "\n" lines) with
  | Error e -> Alcotest.failf "describe_dump rejected its own dump: %s" e
  | Ok described ->
      check Alcotest.int "one description per line" 9 (List.length described)

(* ------------------------------------------------------------------ *)
(* wired through the engine                                             *)
(* ------------------------------------------------------------------ *)

(* [Postmortem.arm] does no I/O of its own: every trigger hands the
   caller's writer the dump's path and contents. *)
let test_arm_hands_dumps_to_writer () =
  let engine =
    Engine.create
      (Harness.Experiment.layout_for Workloads.Compress.workload ~size:200)
  in
  let written = ref [] in
  Postmortem.arm ~dir:"dumps"
    ~write:(fun path contents -> written := (path, contents) :: !written)
    engine;
  ignore (Engine.drive engine);
  Flightrec.trigger
    (Option.get (Engine.flightrec engine))
    Flightrec.Divergence;
  match !written with
  | [ (path, contents) ] -> (
      check Alcotest.string "one file per reason, under the dump dir"
        (Filename.concat "dumps" "flightrec_chaos_divergence.jsonl")
        path;
      match Postmortem.describe_dump contents with
      | Ok (header :: _ :: _) ->
          check Alcotest.bool "header names the reason" true
            (String.starts_with
               ~prefix:"post-mortem dump: reason=chaos_divergence" header)
      | Ok _ -> Alcotest.fail "dump holds no entries"
      | Error e -> Alcotest.failf "describe_dump rejected the dump: %s" e)
  | l -> Alcotest.failf "expected one dump, the writer saw %d" (List.length l)

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

let test_engine_arms_recorder_by_default () =
  let r = Engine.run hot_loop in
  (match Engine.flightrec r.Engine.engine with
  | None -> Alcotest.fail "default config must arm the black box"
  | Some fr ->
      check Alcotest.bool "the quiet run still recorded events" true
        (Flightrec.recorded fr > 0);
      check Alcotest.bool "retention stays bounded" true
        (List.length (Flightrec.to_list fr) <= Flightrec.capacity fr));
  let off = Config.make ~flightrec_capacity:0 () in
  let r2 = Engine.run ~config:off hot_loop in
  check Alcotest.bool "capacity 0 disarms it" true
    (Engine.flightrec r2.Engine.engine = None);
  check Alcotest.bool "the ledger keeps decisions without the recorder" true
    (Ledger.length (Option.get (Engine.ledger r2.Engine.engine)) > 0)

let test_engine_run_reconciles () =
  let events = Events.create () in
  let tally = Oracle.attach events in
  let engine = Engine.create ~events hot_loop in
  let result = Engine.drive engine in
  let checks =
    Oracle.run_checks tally ~engine result.Engine.run_stats
  in
  List.iter
    (fun (c : Oracle.check) ->
      check Alcotest.int
        (Printf.sprintf "oracle: %s" c.Oracle.name)
        c.Oracle.want c.Oracle.got)
    checks;
  match Engine.ledger engine with
  | None -> Alcotest.fail "default config must keep the ledger"
  | Some l ->
      check Alcotest.bool "ledger recorded the run's decisions" true
        (Ledger.length l > 0)

(* The recorder's routes agree.  The per-dispatch kinds reach the
   recorder as scalars whether or not anyone subscribes, and their
   payloads are built only for subscribers.  A run with a subscriber
   must therefore leave the same window, in the same order, and the
   same statistics as a run without one; and re-recording what the
   subscriber saw — payloads encoded back through [Events.ring_record] —
   must rebuild that window exactly. *)
let recorder_run config layout ~subscribe =
  let events = Events.create () in
  let seen = ref [] in
  if subscribe then
    ignore (Events.subscribe events (fun ev -> seen := ev :: !seen));
  let engine = Engine.create ~config ~events layout in
  let r = Engine.drive engine in
  let fr =
    match Engine.flightrec engine with
    | Some fr -> fr
    | None -> Alcotest.fail "recorder not armed"
  in
  let stats = Stats.copy r.Engine.run_stats in
  stats.Stats.wall_seconds <- 0.0;
  (fr, stats, List.rev !seen)

let is_hot (e : Flightrec.entry) =
  match e.payload with
  | Events.Trace_entered _ | Events.Side_exit _ | Events.Trace_completed _
  | Events.Decay_pass _ ->
      true
  | _ -> false

let test_routes_agree () =
  let layout =
    Harness.Experiment.layout_for Workloads.Mpegaudio.workload ~size:300
  in
  let wrapped = ref false and mixed = ref false in
  List.iter
    (fun (label, config) ->
      let quiet, quiet_stats, _ = recorder_run config layout ~subscribe:false in
      let loud, loud_stats, seen = recorder_run config layout ~subscribe:true in
      let window = Flightrec.to_list quiet in
      if Flightrec.dropped quiet > 0 then wrapped := true;
      if List.exists is_hot window && not (List.for_all is_hot window) then
        mixed := true;
      check Alcotest.int (label ^ ": same number recorded")
        (Flightrec.recorded quiet) (Flightrec.recorded loud);
      check Alcotest.bool (label ^ ": same window, same order") true
        (window = Flightrec.to_list loud);
      check Alcotest.bool (label ^ ": same statistics") true
        (quiet_stats = loud_stats);
      let replay, record = recorder ~capacity:(Flightrec.capacity quiet) in
      List.iter record seen;
      check Alcotest.int (label ^ ": the subscriber saw every recorded event")
        (Flightrec.recorded quiet) (Flightrec.recorded replay);
      check Alcotest.bool (label ^ ": payload route rebuilds the window") true
        (window = Flightrec.to_list replay))
    [
      ("default", Config.default);
      ("whole run", Config.make ~flightrec_capacity:(1 lsl 16) ());
      ( "faulted",
        Config.make ~self_heal:true
          ~fault_spec:"corrupt-trace@0.01,budget=12" () );
    ];
  check Alcotest.bool "some ring wrapped" true !wrapped;
  check Alcotest.bool "some window mixes hot and rare kinds" true !mixed

(* In a shared-cache session each member's ledger is a projection of
   its own stream: exactly that stream's decision-kind events, in order.
   An eviction is published on the stream of the member whose install
   caused it, so each ledger holds the evictions its member counted, and
   together they hold every eviction the cache made. *)
let test_session_ledgers_follow_streams () =
  let layout =
    Harness.Experiment.layout_for Workloads.Javacish.workload ~size:300
  in
  let config =
    Config.make ~max_cache_traces:8
      ~eviction_policy:Config.Cache.Footprint_aware ()
  in
  let session = Tracegen.Session.create () in
  let members =
    List.map
      (fun name ->
        let events = Events.create () in
        let decisions = ref [] in
        let _sub =
          Events.subscribe events (fun e ->
              if List.mem (Events.kind e.Events.payload) Ledger.kinds then
                decisions := e :: !decisions)
        in
        (Tracegen.Session.add ~name ~config ~events session layout, decisions))
      [ "owner"; "guest" ]
  in
  Tracegen.Session.run session;
  let evictions =
    List.map
      (fun (m, decisions) ->
        let name = Tracegen.Session.member_name m in
        let ledger =
          Option.get (Engine.ledger (Tracegen.Session.engine m))
        in
        let kept = Ledger.to_list ledger in
        check Alcotest.int (name ^ ": one entry per decision event")
          (List.length !decisions) (Ledger.length ledger);
        check Alcotest.bool (name ^ ": the stream's decision events, in order")
          true
          (List.for_all2 ( == ) (List.rev !decisions) kept);
        let evicted =
          List.length
            (List.filter
               (fun e ->
                 match e.Events.payload with
                 | Events.Trace_evicted _ -> true
                 | _ -> false)
               kept)
        in
        check Alcotest.int (name ^ ": the ledger holds its own evictions")
          (Tracegen.Session.stats m).Tracegen.Stats.traces_evicted evicted;
        check Alcotest.bool (name ^ ": evicted some") true (evicted > 0);
        evicted)
      members
  in
  let cache = Engine.cache (Tracegen.Session.engine (fst (List.hd members))) in
  check Alcotest.int "the ledgers hold every eviction of the cache"
    (Tracegen.Trace_cache.n_evicted cache)
    (List.fold_left ( + ) 0 evictions)

let () =
  Alcotest.run "flightrec"
    [
      ( "ring",
        [
          tc "wrap-around at capacity" `Quick test_wraparound;
          tc "capacity clamped" `Quick test_capacity_clamped;
          tc "mixed entries survive wrap" `Quick
            test_mixed_entries_survive_wrap;
          tc "dump triggers" `Quick test_triggers;
        ] );
      ( "postmortem",
        [
          tc "codec round trip" `Quick test_postmortem_round_trip;
          tc "arm hands each dump to the writer" `Quick
            test_arm_hands_dumps_to_writer;
        ] );
      ( "engine",
        [
          tc "recorder armed by default" `Quick
            test_engine_arms_recorder_by_default;
          tc "events + ledger reconcile with stats" `Quick
            test_engine_run_reconciles;
          tc "subscriber leaves the recording unchanged" `Quick
            test_routes_agree;
          tc "shared-session ledgers follow their own streams" `Quick
            test_session_ledgers_follow_streams;
        ] );
    ]
