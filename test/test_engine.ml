(* The full system: semantic transparency, dispatch accounting, trace
   entry/completion bookkeeping, adaptation to phase changes. *)

open Workloads.Dsl
module S = Bytecode.Structured
module Engine = Tracegen.Engine
module Config = Tracegen.Config
module Stats = Tracegen.Stats
module Layout = Cfg.Layout

let tc = Alcotest.test_case
let check = Alcotest.check

let layout_of ?(defs = fun (_ : S.t) -> ()) body =
  let p = S.create () in
  defs p;
  S.def_method p ~name:"main" ~args:[] ~ret:S.I ~body ();
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  Layout.build program

let hot_loop_body =
  [
    decl_i "s" (i 0);
    for_ "k" (i 0) (i 20_000)
      [ set "s" ((v "s" +! v "k") &! i 0xFFFFF) ];
    ret (v "s");
  ]

let test_transparency () =
  (* the engine must not change program results *)
  let layout = layout_of hot_loop_body in
  let plain = Vm.Interp.result_value (Vm.Interp.run_plain layout) in
  let traced = Engine.run layout in
  let traced_value =
    Vm.Interp.result_value traced.Engine.vm_result
  in
  check Alcotest.bool "same result with and without the engine" true
    (plain = traced_value);
  (* and the instruction count is identical: traces are an overlay *)
  let plain_r = Vm.Interp.run_plain layout in
  check Alcotest.int "same instruction count"
    plain_r.Vm.Interp.instructions
    traced.Engine.vm_result.Vm.Interp.instructions

let test_hot_loop_gets_traced () =
  let layout = layout_of hot_loop_body in
  let r = Engine.run layout in
  let s = r.Engine.run_stats in
  check Alcotest.bool "traces were constructed" true
    (s.Stats.traces_constructed > 0);
  check Alcotest.bool "traces were entered" true (s.Stats.traces_entered > 0);
  check Alcotest.bool "high completion rate" true
    (Stats.completion_rate s > 0.95);
  check Alcotest.bool "good coverage on a hot loop" true
    (Stats.coverage_completed s > 0.5);
  (* under trace dispatch, total dispatches shrink well below the
     block-dispatch count of an untraced run *)
  let plain = Vm.Interp.run_plain layout in
  check Alcotest.bool "dispatch reduction" true
    (Stats.total_dispatches s < plain.Vm.Interp.block_dispatches)

let test_profile_only_mode () =
  let layout = layout_of hot_loop_body in
  let config = Config.make ~build_traces:false () in
  let r = Engine.run ~config layout in
  let s = r.Engine.run_stats in
  check Alcotest.int "no traces in profile-only mode" 0
    s.Stats.traces_constructed;
  check Alcotest.int "no trace dispatches" 0 s.Stats.traces_entered;
  check Alcotest.bool "profiling still happened" true (s.Stats.bcg_nodes > 0);
  (* every block dispatch executed the hook *)
  let plain = Vm.Interp.run_plain layout in
  check Alcotest.int "hook on every dispatch"
    plain.Vm.Interp.block_dispatches s.Stats.block_dispatches

let test_coverage_bounds () =
  let layout = layout_of hot_loop_body in
  let s = (Engine.run layout).Engine.run_stats in
  check Alcotest.bool "completed coverage within [0,1]" true
    (Stats.coverage_completed s >= 0.0 && Stats.coverage_completed s <= 1.0);
  check Alcotest.bool "total coverage within [0,1]" true
    (Stats.coverage_total s >= 0.0 && Stats.coverage_total s <= 1.0);
  check Alcotest.bool "total >= completed" true
    (Stats.coverage_total s >= Stats.coverage_completed s)

let test_accounting_identity () =
  (* every executed instruction is either outside traces, or attributed to
     a completed or partial trace: block dispatches carry their block's
     instructions, traces carry theirs *)
  let layout = layout_of hot_loop_body in
  let events = Tracegen.Events.create () in
  let tally = Harness.Oracle.attach events in
  let r = Engine.run ~events layout in
  let s = r.Engine.run_stats in
  let engine = r.Engine.engine in
  let traced = s.Stats.completed_instrs + s.Stats.partial_instrs in
  check Alcotest.bool "traced instructions do not exceed the total" true
    (traced <= s.Stats.instructions);
  check Alcotest.int "entered = completed + partial exits + in flight"
    s.Stats.traces_entered
    (s.Stats.traces_completed
    + List.fold_left
        (fun acc row -> acc + Harness.Oracle.side_exits row)
        0 (Harness.Oracle.traces tally)
    + (match Engine.active_trace engine with Some _ -> 1 | None -> 0))

let test_phase_change_adapts () =
  (* two phases: the same loop skeleton branches differently in each half;
     the cache must follow (replacements or new traces in phase 2) *)
  let body =
    [
      decl_i "s" (i 0);
      for_ "k" (i 0) (i 40_000)
        [
          if_
            (v "k" <! i 20_000)
            [ set "s" ((v "s" +! v "k") &! i 0xFFFFF) ]
            [ set "s" ((v "s" *! i 3 +! i 1) &! i 0xFFFFF) ];
        ];
      ret (v "s");
    ]
  in
  let layout = layout_of body in
  let r = Engine.run layout in
  let s = r.Engine.run_stats in
  check Alcotest.bool "phase change produced signals" true (s.Stats.signals > 1);
  check Alcotest.bool "still good total coverage across phases" true
    (Stats.coverage_total s > 0.5);
  check Alcotest.bool "completion stays high after adaptation" true
    (Stats.completion_rate s > 0.8)

let test_partial_exits_on_noise () =
  (* an unpredictable branch inside the hot loop forces side exits *)
  let defs p = Workloads.Dsl.define_prelude p in
  let body =
    [
      decl "st" (S.Arr S.I) (new_arr S.I (i 1));
      seti (v "st") (i 0) (i 42);
      decl_i "s" (i 0);
      for_ "k" (i 0) (i 8_000)
        [
          if_
            (call "rng_range" [ v "st"; i 2 ] =! i 0)
            [ set "s" (v "s" +! i 1) ]
            [ set "s" (v "s" +! i 2) ];
        ];
      ret (v "s");
    ]
  in
  let layout = layout_of ~defs body in
  let r = Engine.run layout in
  let s = r.Engine.run_stats in
  (* with a 50/50 branch the engine either avoids traces there (fine) or
     pays partial exits; either way transparency and bounds must hold *)
  check Alcotest.bool "bounded coverage" true (Stats.coverage_total s <= 1.0);
  check Alcotest.bool "completion rate sane" true
    (Stats.completion_rate s >= 0.0 && Stats.completion_rate s <= 1.0)

let test_dispatch_per_signal_metric () =
  let layout = layout_of hot_loop_body in
  let s = (Engine.run layout).Engine.run_stats in
  if s.Stats.signals > 0 then
    check Alcotest.bool "dispatches per signal positive" true
      (Stats.dispatches_per_signal s > 0.0);
  check Alcotest.bool "trace event interval positive" true
    (Stats.trace_event_interval s > 0.0)

let test_deterministic_stats () =
  let layout = layout_of hot_loop_body in
  let a = (Engine.run layout).Engine.run_stats in
  let b = (Engine.run layout).Engine.run_stats in
  check Alcotest.int "same signals" a.Stats.signals b.Stats.signals;
  check Alcotest.int "same traces" a.Stats.traces_constructed
    b.Stats.traces_constructed;
  check Alcotest.int "same completions" a.Stats.traces_completed
    b.Stats.traces_completed

(* Every out-of-range threshold is refused at construction, NaN too: it
   fails every comparison, so a range test written as "reject when
   outside" would let it through. *)
let test_threshold_validated () =
  List.iter
    (fun threshold ->
      match Config.make ~threshold () with
      | _ -> Alcotest.failf "threshold %g accepted" threshold
      | exception Invalid_argument _ -> ())
    [ Float.nan; 0.0; -0.5; 1.5; Float.infinity ];
  check (Alcotest.float 0.0) "1.0 accepted" 1.0
    (Config.threshold (Config.make ~threshold:1.0 ()))

(* The engine folds [guards_checked], [partial_instrs] and, for a trace
   entered on the compiled tier, the [mi_*] counters in when a trace
   ends.  Read between any two [on_block] calls, mid-trace included,
   they must equal counting position by position: one guard per block
   observed while a trace is active; per side exit the instructions of
   every position matched, each read from the live trace when it
   matched; and per position matched of a trace entered compiled, the
   micro-ops, superinstructions and source instructions its lowered body
   has there.  FT002 skews the instruction counts, scheduled FT008 flips
   fail guards at pseudo-random positions, a trace whose head is corrupted as
   it is entered is condemned by the sweep before its first guard, and
   in a shared cache one member compiles traces another is following on
   the interpreted tier. *)
module Events = Tracegen.Events
module Microir = Tracegen.Microir
module Trace = Tracegen.Trace
module Trace_cache = Tracegen.Trace_cache

type seen =
  | Entered of int * Microir.body option
      (* its first block's instructions, and the body it was entered
         with: [Some] on the compiled tier *)
  | Exited of int

type observer = {
  on_block : Layout.gid -> unit;
  entered_compiled : unit -> bool;
      (* the active trace, if any, was entered on the compiled tier *)
  summary : unit -> int * int * int * int * int;
      (* exits, flips, skews, condemned, compiled positions *)
}

let counting_observer ~label ~corrupt_entries e events =
  let seen = ref [] and skews = ref 0 and condemned = ref 0 in
  let entries = ref 0 and flips = ref 0 in
  let _sub =
    Events.subscribe events (fun ev ->
        match ev.Events.payload with
        | Events.Side_exit { matched_instrs; _ } ->
            seen := Exited matched_instrs :: !seen
        | Events.Trace_entered { trace_id; _ } ->
            incr entries;
            Trace_cache.iter (Engine.cache e) (fun tr ->
                if tr.Trace.id = trace_id then begin
                  seen :=
                    Entered (tr.Trace.instr_len.(0), tr.Trace.lowered) :: !seen;
                  if corrupt_entries && !entries mod 5 = 0 then
                    tr.Trace.blocks.(0) <- -1 - tr.Trace.blocks.(0)
                end)
        | Events.Fault_injected { code = "FT002"; _ } -> incr skews
        | Events.Fault_injected { code = "FT008"; _ } -> incr flips
        | Events.Deopt_entered { reason = "condemned"; _ } -> incr condemned
        | _ -> ())
  in
  let guards = ref 0 and matched = ref 0 and partial = ref 0 in
  let n = ref 0 and exits = ref 0 in
  (* the active trace's lowered body as entered, and the [mi_*] counters
     position by position: positions, ops, fused, source instructions *)
  let body = ref None and mi = Array.make 4 0 in
  let account pos =
    match !body with
    | None -> ()
    | Some (b : Microir.body) ->
        mi.(0) <- mi.(0) + 1;
        mi.(1) <- mi.(1) + b.Microir.pos_ops.(pos);
        mi.(2) <- mi.(2) + b.Microir.pos_fused.(pos);
        mi.(3) <- mi.(3) + b.Microir.pos_src.(pos)
  in
  let on_block g =
    incr n;
    let before = Engine.active_trace e in
    let pos = Engine.inflight_matched_blocks e in
    seen := [];
    Engine.on_block e g;
    let seen = List.rev !seen in
    (match before with
    | Some tr -> (
        incr guards;
        (* the guard at [pos] held unless the trace left right there *)
        match seen with
        | Exited _ :: _ -> ()
        | _ ->
            matched := !matched + tr.Trace.instr_len.(pos);
            account pos)
    | None -> ());
    List.iter
      (function
        | Entered (len0, lowered) ->
            matched := len0;
            body := lowered;
            account 0
        | Exited mi ->
            incr exits;
            if mi <> !matched then
              Alcotest.failf "%s: block %d: side exit matched %d, per position %d"
                label !n mi !matched;
            partial := !partial + mi)
      seen;
    let s = Engine.counters e in
    if s.Stats.guards_checked <> !guards then
      Alcotest.failf "%s: block %d: guards_checked %d, per position %d" label
        !n s.Stats.guards_checked !guards;
    if s.Stats.partial_instrs <> !partial then
      Alcotest.failf "%s: block %d: partial_instrs %d, per position %d" label !n
        s.Stats.partial_instrs !partial;
    List.iteri
      (fun i (name, got) ->
        if got <> mi.(i) then
          Alcotest.failf "%s: block %d: %s %d, per position %d" label !n name
            got mi.(i))
      [
        ("mi_positions", s.Stats.mi_positions);
        ("mi_ops", s.Stats.mi_ops);
        ("mi_fused", s.Stats.mi_fused);
        ("mi_src_instrs", s.Stats.mi_src_instrs);
      ]
  in
  {
    on_block;
    entered_compiled =
      (fun () -> Engine.active_trace e <> None && !body <> None);
    summary = (fun () -> (!exits, !flips, !skews, !condemned, mi.(0)));
  }

let compress_layout () =
  Layout.build (Workloads.Compress.workload.Workloads.Workload.build ~size:800)

let test_counters_between_blocks () =
  let layout = compress_layout () in
  List.iter
    (fun (label, corrupt_entries, config) ->
      let events = Events.create () in
      let e = Engine.create ~config ~events layout in
      let obs = counting_observer ~label ~corrupt_entries e events in
      let h = Vm.Interp.start layout ~on_block:obs.on_block in
      Engine.attach e h;
      ignore (Vm.Interp.finish h);
      let exits, flips, skews, condemned, compiled = obs.summary () in
      check Alcotest.bool
        (Printf.sprintf
           "%s: covered (%d exits, %d flips, %d skews, %d condemned, %d \
            compiled positions)"
           label exits flips skews condemned compiled)
        true
        (exits > 10 && flips > 10 && compiled > 0
        && (skews > 0 || corrupt_entries)
        && (condemned > 0 || not corrupt_entries)))
    [
      ( "side exits",
        false,
        Config.make ~tier:true ~tier_compile_after:4
          ~fault_spec:"corrupt-instrs@0.01,guard-flip@0.02,budget=80" () );
      ( "osr",
        false,
        Config.make ~osr:true ~tier:true ~tier_compile_after:4
          ~fault_spec:"corrupt-instrs@0.01,guard-flip@0.02,budget=80" () );
      ( "condemned",
        true,
        Config.make ~osr:true ~self_heal:true ~debug_checks:true
          ~decay_period:4 ~tier:true ~tier_compile_after:4
          ~fault_spec:"guard-flip@0.02,budget=40" () );
    ]

(* Two engines over one cache, stepped a few blocks at a time: each
   compiles traces the other may be following.  A trace compiled while
   the other member follows it on the interpreted tier must not be
   accounted to that member's exit. *)
let test_counters_shared_compile () =
  let layout = compress_layout () in
  let config =
    Config.make ~tier:true ~tier_compile_after:3 ~tier_compile_budget:4 ()
  in
  let member label ?cache () =
    let events = Events.create () in
    let e = Engine.create ~config ~events ?cache layout in
    let obs = counting_observer ~label ~corrupt_entries:false e events in
    let h = Vm.Interp.start layout ~on_block:obs.on_block in
    Engine.attach e h;
    (e, events, obs, h)
  in
  let ea, eva, obsa, ha = member "member a" () in
  let eb, evb, obsb, hb = member "member b" ~cache:(Engine.cache ea) () in
  (* compilations by one member of the trace the other is following on
     the interpreted tier *)
  let under_other = ref 0 in
  let watch events other other_obs =
    Events.subscribe events (fun ev ->
        match ev.Events.payload with
        | Events.Trace_compiled { trace_id; _ } -> (
            match Engine.active_trace other with
            | Some tr
              when tr.Trace.id = trace_id && not (other_obs.entered_compiled ())
              ->
                incr under_other
            | _ -> ())
        | _ -> ())
  in
  let _wa = watch eva eb obsb and _wb = watch evb ea obsa in
  let batch = ref 1 in
  while Vm.Interp.running ha || Vm.Interp.running hb do
    ignore (Vm.Interp.step_blocks ha !batch);
    ignore (Vm.Interp.step_blocks hb (1 + (!batch mod 4)));
    batch := 1 + ((!batch * 7) mod 5)
  done;
  let ra = Vm.Interp.finish ha and rb = Vm.Interp.finish hb in
  check Alcotest.int "same instructions" ra.Vm.Interp.instructions
    rb.Vm.Interp.instructions;
  let _, _, _, _, ca = obsa.summary () and _, _, _, _, cb = obsb.summary () in
  check Alcotest.bool
    (Printf.sprintf
       "covered (%d compiled under the other member, %d + %d compiled \
        positions)"
       !under_other ca cb)
    true
    (!under_other > 0 && ca > 0 && cb > 0)

(* Pinned decision streams on the cache write path.  A churn-shaped
   case (javac, soot and mpegaudio, two Session members each over an
   8-trace footprint-aware cache, then a warm restart of each from its
   first member's snapshot) and the loops and calls programs run solo
   must keep, engine by engine, the exact stream of events they emit:
   every construction with its probability's bits, every reuse,
   replacement and eviction with its victim, reason, footprint and
   heat.  Sizes are perfbench's base sizes for those workloads.  The
   digest is an FNV-style fold of each event's Codec JSON, plus the
   probability bits JSON rounds, kept to 30 bits. *)
module Session = Tracegen.Session

let fold_string d s =
  let d = ref d in
  String.iter
    (fun c -> d := ((!d lxor Char.code c) * 16777619) land 0x3FFF_FFFF)
    s;
  !d

let digest_of events =
  let d = ref 0 and n = ref 0 in
  ignore
    (Events.subscribe events (fun e ->
         incr n;
         d :=
           fold_string !d
             (Harness.Codec.to_string (Harness.Codec.event_json e));
         match e.Events.payload with
         | Events.Trace_constructed { prob; _ } ->
             d := fold_string !d (Int64.to_string (Int64.bits_of_float prob))
         | _ -> ()));
  (d, n)

let pinned_layout name frac =
  let w = Option.get (Workloads.Registry.find name) in
  let size =
    max 1 (int_of_float (Float.round (float_of_int w.bench_size *. frac)))
  in
  Layout.build (w.build ~size)

(* (engine, event digest, events) for the churn case, in member order
   and then restart order. *)
let churn_streams () =
  let config =
    Config.make ~max_cache_traces:8
      ~eviction_policy:Config.Cache.Footprint_aware ()
  in
  let progs =
    List.map
      (fun n -> (n, pinned_layout n 0.015))
      [ "javac"; "soot"; "mpegaudio" ]
  in
  let s = Session.create () in
  let members =
    List.map
      (fun (n, layout) ->
        let events = Events.create () in
        let d = digest_of events in
        (n, d, Session.add ~name:n ~config ~events s layout))
      (progs @ progs)
  in
  Session.run s;
  let warm =
    List.map
      (fun (n, layout) ->
        let _, _, first =
          List.find (fun (n', _, _) -> n' = n) members
        in
        let snap = Engine.snapshot (Session.engine first) in
        let events = Events.create () in
        let d = digest_of events in
        let e = Engine.create ~config ~events layout in
        (match Engine.restore e snap with
        | Ok _ -> ()
        | Error _ -> Alcotest.failf "%s: restore rejected" n);
        ignore (Engine.drive e);
        ("warm " ^ n, d))
      progs
  in
  List.map (fun (n, (d, k), _) -> (n, !d, !k)) members
  @ List.map (fun (n, (d, k)) -> (n, !d, !k)) warm

(* (label, digest, events) of each program run solo under [config],
   which installs the paper's path or not as [paper] says. *)
let streams ?(label = "") ~paper config programs =
  List.map
    (fun (n, frac) ->
      let events = Events.create () in
      let d, k = digest_of events in
      let e = Engine.create ~config ~events (pinned_layout n frac) in
      check Alcotest.bool (label ^ n ^ ": paper path") paper
        (Engine.paper_path e);
      ignore (Engine.drive e);
      (label ^ n, !d, !k))
    programs

let solo_streams () =
  streams ~paper:true Config.default
    [
      ("compress", 0.05);
      ("scimark", 0.05);
      ("mpegaudio", 0.1);
      ("soot", 0.1);
      ("raytrace", 0.1);
    ]

(* The general path under its optional subsystems, which the paper-path
   lockstep does not reach: OSR deopts forced by guard flips, and
   self-healing with the sweep against skewed per-block counts. *)
let general_streams () =
  let programs = [ ("compress", 0.05); ("mpegaudio", 0.1); ("soot", 0.1) ] in
  streams ~label:"osr " ~paper:false
    (Config.make ~osr:true ~fault_spec:"guard-flip@0.02,budget=40" ())
    programs
  @ streams ~label:"self-heal " ~paper:false
      (Config.make ~self_heal:true ~debug_checks:true
         ~fault_spec:"corrupt-instrs@0.01,budget=80" ())
      programs

let stream_t = Alcotest.(list (triple string int int))

(* (engine, digest, events) *)
let pinned_churn =
  [
    ("javac", 426344832, 9443);
    ("soot", 591128862, 25841);
    ("mpegaudio", 164164681, 6462);
    ("javac", 159583855, 9622);
    ("soot", 944909525, 26515);
    ("mpegaudio", 512595154, 6703);
    ("warm javac", 516226425, 9460);
    ("warm soot", 820235849, 26177);
    ("warm mpegaudio", 75360658, 7147);
  ]

let pinned_solo =
  [
    ("compress", 783126294, 83391);
    ("scimark", 371734530, 112982);
    ("mpegaudio", 577848248, 126911);
    ("soot", 245148512, 205263);
    ("raytrace", 10884524, 7314);
  ]

let pinned_general =
  [
    ("osr compress", 840022334, 83532);
    ("osr mpegaudio", 221289055, 132314);
    ("osr soot", 972062456, 178989);
    ("self-heal compress", 792045629, 1681);
    ("self-heal mpegaudio", 193193775, 1036);
    ("self-heal soot", 553744136, 2683);
  ]

let test_pinned_churn () =
  let got = churn_streams () in
  check stream_t "churn decision streams" pinned_churn got

let test_pinned_solo () =
  let got = solo_streams () in
  check stream_t "solo decision streams" pinned_solo got

let test_pinned_general () =
  let got = general_streams () in
  check stream_t "general-path decision streams" pinned_general got

(* Lockstep: the paper's dispatch path against the general one.  The
   default configuration installs the paper's path; the same run with
   [debug_checks] on takes the general path, whose sweep finds nothing
   in a clean run.  Both must leave the same record, byte for byte:
   every Stats counter, the JSONL event stream, the decision ledger and
   the flight-recorder window. *)
module Flightrec = Tracegen.Flightrec
module Ledger = Tracegen.Ledger
module Codec = Harness.Codec

type record = {
  path : bool; (* the engine installed the paper's path *)
  stream : Buffer.t; (* every event, one JSONL line each *)
  engine : Engine.t;
}

(* A stream that keeps every event as a JSONL line. *)
let recording () =
  let events = Events.create () and stream = Buffer.create 4096 in
  ignore
    (Events.subscribe events (fun e ->
         Buffer.add_string stream (Codec.to_string (Codec.event_json e));
         Buffer.add_char stream '\n'));
  (events, stream)

let record_of stream e = { path = Engine.paper_path e; stream; engine = e }

(* A finished run's record as lines: its counters, then its stream,
   ledger and recorder window. *)
let lines r ~(vm_result : Vm.Interp.result) =
  let s = Engine.stats r.engine ~vm_result ~wall_seconds:0.0 in
  let json e = Codec.to_string (Codec.event_json e) in
  List.map (fun (n, get) -> Printf.sprintf "%s %d" n (get s)) Stats.counters
  @ [ Buffer.contents r.stream ]
  @ List.map json
      (Option.fold ~none:[] ~some:Ledger.to_list (Engine.ledger r.engine))
  @ List.map
      (fun en -> Codec.to_string (Codec.flightrec_entry_json en))
      (Option.fold ~none:[] ~some:Flightrec.to_list (Engine.flightrec r.engine))

let check_lockstep label (paper, vm_paper) (gen, vm_gen) =
  check Alcotest.bool (label ^ ": paper path installed") true paper.path;
  check Alcotest.bool (label ^ ": general path installed") false gen.path;
  check
    Alcotest.(list string)
    (label ^ ": same record")
    (lines gen ~vm_result:vm_gen)
    (lines paper ~vm_result:vm_paper)

(* [config debug_checks]: a configuration, and the same with the sweep
   armed *)
let lockstep_solo label config layout =
  let run debug_checks =
    let events, stream = recording () in
    let e = Engine.create ~config:(config debug_checks) ~events layout in
    let r = Engine.drive ~max_instructions:2_000_000 e in
    (record_of stream e, r.Engine.vm_result)
  in
  check_lockstep label (run false) (run true)

let default debug_checks = Config.make ~debug_checks ()

let test_lockstep_workloads () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      lockstep_solo w.name default
        (Layout.build (Workloads.Workload.build_default w)))
    Workloads.Registry.all

let test_lockstep_profile () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      lockstep_solo (w.name ^ " profile")
        (fun debug_checks -> Config.make ~debug_checks ~build_traces:false ())
        (Layout.build (Workloads.Workload.build_default w)))
    Workloads.Registry.all

let test_lockstep_random () =
  let programs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 41 |]) ~n:40
      (QCheck.gen Random_program.arb_program)
  in
  List.iteri
    (fun i program ->
      lockstep_solo (Printf.sprintf "random program %d" i) default
        (Layout.build program))
    programs

(* Two Session members over one 8-trace cache, in turns of 7 blocks:
   one member's installs evict traces while the other is inside a
   trace. *)
let test_lockstep_session () =
  let layout = pinned_layout "javac" 0.015 in
  let members debug_checks =
    let config = Config.make ~debug_checks ~max_cache_traces:8 () in
    let s = Session.create ~batch:7 () in
    (* evictions by one member while the other follows a trace *)
    let engines = Array.make 2 None and mid_trace = ref 0 in
    let ms =
      List.mapi
        (fun i name ->
          let events, stream = recording () in
          Events.subscribe events (fun ev ->
              match (ev.Events.payload, engines.(1 - i)) with
              | Events.Trace_evicted _, Some e
                when Engine.active_trace e <> None ->
                  incr mid_trace
              | _ -> ());
          let m = Session.add ~name ~config ~events s layout in
          engines.(i) <- Some (Session.engine m);
          (stream, m))
        [ "a"; "b" ]
    in
    Session.run s;
    ( List.map
        (fun (stream, m) ->
          (record_of stream (Session.engine m), Session.vm_result m))
        ms,
      !mid_trace )
  in
  let paper, mid_trace = members false and gen, _ = members true in
  List.iteri
    (fun i (p, g) -> check_lockstep (Printf.sprintf "member %d" i) p g)
    (List.combine paper gen);
  check Alcotest.bool "evictions while the other member is mid-trace" true
    (mid_trace > 0)

let () =
  Alcotest.run "engine"
    [
      ( "transparency",
        [
          tc "results unchanged" `Quick test_transparency;
          tc "profile-only mode" `Quick test_profile_only_mode;
          tc "deterministic" `Quick test_deterministic_stats;
        ] );
      ( "tracing",
        [
          tc "hot loop traced" `Quick test_hot_loop_gets_traced;
          tc "coverage bounds" `Quick test_coverage_bounds;
          tc "accounting identity" `Quick test_accounting_identity;
          tc "phase change" `Quick test_phase_change_adapts;
          tc "noisy branch" `Quick test_partial_exits_on_noise;
          tc "signal metrics" `Quick test_dispatch_per_signal_metric;
          tc "counters between blocks" `Quick test_counters_between_blocks;
          tc "counters under a shared compile" `Quick
            test_counters_shared_compile;
        ] );
      ("config", [ tc "threshold validated" `Quick test_threshold_validated ]);
      ( "pinned decisions",
        [
          tc "churn" `Quick test_pinned_churn;
          tc "loops and calls" `Quick test_pinned_solo;
          tc "general path" `Quick test_pinned_general;
        ] );
      ( "paper path",
        [
          tc "lockstep workloads" `Quick test_lockstep_workloads;
          tc "lockstep profile kind" `Quick test_lockstep_profile;
          tc "lockstep random programs" `Quick test_lockstep_random;
          tc "lockstep session" `Quick test_lockstep_session;
        ] );
    ]
