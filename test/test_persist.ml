(* The warm-start snapshot format (Persist) and footprint-aware eviction:

   - encode/decode round trips bit-identically on every workload;
   - a freshly restored engine re-snapshots to the same bytes;
   - truncated / bit-flipped / version-bumped / wrong-layout snapshots
     are rejected with the right typed error, and rejection never
     half-loads;
   - a warm-started run is bit-identical to a cold one (the pure-overlay
     promise across process boundaries);
   - the footprint-aware policy keeps a hot-but-large trace over a
     cold-but-small one where LRU does the opposite, and the eviction
     reason variant is threaded through to the event stream. *)

module Config = Tracegen.Config
module Engine = Tracegen.Engine
module Events = Tracegen.Events
module Persist = Tracegen.Persist
module Trace_cache = Tracegen.Trace_cache
module Stats = Tracegen.Stats

(* Cache decisions made outside any engine go to a stream and counters
   nobody reads, unless a test passes its own stream. *)
let install ?(events = Events.create ()) cache ~first ~blocks ~prob =
  let tr =
    Trace_cache.install cache ~events ~counts:(Stats.zero ()) ~first ~blocks
      ~len:(Array.length blocks) ~prob
  in
  if tr == Tracegen.Trace.none then Alcotest.fail "installation refused";
  tr

let pressure_evict ?(events = Events.create ()) cache =
  Trace_cache.pressure_evict cache ~events ~counts:(Stats.zero ())

let tc = Alcotest.test_case
let check = Alcotest.check

let layout_of (w : Workloads.Workload.t) =
  Cfg.Layout.build (Workloads.Workload.build_default w)

let compress_layout =
  lazy (Cfg.Layout.build (Workloads.Compress.workload.Workloads.Workload.build ~size:500))

(* run a workload cold and return (its engine's snapshot, the layout) *)
let snapshot_of w =
  let layout = layout_of w in
  let r = Engine.run layout in
  (Engine.snapshot r.Engine.engine, layout)

(* --------------------------------------------------------------- *)
(* round trips                                                       *)
(* --------------------------------------------------------------- *)

let test_round_trip_all_workloads () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let name = w.Workloads.Workload.name in
      let data, layout = snapshot_of w in
      match Persist.decode ~layout data with
      | Error e ->
          Alcotest.failf "%s: own snapshot rejected: %s" name
            (Persist.error_to_string e)
      | Ok snap ->
          check Alcotest.string (name ^ ": encode(decode(x)) = x") data
            (Persist.encode ~layout snap))
    Workloads.Registry.all

let test_restore_resnapshot_identity () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let name = w.Workloads.Workload.name in
      let data, layout = snapshot_of w in
      let engine = Engine.create layout in
      (match Engine.restore engine data with
      | Error e ->
          Alcotest.failf "%s: restore failed: %s" name
            (Persist.error_to_string e)
      | Ok _ -> ());
      check Alcotest.string
        (name ^ ": restored engine re-snapshots identically") data
        (Engine.snapshot engine))
    Workloads.Registry.all

let test_restore_info_counts () =
  let data, layout = snapshot_of Workloads.Compress.workload in
  let events = Events.create () in
  let published = ref [] in
  let _sub =
    Events.subscribe events (fun e ->
        match e.Events.payload with
        | Events.Cache_restored { traces; _ } ->
            published := traces :: !published
        | _ -> ())
  in
  let engine = Engine.create ~events layout in
  match Engine.restore engine data with
  | Error e -> Alcotest.failf "restore failed: %s" (Persist.error_to_string e)
  | Ok info ->
      check Alcotest.int "restored traces = live traces"
        info.Engine.restored_traces
        (Trace_cache.n_live (Engine.cache engine));
      check (Alcotest.list Alcotest.int) "restored count on the stream"
        [ info.Engine.restored_traces ] !published;
      check Alcotest.bool "some traces restored" true
        (info.Engine.restored_traces > 0);
      check Alcotest.bool "some BCG nodes restored" true
        (info.Engine.restored_bcg_nodes > 0)

(* The layout stamp is cached in the layout on first use, but it is a
   digest of the program's content: a snapshot taken over one layout
   loads into a second layout built separately from the same program in
   the same process. *)
let test_same_program_other_layout () =
  let data, layout = snapshot_of Workloads.Compress.workload in
  check Alcotest.bool "the first layout's stamp is cached" true
    (layout.Cfg.Layout.fingerprint_memo <> None);
  let other = layout_of Workloads.Compress.workload in
  check Alcotest.bool "a separately built layout" true (other != layout);
  check Alcotest.bool "nothing computed before first use" true
    (other.Cfg.Layout.fingerprint_memo = None);
  let engine = Engine.create other in
  (match Engine.restore engine data with
  | Error e ->
      Alcotest.failf "rejected by an equal layout: %s"
        (Persist.error_to_string e)
  | Ok info ->
      check Alcotest.bool "traces restored" true
        (info.Engine.restored_traces > 0));
  check Alcotest.string "same stamp" (Cfg.Layout.fingerprint layout)
    (Cfg.Layout.fingerprint other);
  check Alcotest.string "re-snapshots identically over the other layout"
    data (Engine.snapshot engine)

(* The stamp digests the program's instructions and the block
   numbering: changing one instruction's operand, or numbering the same
   blocks differently, changes it.  Computing it encodes the program
   into one buffer, so a layout's first stamp allocates a few words per
   method, not a disassembly. *)
let test_stamp_covers_content () =
  let layout = layout_of Workloads.Javacish.workload in
  let stamp = Cfg.Layout.fingerprint layout in
  let program = layout.Cfg.Layout.program in
  (* the first integer constant of any method, plus one *)
  let methods = Array.map Fun.id program.Bytecode.Program.methods in
  let changed = ref false in
  Array.iteri
    (fun mi (m : Bytecode.Mthd.t) ->
      if not !changed then
        Array.iteri
          (fun pc ins ->
            match ins with
            | Bytecode.Instr.Iconst n when not !changed ->
                let code = Array.copy m.Bytecode.Mthd.code in
                code.(pc) <- Bytecode.Instr.Iconst (n + 1);
                methods.(mi) <- { m with Bytecode.Mthd.code };
                changed := true
            | _ -> ())
          m.Bytecode.Mthd.code)
    program.Bytecode.Program.methods;
  check Alcotest.bool "found a constant to change" true !changed;
  let edited =
    Cfg.Layout.build { program with Bytecode.Program.methods = methods }
  in
  check Alcotest.int "same block count" layout.Cfg.Layout.n_blocks
    edited.Cfg.Layout.n_blocks;
  check Alcotest.bool "one instruction changes the stamp" true
    (Cfg.Layout.fingerprint edited <> stamp);
  let renumbered =
    {
      layout with
      Cfg.Layout.instr_len =
        Array.of_list (List.rev (Array.to_list layout.Cfg.Layout.instr_len));
      fingerprint_memo = None;
    }
  in
  check Alcotest.bool "a different numbering" true
    (renumbered.Cfg.Layout.instr_len <> layout.Cfg.Layout.instr_len);
  check Alcotest.bool "the numbering changes the stamp" true
    (Cfg.Layout.fingerprint renumbered <> stamp);
  let fresh = layout_of Workloads.Javacish.workload in
  let w0 = Gc.minor_words () in
  let again = Cfg.Layout.fingerprint fresh in
  let words = Gc.minor_words () -. w0 in
  check Alcotest.string "a rebuilt layout has the same stamp" stamp again;
  if words >= 1000.0 then
    Alcotest.failf "first stamp of a javac layout: %.0f minor words (limit 1000)"
      words

(* --------------------------------------------------------------- *)
(* rejection                                                         *)
(* --------------------------------------------------------------- *)

let flip data i =
  let b = Bytes.of_string data in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x42));
  Bytes.to_string b

let expect name layout data pred =
  match Persist.decode ~layout data with
  | Ok _ -> Alcotest.failf "%s: decode accepted a bad snapshot" name
  | Error e ->
      check Alcotest.bool
        (name ^ ": rejected as " ^ Persist.error_to_string e)
        true (pred e)

let test_rejections () =
  let data, layout = snapshot_of Workloads.Compress.workload in
  (* shorter than the header *)
  expect "short" layout (String.sub data 0 30) (function
    | Persist.Truncated { expected = 52; got = 30 } -> true
    | _ -> false);
  (* header intact, payload cut *)
  expect "cut payload" layout (String.sub data 0 (String.length data - 7))
    (function Persist.Truncated _ -> true | _ -> false);
  (* magic damaged *)
  expect "bad magic" layout (flip data 0) (function
    | Persist.Bad_magic -> true
    | _ -> false);
  (* version bumped; the build's own version is the int32 at offset 8 *)
  expect "version bump" layout (flip data 8) (function
    | Persist.Version_mismatch { expected; got } ->
        expected = Int32.to_int (String.get_int32_le data 8) && got <> expected
    | _ -> false);
  (* payload bit flip: checksum catches it *)
  expect "payload flip" layout (flip data 60) (function
    | Persist.Checksum_mismatch -> true
    | _ -> false);
  (* trailing garbage after the declared payload *)
  expect "trailing bytes" layout (data ^ "x") (function
    | Persist.Malformed _ -> true
    | _ -> false);
  (* a snapshot of one program cannot load over another *)
  let other = layout_of Workloads.Raytrace.workload in
  expect "wrong layout" other data (function
    | Persist.Layout_mismatch _ -> true
    | _ -> false)

let test_rejection_never_half_loads () =
  let data, layout = snapshot_of Workloads.Compress.workload in
  let engine = Engine.create layout in
  (match Engine.restore engine (flip data 60) with
  | Ok _ -> Alcotest.fail "corrupted snapshot accepted"
  | Error Persist.Checksum_mismatch -> ()
  | Error e ->
      Alcotest.failf "wrong error: %s" (Persist.error_to_string e));
  check Alcotest.int "nothing installed" 0
    (Trace_cache.n_live (Engine.cache engine));
  check Alcotest.int "rejection counted" 1
    (Engine.counters engine).Stats.snapshots_rejected;
  (* the engine is still fresh, so a good snapshot loads afterwards *)
  match Engine.restore engine data with
  | Ok _ -> ()
  | Error e ->
      Alcotest.failf "good snapshot rejected after a bad one: %s"
        (Persist.error_to_string e)

let test_restore_events () =
  let data, layout = snapshot_of Workloads.Compress.workload in
  let events = Events.create () in
  let restored = ref [] in
  let rejected = ref [] in
  let _sub =
    Events.subscribe events (fun e ->
        match e.Events.payload with
        | Events.Cache_restored { traces; _ } -> restored := traces :: !restored
        | Events.Snapshot_rejected { reason } -> rejected := reason :: !rejected
        | _ -> ())
  in
  let engine = Engine.create ~events layout in
  (match Engine.restore engine (String.sub data 0 10) with
  | Ok _ -> Alcotest.fail "truncated snapshot accepted"
  | Error _ -> ());
  (match Engine.restore engine data with
  | Ok info ->
      check (Alcotest.list Alcotest.int) "cache_restored event"
        [ info.Engine.restored_traces ] !restored
  | Error e -> Alcotest.failf "restore failed: %s" (Persist.error_to_string e));
  check Alcotest.int "snapshot_rejected event" 1 (List.length !rejected)

(* --------------------------------------------------------------- *)
(* warm = cold                                                       *)
(* --------------------------------------------------------------- *)

let test_warm_equals_cold () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let name = w.Workloads.Workload.name in
      let layout = layout_of w in
      let cold = Engine.run layout in
      let data = Engine.snapshot cold.Engine.engine in
      let engine = Engine.create layout in
      (match Engine.restore engine data with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "%s: restore failed: %s" name
            (Persist.error_to_string e));
      let warm = Engine.drive engine in
      check Alcotest.bool (name ^ ": warm result = cold result") true
        (Harness.Chaos.fingerprint warm.Engine.vm_result
        = Harness.Chaos.fingerprint cold.Engine.vm_result);
      check Alcotest.int (name ^ ": same instruction count")
        cold.Engine.run_stats.Stats.instructions
        warm.Engine.run_stats.Stats.instructions)
    [ Workloads.Compress.workload; Workloads.Raytrace.workload ]

(* --------------------------------------------------------------- *)
(* footprint-aware eviction                                          *)
(* --------------------------------------------------------------- *)

(* Build the discriminating population: entry 0 holds a six-block trace
   made hot by [touches] lookups; entry 10 holds a one-block trace that
   was never dispatched.  LRU sees only recency (the small trace was
   bound last, so the big one is oldest); the footprint policy sees
   bytes per use. *)
let hot_large_cold_small ?events cache touches =
  let hot =
    install ?events cache ~first:0 ~blocks:[| 1; 2; 3; 4; 5; 6 |] ~prob:1.0
  in
  for _ = 1 to touches do
    ignore (Trace_cache.lookup cache ~prev:0 ~cur:1)
  done;
  let cold = install ?events cache ~first:10 ~blocks:[| 11 |] ~prob:1.0 in
  (hot, cold)

let survivors cache =
  let firsts = ref [] in
  Trace_cache.iter cache (fun tr -> firsts := tr.Tracegen.Trace.first :: !firsts);
  List.sort compare !firsts

let test_footprint_keeps_hot_large () =
  let layout = Lazy.force compress_layout in
  let cache =
    Trace_cache.create ~eviction_policy:Config.Cache.Footprint_aware layout
  in
  let hot, cold = hot_large_cold_small cache 100 in
  (* the premise the policy decides on: the cold trace costs more bytes
     per use even though it is smaller *)
  let bytes tr = Tracegen.Footprint_model.trace_bytes tr in
  check Alcotest.bool "cold trace scores worse" true
    (float_of_int (bytes cold) /. 2.0
    > float_of_int (bytes hot) /. float_of_int (100 + 2));
  check Alcotest.int "one eviction" 1 (pressure_evict cache ~down_to:1);
  check (Alcotest.list Alcotest.int) "hot-but-large survives" [ 0 ]
    (survivors cache)

let test_lru_keeps_recent () =
  let layout = Lazy.force compress_layout in
  let cache = Trace_cache.create ~eviction_policy:Config.Cache.Lru layout in
  let _ = hot_large_cold_small cache 100 in
  check Alcotest.int "one eviction" 1 (pressure_evict cache ~down_to:1);
  (* same population, opposite verdict: the cold-but-small trace was
     bound most recently, so LRU condemns the hot one *)
  check (Alcotest.list Alcotest.int) "most-recent survives" [ 10 ]
    (survivors cache)

let test_eviction_reasons () =
  let layout = Lazy.force compress_layout in
  let reasons policy pressure =
    let events = Events.create () in
    let seen = ref [] in
    let _sub =
      Events.subscribe events (fun e ->
          match e.Events.payload with
          | Events.Trace_evicted { reason; _ } -> seen := reason :: !seen
          | _ -> ())
    in
    let cache =
      Trace_cache.create ~eviction_policy:policy
        ~max_traces:(if pressure then 0 else 2)
        layout
    in
    let _ = hot_large_cold_small ~events cache 3 in
    if pressure then ignore (pressure_evict ~events cache ~down_to:1)
    else
      (* a third install overflows max_traces = 2 *)
      ignore (install ~events cache ~first:20 ~blocks:[| 21 |] ~prob:1.0);
    List.rev !seen
  in
  let pp = Events.evict_reason_to_string in
  let reason = Alcotest.testable (Fmt.of_to_string pp) ( = ) in
  check (Alcotest.list reason) "pressure under LRU is Pressure"
    [ Events.Pressure ]
    (reasons Config.Cache.Lru true);
  check (Alcotest.list reason) "pressure under footprint is Footprint"
    [ Events.Footprint ]
    (reasons Config.Cache.Footprint_aware true);
  check (Alcotest.list reason) "cap overflow is Capacity either way"
    [ Events.Capacity ]
    (reasons Config.Cache.Footprint_aware false)

let test_restored_heat_counts () =
  let layout = Lazy.force compress_layout in
  let cache =
    Trace_cache.create ~eviction_policy:Config.Cache.Footprint_aware layout
  in
  let _ = hot_large_cold_small cache 100 in
  let snaps = Trace_cache.snapshot cache in
  (* restore into a fresh footprint-aware cache: the preserved heat must
     still protect the hot trace from pressure eviction *)
  let fresh =
    Trace_cache.create ~eviction_policy:Config.Cache.Footprint_aware layout
  in
  check Alcotest.int "both entries restored" 2
    (Trace_cache.restore fresh ~events:(Events.create ())
       ~counts:(Stats.zero ()) snaps);
  ignore (pressure_evict fresh ~down_to:1);
  check (Alcotest.list Alcotest.int) "hot trace survives after restore" [ 0 ]
    (survivors fresh)

(* The compiled tier is derived state: snapshots never store a lowered
   body, yet a restored cache must converge on the same compiled set —
   promotion keys on the persisted heat (snap_heat), so restore-time
   recompilation re-derives exactly the traces the original run held
   compiled. *)
let test_restored_tier_rederived () =
  let layout = Lazy.force compress_layout in
  let config =
    Tracegen.Config.make ~tier:true ~tier_compile_after:4 ()
  in
  let r = Engine.run ~config layout in
  let engine = r.Engine.engine in
  let compiled_set eng =
    let acc = ref [] in
    Trace_cache.iter (Engine.cache eng) (fun tr ->
        if tr.Tracegen.Trace.lowered <> None then
          acc := Tracegen.Trace.entry_key tr :: !acc);
    List.sort compare !acc
  in
  let original = compiled_set engine in
  check Alcotest.bool "the tiered run compiled some traces" true
    (original <> []);
  let data = Engine.snapshot engine in
  let fresh = Engine.create ~config layout in
  (match Engine.restore fresh data with
  | Error e -> Alcotest.failf "restore failed: %s" (Persist.error_to_string e)
  | Ok info ->
      check Alcotest.int "every compiled trace was re-derived"
        (List.length original) info.Engine.recompiled_traces);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "restored cache re-compiles the same tier set" original
    (compiled_set fresh);
  (* and the bodies are the same lowered code: TL220 holds over the
     restored cache *)
  Trace_cache.iter (Engine.cache fresh) (fun tr ->
      match Tracegen.Tier.check_lowered layout tr with
      | [] -> ()
      | d :: _ ->
          Alcotest.failf "restored trace %d failed TL220: %s"
            tr.Tracegen.Trace.id
            (Analysis.Diag.to_string d));
  (* a tier-off restore of the same snapshot stays fully interpreted *)
  let cold = Engine.create layout in
  (match Engine.restore cold data with
  | Error e -> Alcotest.failf "restore failed: %s" (Persist.error_to_string e)
  | Ok info ->
      check Alcotest.int "tier off: nothing recompiled" 0
        info.Engine.recompiled_traces);
  check Alcotest.int "tier off: cache fully interpreted" 0
    (Trace_cache.n_compiled (Engine.cache cold))

let () =
  Alcotest.run "persist"
    [
      ( "round-trip",
        [
          tc "bit-identical on every workload" `Quick
            test_round_trip_all_workloads;
          tc "restore re-snapshots identically" `Quick
            test_restore_resnapshot_identity;
          tc "restore info counts" `Quick test_restore_info_counts;
          tc "loads into a separately built equal layout" `Quick
            test_same_program_other_layout;
        ] );
      ( "rejection",
        [
          tc "the stamp covers the content" `Quick test_stamp_covers_content;
          tc "typed errors" `Quick test_rejections;
          tc "never half-loads" `Quick test_rejection_never_half_loads;
          tc "events" `Quick test_restore_events;
        ] );
      ("warm-start", [ tc "warm = cold" `Quick test_warm_equals_cold ]);
      ( "tier",
        [
          tc "restored cache re-derives the compiled set" `Quick
            test_restored_tier_rederived;
        ] );
      ( "eviction",
        [
          tc "footprint keeps hot-but-large" `Quick
            test_footprint_keeps_hot_large;
          tc "lru keeps most-recent" `Quick test_lru_keeps_recent;
          tc "reason variant reaches the timeline" `Quick
            test_eviction_reasons;
          tc "restored heat still counts" `Quick test_restored_heat_counts;
        ] );
    ]
