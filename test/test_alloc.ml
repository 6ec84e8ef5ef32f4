(* The dispatch path allocates nothing in steady state, and the
   interpreter allocates nothing straight into the major heap.

   Under the default configuration (flight recorder armed, decision
   ledger on, no subscriber) and each of the profile and trace
   backends, and the trace backend again with the compiled micro-IR
   tier armed, the minor words an engine run allocates
   beyond the plain interpreter's, divided by the run's block
   dispatches, must stay under one word: the profiler hook, the cache
   probe, trace entry/exit and the recorder's intake are all
   allocation-free, so what remains is one-off setup and the growth of
   the BCG and trace cache, amortised over the run.

   Lowering a trace to micro-IR is one-off setup too, but a large one
   (tens of thousands of words per trace, more than a short run's whole
   dispatch path), so the tier row also leaves out the words lowering
   costs: every trace still compiled at the end of the run is lowered
   again, over a fresh layout whose analysis facts are not yet computed,
   and its words subtracted.  Traces compiled and then demoted or
   evicted are not re-lowered, so the estimate errs low and the gate
   stays strict.

   The plain interpreter itself must not allocate directly into the
   major heap per dispatch: a block larger than the minor heap's
   256-word limit bypasses the minor heap, so a per-call allocation of
   that size (a fixed-size operand stack, say) never shows in the minor
   words above.  Direct major words are the major words that were not
   promoted out of the minor heap.

   The interpreter keeps ints and floats unboxed on its operand stack,
   a frame's locals in its window there, and the elements of int and
   float arrays raw, and it reuses one frame per call depth.  So
   straight-line int and float code, calls and array stores included,
   allocates nothing in steady state, and what a workload's plain run
   allocates comes from its heap: objects, arrays, and the boxes of the
   values stored into object fields and reference arrays.

   No engine run forces a minor collection.  The rule that keeps it so:
   a per-run array over 256 words is never seeded with a young value,
   because [Array.make] of such an array empties the minor heap first.
   The flight recorder's ring and the decision ledger seed theirs with
   the static [Events.filler]. *)

module Config = Tracegen.Config
module Engine = Tracegen.Engine
module Interp = Vm.Interp

let tc = Alcotest.test_case

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Words lowering the traces an engine holds compiled costs: 0 with the
   tier off.  The traces are lowered over a freshly built layout of the
   same program, whose facts memo is cold, so the words include
   computing each method's analysis facts once, as the run did. *)
let lowering_words (layout : Cfg.Layout.t) engine =
  let compiled = ref [] in
  Tracegen.Trace_cache.iter (Engine.cache engine) (fun tr ->
      if tr.Tracegen.Trace.lowered <> None then compiled := tr :: !compiled);
  let cold = Cfg.Layout.build layout.Cfg.Layout.program in
  snd
    (minor_words (fun () ->
         List.iter
           (fun tr -> ignore (Tracegen.Tier.lower_trace cold tr))
           !compiled))

(* Engine words beyond the plain run and the tier's lowering, per block
   dispatch. *)
let words_per_dispatch (w : Workloads.Workload.t) config backend =
  let layout = Harness.Experiment.layout_for w ~size:w.default_size in
  let plain, plain_words = minor_words (fun () -> Interp.run_plain layout) in
  let run, engine_words =
    minor_words (fun () -> Engine.run ~config ~backend layout)
  in
  Alcotest.(check int)
    "same instructions as plain" plain.Interp.instructions
    run.Engine.vm_result.Interp.instructions;
  let lowering = lowering_words layout run.Engine.engine in
  ( Engine.paper_path run.Engine.engine,
    (engine_words -. plain_words -. lowering)
    /. float_of_int plain.Interp.block_dispatches )

let check_under_one_word w (label, config, backend) () =
  let paper, per = words_per_dispatch w config backend in
  (* the rows cover both dispatch paths *)
  Alcotest.(check bool)
    "paper path" (config = Config.default && backend <> Engine.Interp) paper;
  Printf.printf "%s %s: %.3f words per dispatch\n" w.Workloads.Workload.name
    label per;
  if per >= 1.0 then
    Alcotest.failf "%s under %s: %.2f minor words per dispatch (limit 1)"
      w.Workloads.Workload.name label per

(* Words allocated straight into the major heap by [f]. *)
let direct_major_words f =
  let _, p0, j0 = Gc.counters () in
  let r = f () in
  let _, p1, j1 = Gc.counters () in
  (r, j1 -. j0 -. (p1 -. p0))

let check_plain_major (w : Workloads.Workload.t) () =
  let layout = Harness.Experiment.layout_for w ~size:w.default_size in
  let r, words = direct_major_words (fun () -> Interp.run_plain layout) in
  let per = words /. float_of_int r.Interp.block_dispatches in
  if per >= 1.0 then
    Alcotest.failf "%s: %.2f direct major words per dispatch (limit 1)"
      w.Workloads.Workload.name per

let plain_cases =
  List.map
    (fun (w : Workloads.Workload.t) ->
      tc (w.name ^ " run_plain") `Quick (check_plain_major w))
    [ Workloads.Mpegaudio.workload; Workloads.Javacish.workload ]

(* (label, configuration, pinned backend); "microir" is trace dispatch
   with the compiled tier armed *)
let setups =
  [
    ("profile", Config.default, Engine.Profile);
    ("trace", Config.default, Engine.Trace);
    ("microir", Config.make ~tier:true (), Engine.Trace);
  ]

(* The default configuration takes the paper's dispatch path; these
   take the general one. *)
let general_setups =
  [
    ( Workloads.Compress.workload,
      ("trace --osr", Config.make ~osr:true (), Engine.Trace) );
    (* 3,939 deopts, each reading only the innermost block *)
    ( Workloads.Mpegaudio.workload,
      ("trace --osr", Config.make ~osr:true (), Engine.Trace) );
    ( Workloads.Mpegaudio.workload,
      ("profile --osr", Config.make ~osr:true (), Engine.Profile) );
    ( Workloads.Mpegaudio.workload,
      ("interp", Config.default, Engine.Interp) );
  ]

let cases =
  List.map
    (fun ((w : Workloads.Workload.t), ((label, _, _) as setup)) ->
      tc
        (Printf.sprintf "%s %s" w.name label)
        `Quick
        (check_under_one_word w setup))
    (List.concat_map
       (fun w -> List.map (fun setup -> (w, setup)) setups)
       [ Workloads.Mpegaudio.workload; Workloads.Compress.workload ]
    @ general_setups)

(* Int and float arithmetic on locals, [Iinc] loops, static calls and
   returns, and int and float array stores and loads: 20 calls of a
   2,000-iteration loop, each call allocating its two 16-cell arrays. *)
let straight_line_layout () =
  let open Workloads.Dsl in
  let module S = Bytecode.Structured in
  let p = S.create () in
  S.def_method p ~name:"work"
    ~args:[ ("n", S.I); ("x", S.F) ]
    ~ret:S.I
    ~body:
      [
        decl_i "s" (i 0);
        decl_f "y" (v "x");
        decl "ia" (S.Arr S.I) (new_arr S.I (i 16));
        decl "fa" (S.Arr S.F) (new_arr S.F (i 16));
        for_ "k" (i 0) (v "n")
          [
            set "s" ((v "s" *! i 31) +! v "k" &! i 0xFFFF);
            set "y" ((v "y" *! f 0.5) +! i2f (v "k" &! i 7));
            seti (v "ia") (v "k" &! i 15) (v "s");
            seti (v "fa") (v "k" &! i 15) (v "y");
            set "s" (v "s" -! f2i (v "fa" @. (v "k" &! i 15)));
          ];
        ret (v "s");
      ]
    ();
  S.def_method p ~name:"main" ~args:[] ~ret:S.I
    ~body:
      [
        decl_i "t" (i 0);
        for_ "j" (i 0) (i 20)
          [ set "t" (v "t" +! call "work" [ i 2000; i2f (v "j") ]) ];
        ret (v "t");
      ]
    ();
  let program = S.link p ~entry:"main" in
  Bytecode.Verify.verify_program program;
  Cfg.Layout.build program

(* 1,226 words over 1,680,590 instructions, 0.0007 per instruction: the
   40 arrays, the frame pool and the handle's setup.  With boxed array
   cells and a frame allocated per call the interpreter allocated
   241,273 words here, 0.14 per instruction; before that, the boxed
   operand stack allocated a value on every int or float push. *)
let check_straight_line () =
  let layout = straight_line_layout () in
  let r, words = minor_words (fun () -> Interp.run_plain layout) in
  let per = words /. float_of_int r.Interp.instructions in
  Printf.printf "straight-line: %d instructions, %.0f words, %.5f per\n"
    r.Interp.instructions words per;
  if per >= 0.01 then
    Alcotest.failf
      "straight-line int/float code: %.4f minor words per instruction (limit \
       0.01)"
      per

(* Each workload's [run_plain] minor words per 1,000 instructions at
   default size, with the typed operand stack but with boxed array cells
   and a frame allocated per call, as the interpreter had before its
   arrays were typed and its frames pooled; a workload must now stay
   under half of it.  The figures with typed arrays and pooled frames
   are in the comments. *)
let boxed_words_per_kinstr =
  [
    ("compress", 219.3 (* typed arrays, pooled frames: 0.3 *));
    ("javac", 629.5 (* 97.4 *));
    ("raytrace", 89.6 (* 0.7 *));
    ("mpegaudio", 185.1 (* 56.6 *));
    ("soot", 168.6 (* 10.0 *));
    ("scimark", 208.9 (* 0.1 *));
  ]

let check_workload_words (w : Workloads.Workload.t) () =
  let boxed = List.assoc w.name boxed_words_per_kinstr in
  let layout = Harness.Experiment.layout_for w ~size:w.default_size in
  let r, words = minor_words (fun () -> Interp.run_plain layout) in
  let per_k = 1000. *. words /. float_of_int r.Interp.instructions in
  Printf.printf "%s: %.1f words per 1,000 instructions\n" w.name per_k;
  if per_k >= boxed /. 2. then
    Alcotest.failf
      "%s run_plain: %.1f minor words per 1,000 instructions (limit %.1f, \
       half the boxed heap's %.1f)"
      w.name per_k (boxed /. 2.) boxed

let interpreter_cases =
  tc "straight-line" `Quick check_straight_line
  :: List.map
       (fun (w : Workloads.Workload.t) ->
         tc (w.name ^ " run_plain") `Quick (check_workload_words w))
       Workloads.Registry.all

(* Trace construction allocates only what it keeps: the traces it
   builds, their cache bindings and the events it emits.  The entry
   search, the walk, the cutter's candidates, the hash-cons probe and
   the eviction scan work in scratch space the cache owns and in the
   graph's search marks. *)

module Bcg = Tracegen.Bcg
module Events = Tracegen.Events
module Profiler = Tracegen.Profiler
module Stats = Tracegen.Stats
module Trace = Tracegen.Trace
module Trace_builder = Tracegen.Trace_builder
module Trace_cache = Tracegen.Trace_cache

(* An event stream whose only observer keeps every cold event in a
   preallocated array, so what a call allocates for its events is
   exactly the events it emits.  [since k] lists the events kept from
   the [k]-th on. *)
let keeping_stream () =
  let none = { Events.time = 0; payload = Events.Path_walked { transitions = 0 } } in
  let kept = Array.make 65_536 none and n = ref 0 in
  let events = Events.create () in
  Events.set_tap events ~ring:None ~cold:(fun ev ->
      kept.(!n) <- ev;
      incr n);
  let since k = List.init (!n - k) (fun i -> kept.(k + i)) in
  (events, n, since)

(* The words an event the stream keeps costs: the event record, its
   payload, and a construction's copy of its blocks. *)
let event_words (ev : Events.event) =
  3
  + (1 + Obj.size (Obj.repr ev.Events.payload))
  +
  match ev.Events.payload with
  | Events.Trace_constructed { blocks; _ } -> 1 + Array.length blocks
  | _ -> 0

let record_stream layout =
  let buf = ref (Array.make 4096 0) and n = ref 0 in
  ignore
    (Interp.run layout ~on_block:(fun g ->
         if !n = Array.length !buf then begin
           let b = Array.make (2 * !n) 0 in
           Array.blit !buf 0 b 0 !n;
           buf := b
         end;
         !buf.(!n) <- g;
         incr n));
  Array.sub !buf 0 !n

(* A profiler replay of [w]'s default-size block stream, its signals
   feeding the builder over an unbounded cache as the engine does: the
   signals seen, the builder's calls and the words they allocated. *)
let replay_builder (w : Workloads.Workload.t) =
  let layout = Harness.Experiment.layout_for w ~size:w.default_size in
  let cache = Trace_cache.create layout in
  let events, _, _ = keeping_stream () in
  let counts = Stats.zero () in
  let signals = ref [] and calls = ref 0 and words = ref 0. in
  let on_signal s =
    signals := s :: !signals;
    incr calls;
    let w0 = Gc.minor_words () in
    ignore
      (Trace_builder.on_signal ~events ~counts Config.default cache s);
    words := !words +. (Gc.minor_words () -. w0)
  in
  let prof =
    Profiler.create Config.default ~n_blocks:layout.Cfg.Layout.n_blocks
      ~on_signal
  in
  Array.iter (Profiler.dispatch prof) (record_stream layout);
  (cache, List.rev !signals, !calls, !words)

(* The release profile, the one check.sh and perfbench build with.  The
   dev profile compiles each library opaquely, so a float that crosses
   a module boundary (a correlation, a candidate's probability) is
   boxed there; the exact checks below hold in the optimised build. *)
let optimised = Build_profile.name = "release"

(* A signal rebuilt once more, with every candidate already cached,
   allocates its outcome and the construction events it emits, nothing
   else (checked exactly under the release profile). *)
let check_cached_signal () =
  let cache, signals, _, _ = replay_builder Workloads.Compress.workload in
  let events, n, since = keeping_stream () in
  let counts = Stats.zero () in
  let reuses = ref 0 in
  List.iter
    (fun s ->
      ignore (Trace_builder.on_signal ~events ~counts Config.default cache s);
      let k = !n in
      let o, words =
        minor_words (fun () ->
            Trace_builder.on_signal ~events ~counts Config.default cache s)
      in
      if o.Trace_builder.new_traces <> 0 then
        Alcotest.fail "a repeated signal built a trace";
      reuses := !reuses + o.Trace_builder.reused_traces;
      let kept = since k in
      let expected = List.fold_left (fun acc ev -> acc + event_words ev) 3 kept in
      if optimised && int_of_float words <> expected then
        Alcotest.failf
          "a signal of %d cached candidates allocated %.0f words; its \
           outcome and %d events are %d"
          o.Trace_builder.reused_traces words (List.length kept) expected)
    signals;
  if !reuses = 0 then Alcotest.fail "no candidate was reused"

(* A capped footprint-aware install that evicts allocates, beyond the
   same install into an uncapped cache, only the Trace_evicted event. *)
let check_capped_eviction () =
  let layout =
    Harness.Experiment.layout_for Workloads.Compress.workload ~size:16
  in
  let filled max_traces =
    let c =
      Trace_cache.create ~max_traces
        ~eviction_policy:Config.Cache.Footprint_aware layout
    in
    let events = Events.create () and counts = Stats.zero () in
    for k = 0 to 7 do
      ignore
        (Trace_cache.install c ~events ~counts ~first:k
           ~blocks:[| k + 1; k + 2; k + 3 |] ~len:(1 + (k mod 3)) ~prob:1.0)
    done;
    c
  in
  let capped = filled 8 and uncapped = filled 0 in
  let blocks = [| 20; 21; 22 |] in
  let install cache =
    let events, n, since = keeping_stream () in
    let counts = Stats.zero () in
    let _, words =
      minor_words (fun () ->
          Trace_cache.install cache ~events ~counts ~first:19 ~blocks ~len:3
            ~prob:1.0)
    in
    (words, since 0, ignore n)
  in
  let w_uncapped, ev_uncapped, () = install uncapped in
  let w_capped, ev_capped, () = install capped in
  if ev_uncapped <> [] then Alcotest.fail "the uncapped install evicted";
  (match ev_capped with
  | [ { Events.payload = Events.Trace_evicted _; _ } ] -> ()
  | l -> Alcotest.failf "%d events from the capped install" (List.length l));
  let extra = w_capped -. w_uncapped in
  let expected = List.fold_left (fun acc ev -> acc + event_words ev) 0 ev_capped in
  if int_of_float extra <> expected then
    Alcotest.failf "the eviction allocated %.0f words; its event is %d" extra
      expected

(* Minor words per [Trace_builder.on_signal] call at default size, with
   every call's events kept, in the release build; a workload must stay
   under 1.5 times its figure (the dev build allocates 15-20% more).
   The figure before construction moved into the cache's scratch space
   is in the comment: 359-512 words per call. *)
let words_per_signal =
  [
    ("compress", 59.7 (* 415.5 *));
    ("javac", 59.4 (* 392.9 *));
    ("raytrace", 52.3 (* 379.2 *));
    ("mpegaudio", 53.1 (* 358.9 *));
    ("soot", 54.5 (* 395.7 *));
    ("scimark", 68.5 (* 512.0 *));
  ]

let check_signal_words (w : Workloads.Workload.t) () =
  let _, _, calls, words = replay_builder w in
  let per = words /. float_of_int (max 1 calls) in
  Printf.printf "%s: %d calls, %.1f words per call\n" w.name calls per;
  let limit = 1.5 *. List.assoc w.name words_per_signal in
  if per >= limit then
    Alcotest.failf "%s: %.1f minor words per on_signal call (limit %.1f)"
      w.name per limit

(* A node whose edges all survive: ten decay passes allocate nothing.
   Two successors at 3:1 keep the node strongly correlated at a 0.7
   threshold, so no pass changes its state or best successor. *)
let check_decay_in_place () =
  let period = 64 in
  let config = Config.make ~start_state_delay:1 ~threshold:0.7 ~decay_period:period () in
  let bcg = Bcg.create config ~n_blocks:16 ~on_signal:(fun _ -> ()) in
  let ctx = Bcg.visit_node bcg ~x:1 ~y:2 in
  let hot = Bcg.visit_node bcg ~x:2 ~y:3 and cold = Bcg.visit_node bcg ~x:2 ~y:4 in
  for _ = 1 to 120 do
    Bcg.record_successor bcg ~ctx ~target:hot
  done;
  for _ = 1 to 40 do
    Bcg.record_successor bcg ~ctx ~target:cold
  done;
  ignore (Bcg.heal_node bcg ctx) (* a recheck; nothing to repair *);
  let decays = bcg.Bcg.decays in
  let (), words =
    minor_words (fun () ->
        for _ = 1 to 10 * period do
          Bcg.visit bcg ctx
        done)
  in
  if bcg.Bcg.decays - decays <> 10 then
    Alcotest.failf "%d decay passes" (bcg.Bcg.decays - decays);
  if List.length ctx.Bcg.edges <> 2 then Alcotest.fail "an edge died";
  if words <> 0. then
    Alcotest.failf "ten decay passes allocated %.0f words" words

let construction_cases =
  tc "cached signal" `Quick check_cached_signal
  :: tc "capped eviction" `Quick check_capped_eviction
  :: tc "decay in place" `Quick check_decay_in_place
  :: List.map
       (fun (w : Workloads.Workload.t) ->
         tc (w.name ^ " on_signal") `Quick (check_signal_words w))
       Workloads.Registry.all

(* No engine run forces a collection.  [Array.make] of more than 256
   words (the minor heap's [Max_young_wosize]) seeded with a young value
   empties the minor heap first, so a store that seeds such an array
   with the value it is recording forces a minor collection however
   large the minor heap is.  With the minor heap raised above
   everything a run allocates (checked with [Gc.minor_words]), no minor
   collection may happen at all. *)

let roomy_minor_heap = 4 * 1024 * 1024 (* words *)

(* Run [f] with the minor heap at [roomy_minor_heap]: [f] must allocate
   less than that and force no minor collection.  Setting the size
   empties the minor heap, so [f] starts with all of it free. *)
let without_collection label f () =
  let saved = Gc.get () in
  Gc.set { saved with Gc.minor_heap_size = roomy_minor_heap };
  Fun.protect
    ~finally:(fun () -> Gc.set saved)
    (fun () ->
      let c0 = (Gc.quick_stat ()).Gc.minor_collections in
      let (), words = minor_words f in
      let c1 = (Gc.quick_stat ()).Gc.minor_collections in
      Printf.printf "%s: %.0f minor words, %d minor collections\n" label words
        (c1 - c0);
      if words >= float_of_int roomy_minor_heap then
        Alcotest.failf
          "%s allocated %.0f words, more than the %d-word minor heap" label
          words roomy_minor_heap;
      Alcotest.(check int) (label ^ ": minor collections") 0 (c1 - c0))

(* The six workloads at [1 / shrink] of their default size, laid out
   before the measured runs. *)
let layouts ~shrink =
  List.map
    (fun (w : Workloads.Workload.t) ->
      ( w.name,
        Harness.Experiment.layout_for w
          ~size:(Int.max 1 (w.default_size / shrink)) ))
    Workloads.Registry.all

(* Two members per program over one 8-trace cache, then each program's
   first engine snapshotted and a fresh engine restored from it and
   driven. *)
let session_and_warm_restart () =
  let config = Config.make ~max_cache_traces:8 () in
  let programs =
    List.filter
      (fun (name, _) -> List.mem name [ "javac"; "soot"; "mpegaudio" ])
      (layouts ~shrink:1)
  in
  let s = Tracegen.Session.create () in
  let firsts =
    List.map
      (fun (_, layout) ->
        let m = Tracegen.Session.add ~config s layout in
        ignore (Tracegen.Session.add ~config s layout);
        (layout, m))
      programs
  in
  Tracegen.Session.run s;
  List.iter
    (fun (layout, m) ->
      let data = Engine.snapshot (Tracegen.Session.engine m) in
      let e = Engine.create ~config layout in
      match Engine.restore e data with
      | Ok _ -> ignore (Engine.drive e)
      | Error err ->
          Alcotest.failf "restore rejected: %s"
            (Tracegen.Persist.error_to_string err))
    firsts

(* Self-healing validates every trace it enters, which allocates (about
   2.6 words per instruction on scimark), so its runs are shortened to
   stay inside the minor heap. *)
let collection_cases =
  let engine_cases (label, config, backend, shrink, max_instructions) =
    List.map
      (fun (name, layout) ->
        ( label ^ " " ^ name,
          fun () ->
            ignore (Engine.run ~config ~backend ?max_instructions layout) ))
      (layouts ~shrink)
  in
  List.map
    (fun (label, f) -> tc label `Quick (without_collection label f))
    (List.concat_map engine_cases
       [
         ("paper trace", Config.default, Engine.Trace, 1, None);
         ("paper profile", Config.default, Engine.Profile, 1, None);
         ("general --osr", Config.make ~osr:true (), Engine.Trace, 1, None);
         ( "general --osr --self-heal",
           Config.make ~osr:true ~self_heal:true (),
           Engine.Trace,
           50,
           Some 1_000_000 );
       ]
    @ [ ("session and warm restart", session_and_warm_restart) ])

let () =
  Alcotest.run "alloc"
    [
      ("words per dispatch", cases);
      ("direct major words per dispatch", plain_cases);
      ("interpreter words", interpreter_cases);
      ("trace construction", construction_cases);
      ("no forced collection", collection_cases);
    ]
