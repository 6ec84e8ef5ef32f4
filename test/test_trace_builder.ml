(* Trace construction: entry-point backtracking, maximum-likelihood walks,
   probability cutting and loop unrolling, on hand-built correlation
   graphs. *)

module Bcg = Tracegen.Bcg
module State = Tracegen.State
module Config = Tracegen.Config
module Trace = Tracegen.Trace
module Trace_cache = Tracegen.Trace_cache
module Trace_builder = Tracegen.Trace_builder
module Layout = Cfg.Layout

let tc = Alcotest.test_case
let check = Alcotest.check

(* BCG lookups return sentinels; a test expecting the node fails loudly *)
let node_at bcg ~x ~y =
  let n = Bcg.find_node bcg ~x ~y in
  if n == Bcg.no_node then Alcotest.failf "no node (%d,%d)" x y else n

(* a real layout with plenty of blocks so arbitrary small gids are valid *)
let layout =
  lazy
    (let w = Workloads.Compress.workload in
     Layout.build (w.Workloads.Workload.build ~size:16))

let mk_config ?(delay = 1) ?(threshold = 0.97) () =
  Config.make ~start_state_delay:delay ~threshold
    ~decay_period:1_000_000 (* no decay during these tests *) ()

let mk_bcg config =
  Bcg.create config ~n_blocks:(Lazy.force layout).Layout.n_blocks
    ~on_signal:(fun _ -> ())

let feed bcg ~x ~y ~z =
  let ctx = Bcg.visit_node bcg ~x ~y in
  let target = Bcg.visit_node bcg ~x:y ~y:z in
  Bcg.record_successor bcg ~ctx ~target

(* feed a chain of transitions n times: stream b0 b1 b2 ... bk *)
let feed_path bcg path ~times =
  for _ = 1 to times do
    let rec go = function
      | x :: (y :: z :: _ as rest) ->
          feed bcg ~x ~y ~z;
          go rest
      | _ -> ()
    in
    go path
  done

(* Healing a healthy node repairs nothing and rechecks it. *)
let recheck_all bcg = Bcg.iter_nodes bcg (fun n -> ignore (Bcg.heal_node bcg n))

let signal_for bcg ~x ~y =
  let n = node_at bcg ~x ~y in
  {
    Bcg.s_graph = bcg;
    s_node = n;
    s_old_state = State.Newly_created;
    s_new_state = n.Bcg.state;
    s_best_changed = true;
  }

let blocks_t = Alcotest.(array int)

let test_straight_chain () =
  let config = mk_config () in
  let bcg = mk_bcg config in
  let cache = Trace_cache.create (Lazy.force layout) in
  feed_path bcg [ 1; 2; 3; 4; 5; 6 ] ~times:20;
  recheck_all bcg;
  let outcome = Trace_builder.on_signal config cache (signal_for bcg ~x:3 ~y:4) in
  check Alcotest.bool "built at least one trace" true
    (outcome.Trace_builder.new_traces >= 1);
  (* backtracking reaches (1,2); the walk then covers the whole chain *)
  match Trace_cache.lookup cache ~prev:1 ~cur:2 with
  | Some tr -> check blocks_t "full chain" [| 2; 3; 4; 5; 6 |] tr.Trace.blocks
  | None -> Alcotest.fail "expected trace entered at (1,2)"

let test_stops_at_weak_branch () =
  let config = mk_config () in
  let bcg = mk_bcg config in
  let cache = Trace_cache.create (Lazy.force layout) in
  (* chain 1..4 strong, then (4,5) splits 50/50 to 6 and 7 *)
  feed_path bcg [ 1; 2; 3; 4; 5 ] ~times:20;
  for _ = 1 to 10 do
    feed bcg ~x:4 ~y:5 ~z:6;
    feed bcg ~x:4 ~y:5 ~z:7
  done;
  recheck_all bcg;
  ignore (Trace_builder.on_signal config cache (signal_for bcg ~x:2 ~y:3));
  match Trace_cache.lookup cache ~prev:1 ~cur:2 with
  | Some tr ->
      check blocks_t "trace stops at the weak branch" [| 2; 3; 4; 5 |]
        tr.Trace.blocks
  | None -> Alcotest.fail "expected trace entered at (1,2)"

let test_newly_created_not_followed () =
  let config = mk_config ~delay:1000 () in
  let bcg = mk_bcg config in
  let cache = Trace_cache.create (Lazy.force layout) in
  feed_path bcg [ 1; 2; 3; 4 ] ~times:20;
  (* all nodes are still inside the start-state delay: no trace possible *)
  let outcome = Trace_builder.on_signal config cache (signal_for bcg ~x:1 ~y:2) in
  check Alcotest.int "no traces from cold nodes" 0
    outcome.Trace_builder.new_traces

let test_loop_unrolled_once () =
  let config = mk_config () in
  let bcg = mk_bcg config in
  let cache = Trace_cache.create (Lazy.force layout) in
  (* pure loop 1 -> 2 -> 3 -> 1 ... *)
  let stream = List.concat (List.init 20 (fun _ -> [ 1; 2; 3 ])) in
  feed_path bcg stream ~times:1;
  recheck_all bcg;
  ignore (Trace_builder.on_signal config cache (signal_for bcg ~x:1 ~y:2));
  (* some loop-aligned trace must exist and be exactly two iterations *)
  let found = ref None in
  Trace_cache.iter_all cache (fun tr ->
      if Trace.n_blocks tr = 6 then found := Some tr);
  match !found with
  | Some tr ->
      check Alcotest.int "covers two iterations" 6 (Trace.n_blocks tr);
      (* tail equals the entry context: the trace chains into itself *)
      check Alcotest.int "self-chaining" tr.Trace.first (Trace.last_block tr)
  | None -> Alcotest.fail "expected an unrolled loop trace"

let test_probability_cut () =
  (* correlations of ~0.98 per step with threshold 0.97 allow only one
     multiplication: traces get cut to two blocks *)
  let config = mk_config ~threshold:0.97 () in
  let bcg = mk_bcg config in
  let cache = Trace_cache.create (Lazy.force layout) in
  (* chain where each node has a 49:1 main successor (corr = 0.98) *)
  feed_path bcg [ 1; 2; 3; 4; 5; 6 ] ~times:49;
  ignore (feed bcg ~x:1 ~y:2 ~z:9);
  ignore (feed bcg ~x:2 ~y:3 ~z:9);
  ignore (feed bcg ~x:3 ~y:4 ~z:9);
  ignore (feed bcg ~x:4 ~y:5 ~z:9);
  recheck_all bcg;
  ignore (Trace_builder.on_signal config cache (signal_for bcg ~x:1 ~y:2));
  Trace_cache.iter_all cache (fun tr ->
      check Alcotest.bool
        (Printf.sprintf "trace %s short enough"
           (Trace.describe (Lazy.force layout) tr))
        true
        (Trace.n_blocks tr <= 2);
      check Alcotest.bool "probability above threshold" true
        (tr.Trace.prob >= 0.97))

let test_max_length_cap () =
  let config = mk_config () in
  let bcg = mk_bcg config in
  let cache = Trace_cache.create (Lazy.force layout) in
  (* a certain straight path well past the cap: only the cap cuts it *)
  let n = Config.max_trace_blocks + 16 in
  check Alcotest.bool "layout holds the path" true
    (n < (Lazy.force layout).Layout.n_blocks);
  feed_path bcg (List.init n (fun k -> k + 1)) ~times:20;
  recheck_all bcg;
  ignore (Trace_builder.on_signal config cache (signal_for bcg ~x:5 ~y:6));
  let longest = ref 0 in
  Trace_cache.iter_all cache (fun tr ->
      check Alcotest.bool "respects max_trace_blocks" true
        (Trace.n_blocks tr <= Config.max_trace_blocks);
      longest := max !longest (Trace.n_blocks tr));
  check Alcotest.int "the cap binds" Config.max_trace_blocks !longest

let test_single_transition_suppressed () =
  let config = mk_config () in
  let bcg = mk_bcg config in
  let cache = Trace_cache.create (Lazy.force layout) in
  (* (1,2) strong to 3 but (2,3) is weak: only one followable transition *)
  feed_path bcg [ 1; 2; 3 ] ~times:20;
  for _ = 1 to 10 do
    feed bcg ~x:2 ~y:3 ~z:4;
    feed bcg ~x:2 ~y:3 ~z:5
  done;
  recheck_all bcg;
  let outcome = Trace_builder.on_signal config cache (signal_for bcg ~x:1 ~y:2) in
  ignore outcome;
  (* a 1-block trace would be meaningless; none may exist *)
  Trace_cache.iter_all cache (fun tr ->
      check Alcotest.bool "no single-block traces" true (Trace.n_blocks tr >= 2))

let test_entry_points_multiple_preds () =
  let config = mk_config () in
  let bcg = mk_bcg config in
  let cache = Trace_cache.create (Lazy.force layout) in
  (* two strong producers converge on (5,6): 1->2->5->6->7 and 3->4->5->6->7 *)
  feed_path bcg [ 1; 2; 5; 6; 7 ] ~times:20;
  feed_path bcg [ 3; 4; 5; 6; 7 ] ~times:20;
  recheck_all bcg;
  ignore (Trace_builder.on_signal config cache (signal_for bcg ~x:5 ~y:6));
  (* node (2,5) and (4,5) both feed (5,6), but (5,6) itself is reached
     50/50 from the two of them... each predecessor's best edge still
     points at (5,6), so both give entry points *)
  check Alcotest.bool "entry via (1,2)" true
    (Trace_cache.lookup cache ~prev:1 ~cur:2 <> None
    || Trace_cache.lookup cache ~prev:2 ~cur:5 <> None);
  check Alcotest.bool "entry via (3,4)" true
    (Trace_cache.lookup cache ~prev:3 ~cur:4 <> None
    || Trace_cache.lookup cache ~prev:4 ~cur:5 <> None)

(* A construction that re-enters the builder through the same cache
   (here from an event subscriber) is refused rather than left to
   overwrite the outer construction's scratch, and the refusal leaves
   the cache usable. *)
let test_reentry_refused () =
  let config = mk_config () in
  let bcg = mk_bcg config in
  let cache = Trace_cache.create (Lazy.force layout) in
  feed_path bcg [ 1; 2; 3; 4; 5 ] ~times:20;
  recheck_all bcg;
  let events = Tracegen.Events.create () in
  let nested = ref 0 in
  ignore
    (Tracegen.Events.subscribe events (fun _ ->
         incr nested;
         ignore
           (Trace_builder.on_signal config cache (signal_for bcg ~x:2 ~y:3))));
  (match Trace_builder.on_signal ~events config cache (signal_for bcg ~x:1 ~y:2) with
  | _ -> Alcotest.fail "re-entry was not refused"
  | exception Invalid_argument _ -> ());
  check Alcotest.int "one nested attempt" 1 !nested;
  let o = Trace_builder.on_signal config cache (signal_for bcg ~x:1 ~y:2) in
  check Alcotest.int "the cache builds again" 1
    (o.Trace_builder.new_traces + o.Trace_builder.reused_traces)

(* ------------------------------------------------------------------ *)
(* Lockstep with the reference builder                                  *)
(* ------------------------------------------------------------------ *)

(* [Reference_builder] is the builder before construction moved into
   the cache's scratch space.  Both are driven from identical graphs:
   per signal (and per OSR promotion), the ordered install calls, the
   walk lengths, the outcome and every event the construction emits
   must agree. *)

module Events = Tracegen.Events
module Stats = Tracegen.Stats
module Profiler = Tracegen.Profiler
module Reference = Reference_builder

type side = New | Ref

let signal_on side ~fail_install ~events ~on_path config cache signal =
  let counts = Stats.zero () in
  match side with
  | New ->
      let o =
        Trace_builder.on_signal ~events ~counts ~on_path ?fail_install config
          cache signal
      in
      (o.Trace_builder.new_traces, o.Trace_builder.reused_traces)
  | Ref ->
      let o =
        Reference.on_signal ~events ~counts ~on_path ?fail_install config
          cache signal
      in
      (o.Reference.new_traces, o.Reference.reused_traces)

let promote_on side ~fail_install ~events ~on_path cache bcg ~header =
  let counts = Stats.zero () in
  match side with
  | New ->
      let o, tr =
        Trace_builder.promote ~events ~counts ~on_path ?fail_install cache bcg
          ~header
      in
      ( (o.Trace_builder.new_traces, o.Trace_builder.reused_traces),
        Option.map (fun tr -> tr.Trace.id) tr )
  | Ref ->
      let o, tr =
        Reference.promote ~events ~counts ~on_path ?fail_install cache bcg
          ~header
      in
      ( (o.Reference.new_traces, o.Reference.reused_traces),
        Option.map (fun tr -> tr.Trace.id) tr )

(* The install calls one construction makes, as (first, blocks, prob
   bits), read through [fail_install], which every call consults once:
   a first run fails every install and counts the calls, then run [i]
   fails every install but the [i]-th, which builds in an empty cache
   and so reports exactly its own candidate. *)
let install_calls layout run =
  let k = ref 0 in
  run
    ~fail_install:
      (Some
         (fun () ->
           incr k;
           true))
    ~events:(Events.create ()) (Trace_cache.create layout);
  List.init !k (fun i ->
      let events = Events.create () in
      let got = ref [] in
      ignore
        (Events.subscribe events (fun e ->
             match e.Events.payload with
             | Events.Trace_constructed c ->
                 got := (c.first, c.blocks, Int64.bits_of_float c.prob) :: !got
             | _ -> ()));
      let n = ref 0 in
      run
        ~fail_install:
          (Some
             (fun () ->
               let j = !n in
               incr n;
               j <> i))
        ~events (Trace_cache.create layout);
      match !got with
      | [ c ] -> c
      | l -> Alcotest.failf "install call %d: %d constructions" i (List.length l))

(* One builder's persistent state: its cache and what its constructions
   emitted so far. *)
type lane = { cache : Trace_cache.t; events : Events.t; log : string list ref }

let lane ~max_traces ~policy layout =
  let events = Events.create () in
  let log = ref [] in
  ignore
    (Events.subscribe events (fun e ->
         log := Harness.Codec.to_string (Harness.Codec.event_json e) :: !log));
  {
    cache = Trace_cache.create ~max_traces ~eviction_policy:policy layout;
    events;
    log;
  }

(* The two builders' lanes over one cache shape: unbounded LRU, and
   churn's starved footprint-aware cache, whose evictions put the
   victim choice under the comparison too. *)
let lanes layout =
  List.map
    (fun (max_traces, policy) ->
      (lane ~max_traces ~policy layout, lane ~max_traces ~policy layout))
    [ (0, Config.Cache.Lru); (8, Config.Cache.Footprint_aware) ]

type tally = { mutable signals : int; mutable calls : int; mutable evicted : int }

let call_t =
  Alcotest.(list (triple int (array int) int64))

let agree ~what ~layout tally lanes run =
  let calls side =
    install_calls layout (fun ~fail_install ~events cache ->
        ignore (run side ~fail_install ~events ~on_path:ignore cache))
  in
  let want = calls Ref in
  check call_t (what ^ ": install calls") want (calls New);
  tally.calls <- tally.calls + List.length want;
  List.iter
    (fun (r, n) ->
      let walks = ref [] in
      let walked l = walks := l :: !walks in
      r.log := [];
      n.log := [];
      let ro = run Ref ~fail_install:None ~events:r.events ~on_path:walked r.cache in
      let rw = !walks in
      walks := [];
      let no = run New ~fail_install:None ~events:n.events ~on_path:walked n.cache in
      check Alcotest.string (what ^ ": outcome") ro no;
      check Alcotest.(list int) (what ^ ": walks") rw !walks;
      check Alcotest.(list string) (what ^ ": events") !(r.log) !(n.log))
    lanes

let agree_signal ~layout tally lanes config signal =
  tally.signals <- tally.signals + 1;
  agree ~layout tally lanes
    ~what:
      (Printf.sprintf "signal %d at (%d,%d)" tally.signals
         signal.Bcg.s_node.Bcg.n_x signal.Bcg.s_node.Bcg.n_y)
    (fun side ~fail_install ~events ~on_path cache ->
      let nb, nr =
        signal_on side ~fail_install ~events ~on_path config cache signal
      in
      Printf.sprintf "%d new, %d reused" nb nr)

let agree_promote ~layout tally lanes bcg ~header =
  agree ~layout tally lanes
    ~what:(Printf.sprintf "promote header %d" header)
    (fun side ~fail_install ~events ~on_path cache ->
      let (nb, nr), id =
        promote_on side ~fail_install ~events ~on_path cache bcg ~header
      in
      Printf.sprintf "%d new, %d reused, trace %d" nb nr
        (Option.value id ~default:(-1)))

let finish tally lanes =
  List.iter
    (fun (r, n) ->
      tally.evicted <- tally.evicted + Trace_cache.n_evicted n.cache;
      check Alcotest.bool "same live cache" true
        (Trace_cache.snapshot r.cache = Trace_cache.snapshot n.cache))
    lanes

(* The graph's nodes in (x, y) order. *)
let nodes_of bcg =
  let ns = ref [] in
  Bcg.iter_nodes bcg (fun n -> ns := n :: !ns);
  List.sort
    (fun (a : Bcg.node) (b : Bcg.node) ->
      compare (a.Bcg.n_x, a.Bcg.n_y) (b.Bcg.n_x, b.Bcg.n_y))
    !ns

let hand_signal bcg (n : Bcg.node) =
  {
    Bcg.s_graph = bcg;
    s_node = n;
    s_old_state = State.Newly_created;
    s_new_state = n.Bcg.state;
    s_best_changed = true;
  }

(* A layout with room for chains past both caps. *)
let big_layout =
  lazy
    (let open Workloads.Dsl in
     let module S = Bytecode.Structured in
     let p = S.create () in
     S.def_method p ~name:"main" ~args:[] ~ret:S.I
       ~body:
         ((decl_i "x" (i 0)
          :: List.init 200 (fun k ->
                 when_ (v "x" =! i k) [ set "x" (v "x" +! i 1) ]))
         @ [ ret (v "x") ])
       ();
     Layout.build (S.link p ~entry:"main"))

let chain lo n = List.init n (fun k -> lo + k)

(* Hand-made graphs: (name, block stream fed [times] times). *)
let hand_graphs =
  [
    ("loop closing at the root", List.concat (List.init 20 (fun _ -> [ 1; 2; 3 ])), 1);
    ( "loop closing mid-path",
      [ 10; 11; 12 ] @ List.concat (List.init 20 (fun _ -> [ 13; 14; 12 ])),
      1 );
    ( "backtracking cycle with a side entry",
      [ 30; 31; 32 ] @ List.concat (List.init 20 (fun _ -> [ 33; 34; 35; 32 ])),
      2 );
    ("max_backtrack cap", chain 1 (Config.max_backtrack + 40), 20);
    ("max_walk cap", chain 1 (Config.max_walk + 40), 20);
  ]

let test_lockstep_hand () =
  let layout = Lazy.force big_layout in
  check Alcotest.bool "layout holds the chains" true
    (Config.max_walk + 42 < layout.Layout.n_blocks);
  let tally = { signals = 0; calls = 0; evicted = 0 } in
  List.iter
    (fun (_name, stream, times) ->
      let config = mk_config () in
      let bcg =
        Bcg.create config ~n_blocks:layout.Layout.n_blocks
          ~on_signal:(fun _ -> ())
      in
      feed_path bcg stream ~times;
      recheck_all bcg;
      let lanes = lanes layout in
      let nodes = nodes_of bcg in
      List.iter
        (fun n -> agree_signal ~layout tally lanes config (hand_signal bcg n))
        nodes;
      List.iter
        (fun h -> agree_promote ~layout tally lanes bcg ~header:h)
        (List.sort_uniq compare (List.map (fun n -> n.Bcg.n_y) nodes));
      finish tally lanes)
    hand_graphs;
  check Alcotest.bool "install calls compared" true (tally.calls > 100)

let record_stream layout =
  let buf = ref (Array.make 4096 0) and n = ref 0 in
  ignore
    (Vm.Interp.run layout ~on_block:(fun g ->
         if !n = Array.length !buf then begin
           let b = Array.make (2 * !n) 0 in
           Array.blit !buf 0 b 0 !n;
           buf := b
         end;
         !buf.(!n) <- g;
         incr n));
  Array.sub !buf 0 !n

(* Replay [layout]'s block stream through a profiler whose every signal
   runs both builders, then promote the hottest nodes' blocks. *)
let replay tally config layout =
  let lanes = lanes layout in
  let on_signal s = agree_signal ~layout tally lanes config s in
  let prof =
    Profiler.create config ~n_blocks:layout.Layout.n_blocks ~on_signal
  in
  Array.iter (Profiler.dispatch prof) (record_stream layout);
  let bcg = Profiler.bcg prof in
  let hot =
    List.sort
      (fun (a : Bcg.node) b -> compare b.Bcg.exec_total a.Bcg.exec_total)
      (nodes_of bcg)
  in
  List.iteri
    (fun k (n : Bcg.node) ->
      if k < 8 then agree_promote ~layout tally lanes bcg ~header:n.Bcg.n_y)
    hot;
  finish tally lanes

let test_lockstep_workloads () =
  let tally = { signals = 0; calls = 0; evicted = 0 } in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let size = max 1 (w.default_size / 4) in
      replay tally Config.default (Layout.build (w.build ~size)))
    Workloads.Registry.all;
  Printf.printf "workloads: %d signals, %d install calls, %d evictions\n"
    tally.signals tally.calls tally.evicted;
  check Alcotest.bool "signals compared" true (tally.signals > 100);
  check Alcotest.bool "evictions compared" true (tally.evicted > 0)

let test_lockstep_random () =
  let tally = { signals = 0; calls = 0; evicted = 0 } in
  let rand = Random.State.make [| 37 |] in
  let programs =
    QCheck.Gen.generate ~rand ~n:60 (QCheck.gen Random_program.arb_program)
  in
  List.iter
    (fun program ->
      let layout = Layout.build program in
      List.iter
        (fun config -> replay tally config layout)
        [
          Config.default;
          Config.make ~start_state_delay:8 ~threshold:0.9 ~decay_period:64 ();
        ])
    programs;
  Printf.printf "random programs: %d signals, %d install calls\n"
    tally.signals tally.calls;
  check Alcotest.bool "signals compared" true (tally.signals > 0)

let () =
  Alcotest.run "trace_builder"
    [
      ( "walks",
        [
          tc "straight chain" `Quick test_straight_chain;
          tc "stops at weak branch" `Quick test_stops_at_weak_branch;
          tc "cold nodes not followed" `Quick test_newly_created_not_followed;
          tc "entry points from multiple preds" `Quick
            test_entry_points_multiple_preds;
          tc "re-entry refused" `Quick test_reentry_refused;
        ] );
      ( "cutting",
        [
          tc "loop unrolled once" `Quick test_loop_unrolled_once;
          tc "probability cut" `Quick test_probability_cut;
          tc "max length cap" `Quick test_max_length_cap;
          tc "single transitions suppressed" `Quick
            test_single_transition_suppressed;
        ] );
      ( "lockstep",
        [
          tc "hand-made graphs" `Quick test_lockstep_hand;
          tc "workload replays" `Quick test_lockstep_workloads;
          tc "random programs" `Quick test_lockstep_random;
        ] );
    ]
