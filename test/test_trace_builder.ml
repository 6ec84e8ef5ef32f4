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

let recheck_all bcg = Bcg.iter_nodes bcg (fun n -> Bcg.recheck bcg n)

let signal_for bcg ~x ~y =
  let n = node_at bcg ~x ~y in
  {
    Bcg.s_node = n;
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
        ] );
      ( "cutting",
        [
          tc "loop unrolled once" `Quick test_loop_unrolled_once;
          tc "probability cut" `Quick test_probability_cut;
          tc "max length cap" `Quick test_max_length_cap;
          tc "single transitions suppressed" `Quick
            test_single_transition_suppressed;
        ] );
    ]
