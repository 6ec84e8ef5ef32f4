(* The branch correlation graph: lazy construction, start-state delay,
   decay, pruning, state evaluation and signalling, and the target
   pointers the profiler's fast path follows. *)

module Bcg = Tracegen.Bcg
module Profiler = Tracegen.Profiler
module State = Tracegen.State
module Config = Tracegen.Config

let tc = Alcotest.test_case
let check = Alcotest.check

(* BCG lookups return sentinels; a test expecting the node fails loudly *)
let node_at bcg ~x ~y =
  let n = Bcg.find_node bcg ~x ~y in
  if n == Bcg.no_node then Alcotest.failf "no node (%d,%d)" x y else n

let state_t =
  Alcotest.testable
    (fun ppf s -> Format.pp_print_string ppf (State.to_string s))
    ( = )

let mk ?(delay = 2) ?(threshold = 0.97) ?(decay = 256) () =
  let signals = ref [] in
  let config =
    Config.make ~start_state_delay:delay ~threshold ~decay_period:decay ()
  in
  let bcg =
    Bcg.create config ~n_blocks:1000 ~on_signal:(fun s -> signals := s :: !signals)
  in
  (bcg, signals)

(* Re-evaluate a node's state and best successor: healing a healthy node
   repairs nothing and ends in the same recheck promotion and decay
   run. *)
let recheck bcg n =
  check Alcotest.bool "healthy node" false (Bcg.heal_node bcg n)

(* The heaviest edge, as the last recheck saw it. *)
let best_edge bcg n =
  recheck bcg n;
  Option.get n.Bcg.best

(* feed the triple (x, y, z): branch (x,y) executed, then z followed *)
let feed bcg ~x ~y ~z =
  let ctx = Bcg.visit_node bcg ~x ~y in
  let target = Bcg.visit_node bcg ~x:y ~y:z in
  Bcg.record_successor bcg ~ctx ~target;
  (ctx, target)

let test_lazy_creation () =
  let bcg, _ = mk () in
  check Alcotest.int "empty at start" 0 (Bcg.n_nodes bcg);
  let _ = Bcg.visit_node bcg ~x:1 ~y:2 in
  check Alcotest.int "one node" 1 (Bcg.n_nodes bcg);
  let _ = Bcg.visit_node bcg ~x:1 ~y:2 in
  check Alcotest.int "revisit does not duplicate" 1 (Bcg.n_nodes bcg);
  check Alcotest.bool "lookup finds it" true
    (Bcg.find_node bcg ~x:1 ~y:2 != Bcg.no_node);
  check Alcotest.bool "lookup misses others" true
    (Bcg.find_node bcg ~x:2 ~y:1 == Bcg.no_node)

let test_start_state_delay () =
  let bcg, _ = mk ~delay:3 () in
  let n = Bcg.visit_node bcg ~x:1 ~y:2 in
  check state_t "newly created" State.Newly_created n.Bcg.state;
  let _ = Bcg.visit_node bcg ~x:1 ~y:2 in
  check state_t "still new after 2 visits" State.Newly_created n.Bcg.state;
  let _ = Bcg.visit_node bcg ~x:1 ~y:2 in
  check Alcotest.bool "hot after delay visits" true
    (n.Bcg.state <> State.Newly_created)

let test_promotion_signal () =
  let bcg, signals = mk ~delay:2 () in
  let _ = feed bcg ~x:1 ~y:2 ~z:3 in
  (* second visit of (1,2) promotes it *)
  let _ = Bcg.visit_node bcg ~x:1 ~y:2 in
  check Alcotest.bool "promotion raised a signal" true (List.length !signals >= 1);
  let s = List.hd !signals in
  check state_t "old state was new" State.Newly_created s.Bcg.s_old_state

let test_unique_vs_strong_vs_weak () =
  let bcg, _ = mk ~delay:1 ~threshold:0.9 () in
  (* node (1,2) with single successor 3 -> unique *)
  for _ = 1 to 10 do
    ignore (feed bcg ~x:1 ~y:2 ~z:3)
  done;
  let n12 = node_at bcg ~x:1 ~y:2 in
  (* state is evaluated at promotion and decay; force a recheck *)
  recheck bcg n12;
  check state_t "single successor is unique" State.Unique n12.Bcg.state;
  (* node (5,6): 19 of 20 to 7, 1 to 8 -> strong at 0.9 *)
  for _ = 1 to 19 do
    ignore (feed bcg ~x:5 ~y:6 ~z:7)
  done;
  ignore (feed bcg ~x:5 ~y:6 ~z:8);
  let n56 = node_at bcg ~x:5 ~y:6 in
  recheck bcg n56;
  check state_t "biased successor is strong" State.Strongly_correlated
    n56.Bcg.state;
  (* node (9,10): 50/50 -> weak *)
  for _ = 1 to 5 do
    ignore (feed bcg ~x:9 ~y:10 ~z:11);
    ignore (feed bcg ~x:9 ~y:10 ~z:12)
  done;
  let n910 = node_at bcg ~x:9 ~y:10 in
  recheck bcg n910;
  check state_t "balanced successors are weak" State.Weakly_correlated
    n910.Bcg.state

let test_correlation_values () =
  let bcg, _ = mk ~delay:1 () in
  for _ = 1 to 3 do
    ignore (feed bcg ~x:1 ~y:2 ~z:3)
  done;
  ignore (feed bcg ~x:1 ~y:2 ~z:4);
  let n = node_at bcg ~x:1 ~y:2 in
  let best = best_edge bcg n in
  check Alcotest.int "best edge is the 3-successor" 3 best.Bcg.e_z;
  check (Alcotest.float 1e-9) "correlation 3/4" 0.75 (Bcg.correlation n best)

let test_decay_halves_and_prunes () =
  let bcg, _ = mk ~delay:1 ~decay:8 () in
  (* one rare successor (weight 256 units), then decay passes *)
  ignore (feed bcg ~x:1 ~y:2 ~z:9);
  for _ = 1 to 20 do
    ignore (feed bcg ~x:1 ~y:2 ~z:3)
  done;
  let n = node_at bcg ~x:1 ~y:2 in
  check Alcotest.int "two successors before pruning" 2
    (List.length n.Bcg.edges);
  (* the rare edge's 256 units need 8 halvings to clear — the paper's
     2048-execution history clearing, scaled to this decay period *)
  for _ = 1 to 600 do
    ignore (feed bcg ~x:1 ~y:2 ~z:3)
  done;
  check Alcotest.int "rare edge pruned after decays" 1
    (List.length n.Bcg.edges);
  recheck bcg n;
  check state_t "node becomes unique again" State.Unique n.Bcg.state

let test_decay_preserves_ordering () =
  let bcg, _ = mk ~delay:1 ~decay:64 () in
  for _ = 1 to 7 do
    ignore (feed bcg ~x:1 ~y:2 ~z:3)
  done;
  for _ = 1 to 3 do
    ignore (feed bcg ~x:1 ~y:2 ~z:4)
  done;
  let n = node_at bcg ~x:1 ~y:2 in
  let weight_of z =
    (Bcg.find_edge n z).Bcg.weight (* [no_edge] weighs 0 *)
  in
  let w3 = weight_of 3 and w4 = weight_of 4 in
  check Alcotest.bool "3 heavier than 4 before decay" true (w3 > w4);
  (* visits without a successor run the node to its next decay pass *)
  let decays = bcg.Bcg.decays in
  while bcg.Bcg.decays = decays do
    Bcg.visit bcg n
  done;
  let w3' = weight_of 3 and w4' = weight_of 4 in
  check Alcotest.bool "ordering preserved" true (w3' > w4');
  check Alcotest.int "halved" (w3 / 2) w3';
  check Alcotest.int "halved too" (w4 / 2) w4'

let test_signal_on_best_change () =
  let bcg, signals = mk ~delay:1 ~decay:1_000_000 () in
  for _ = 1 to 10 do
    ignore (feed bcg ~x:1 ~y:2 ~z:3)
  done;
  let n = node_at bcg ~x:1 ~y:2 in
  recheck bcg n;
  let before = List.length !signals in
  (* successor flips to 4 *)
  for _ = 1 to 20 do
    ignore (feed bcg ~x:1 ~y:2 ~z:4)
  done;
  recheck bcg n;
  check Alcotest.bool "best change raised a signal" true
    (List.length !signals > before);
  let s = List.hd !signals in
  check Alcotest.bool "flagged as best change" true s.Bcg.s_best_changed

let test_counter_saturation () =
  let bcg, _ = mk ~delay:1 ~decay:1_000_000 () in
  for _ = 1 to 100_000 do
    ignore (feed bcg ~x:1 ~y:2 ~z:3)
  done;
  let n = node_at bcg ~x:1 ~y:2 in
  let e = best_edge bcg n in
  check Alcotest.bool "weight saturates at counter_max" true
    (e.Bcg.weight <= Config.counter_max)

let test_preds_maintained () =
  let bcg, _ = mk ~delay:1 () in
  ignore (feed bcg ~x:1 ~y:2 ~z:3);
  let n23 = node_at bcg ~x:2 ~y:3 in
  let n12 = node_at bcg ~x:1 ~y:2 in
  check Alcotest.bool "pred registered" true (List.memq n12 n23.Bcg.preds)

(* qcheck: correlations form a probability distribution *)
let prop_distribution =
  QCheck.Test.make ~name:"edge correlations sum to 1" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_range 0 4))
    (fun successors ->
      let bcg, _ = mk ~delay:1 ~decay:64 () in
      List.iter (fun z -> ignore (feed bcg ~x:1 ~y:2 ~z:(10 + z))) successors;
      let n = Bcg.find_node bcg ~x:1 ~y:2 in
      n != Bcg.no_node
      &&
      let total =
        List.fold_left (fun acc e -> acc +. Bcg.correlation n e) 0.0 n.Bcg.edges
      in
      n.Bcg.edges = [] || abs_float (total -. 1.0) < 1e-9)

let prop_correlation_bounds =
  QCheck.Test.make ~name:"correlations stay in [0,1] under decay" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 300) (int_range 0 3))
    (fun successors ->
      let bcg, _ = mk ~delay:1 ~decay:16 () in
      List.iter (fun z -> ignore (feed bcg ~x:1 ~y:2 ~z:(10 + z))) successors;
      let n = Bcg.find_node bcg ~x:1 ~y:2 in
      n != Bcg.no_node
      && List.for_all
           (fun e ->
             let c = Bcg.correlation n e in
             c >= 0.0 && c <= 1.0)
           n.Bcg.edges)

(* Every edge's target pointer is the node the table holds for its
   transition: [e_target == find_node ~x:n_y ~y:e_z].  The profiler
   follows the pointer instead of hashing, so this must survive
   everything that rewires the graph. *)
let targets_consistent bcg =
  let ok = ref true in
  Bcg.iter_nodes bcg (fun n ->
      List.iter
        (fun (e : Bcg.edge) ->
          if e.Bcg.e_target != Bcg.find_node bcg ~x:n.Bcg.n_y ~y:e.Bcg.e_z
          then ok := false)
        n.Bcg.edges);
  !ok

let sentinels_untouched () =
  Bcg.no_node.Bcg.exec_total = 0
  && Bcg.no_node.Bcg.edges = []
  && Bcg.no_node.Bcg.preds = []
  && Bcg.no_node.Bcg.best = None
  && Bcg.no_edge.Bcg.weight = 0

let prop_target_pointers =
  QCheck.Test.make ~name:"edge targets match the node table" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 50 800) (int_range 0 5))
    (fun stream ->
      (* a short decay period over a six-block alphabet: self-loops,
         frequent decay passes and edge pruning *)
      let config = Config.make ~start_state_delay:2 ~decay_period:4 () in
      let p = Profiler.create config ~n_blocks:8 ~on_signal:(fun _ -> ()) in
      let bcg = Profiler.bcg p in
      let feed l =
        List.iteri
          (fun i g ->
            (* now and then drop or resynchronize the context, as trace
               dispatch and the health ladder do *)
            if i mod 61 = 60 then Profiler.reset p
            else if i mod 37 = 36 then
              Profiler.resync p ~x:g ~y:((g + 1) mod 6);
            Profiler.dispatch p g)
          l
      in
      feed stream;
      let after_stream = targets_consistent bcg in
      (* the fast path changes how the target is found, not what is
         recorded: replaying the stream through the table on every
         transition builds the identical graph *)
      let reference = Bcg.create config ~n_blocks:8 ~on_signal:(fun _ -> ()) in
      let last = ref (-1) and ctx = ref Bcg.no_node in
      List.iteri
        (fun i g ->
          if i mod 61 = 60 then begin
            last := -1;
            ctx := Bcg.no_node
          end
          else if i mod 37 = 36 then begin
            last := (g + 1) mod 6;
            ctx := Bcg.find_node reference ~x:g ~y:!last
          end;
          if !last >= 0 then begin
            let target = Bcg.visit_node reference ~x:!last ~y:g in
            if !ctx != Bcg.no_node then
              Bcg.record_successor reference ~ctx:!ctx ~target;
            ctx := target
          end;
          last := g)
        stream;
      let same_as_table =
        Bcg.snapshot reference = Bcg.snapshot bcg
        && reference.Bcg.signals = bcg.Bcg.signals
      in
      (* skew every counter, heal every node, and keep profiling over
         the healed graph *)
      Bcg.iter_nodes bcg (fun n ->
          List.iter (fun (e : Bcg.edge) -> e.Bcg.weight <- 3 * e.Bcg.weight)
            n.Bcg.edges;
          n.Bcg.since_decay <- -1;
          ignore (Bcg.heal_node bcg n));
      let after_heal = targets_consistent bcg in
      feed (List.rev stream);
      let after_more = targets_consistent bcg in
      let restored = Bcg.create config ~n_blocks:8 ~on_signal:(fun _ -> ()) in
      Bcg.restore restored (Bcg.snapshot bcg);
      after_stream && same_as_table && after_heal && after_more
      && targets_consistent restored
      && Bcg.n_edges restored = Bcg.n_edges bcg
      && sentinels_untouched ())

let test_fast_path_prunes () =
  (* the property above only means something if pruning happens: a
     self-loop whose edge decays away while its node is visited from
     elsewhere must be rebuilt on its next use, not followed stale *)
  let config = Config.make ~start_state_delay:1 ~decay_period:2 () in
  let p = Profiler.create config ~n_blocks:8 ~on_signal:(fun _ -> ()) in
  let bcg = Profiler.bcg p in
  List.iter (Profiler.dispatch p) [ 1; 1; 1 ];
  (* N(1,1) keeps being entered from N(2,1), never from itself *)
  for _ = 1 to 40 do
    List.iter (Profiler.dispatch p) [ 2; 1; 1 ]
  done;
  let n11 = node_at bcg ~x:1 ~y:1 in
  check Alcotest.bool "self-loop edge pruned by decay" true
    (Bcg.find_edge n11 1 == Bcg.no_edge);
  Profiler.dispatch p 1;
  check Alcotest.bool "self-loop edge rebuilt" true
    (Bcg.find_edge n11 1 != Bcg.no_edge);
  check Alcotest.bool "targets consistent" true (targets_consistent bcg);
  check Alcotest.bool "sentinels untouched" true (sentinels_untouched ())

let () =
  Alcotest.run "bcg"
    [
      ( "construction",
        [
          tc "lazy creation" `Quick test_lazy_creation;
          tc "start state delay" `Quick test_start_state_delay;
          tc "preds maintained" `Quick test_preds_maintained;
        ] );
      ( "states",
        [
          tc "promotion signal" `Quick test_promotion_signal;
          tc "unique/strong/weak" `Quick test_unique_vs_strong_vs_weak;
          tc "correlation values" `Quick test_correlation_values;
          tc "signal on best change" `Quick test_signal_on_best_change;
        ] );
      ( "decay",
        [
          tc "halves and prunes" `Quick test_decay_halves_and_prunes;
          tc "preserves ordering" `Quick test_decay_preserves_ordering;
          tc "counter saturation" `Quick test_counter_saturation;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_distribution;
          QCheck_alcotest.to_alcotest prop_correlation_bounds;
        ] );
      ( "pointers",
        [
          tc "pruned edge rebuilt" `Quick test_fast_path_prunes;
          QCheck_alcotest.to_alcotest prop_target_pointers;
        ] );
    ]
