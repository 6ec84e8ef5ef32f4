(* The branch correlation graph: lazy construction, start-state delay,
   decay, pruning, state evaluation and signalling. *)

module Bcg = Tracegen.Bcg
module State = Tracegen.State
module Config = Tracegen.Config

let tc = Alcotest.test_case
let check = Alcotest.check

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
    (Bcg.find_node bcg ~x:1 ~y:2 <> None);
  check Alcotest.bool "lookup misses others" true
    (Bcg.find_node bcg ~x:2 ~y:1 = None)

let test_start_state_delay () =
  let bcg, _ = mk ~delay:3 () in
  let n = Bcg.visit_node bcg ~x:1 ~y:2 in
  check state_t "newly created" State.Newly_created n.Bcg.state;
  let _ = Bcg.visit_node bcg ~x:1 ~y:2 in
  check state_t "still new after 2 visits" State.Newly_created n.Bcg.state;
  let _ = Bcg.visit_node bcg ~x:1 ~y:2 in
  check Alcotest.bool "hot after delay visits" true (State.is_hot n.Bcg.state)

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
  let n12 = Option.get (Bcg.find_node bcg ~x:1 ~y:2) in
  (* state is evaluated at promotion and decay; force a recheck *)
  Bcg.recheck bcg n12;
  check state_t "single successor is unique" State.Unique n12.Bcg.state;
  (* node (5,6): 19 of 20 to 7, 1 to 8 -> strong at 0.9 *)
  for _ = 1 to 19 do
    ignore (feed bcg ~x:5 ~y:6 ~z:7)
  done;
  ignore (feed bcg ~x:5 ~y:6 ~z:8);
  let n56 = Option.get (Bcg.find_node bcg ~x:5 ~y:6) in
  Bcg.recheck bcg n56;
  check state_t "biased successor is strong" State.Strongly_correlated
    n56.Bcg.state;
  (* node (9,10): 50/50 -> weak *)
  for _ = 1 to 5 do
    ignore (feed bcg ~x:9 ~y:10 ~z:11);
    ignore (feed bcg ~x:9 ~y:10 ~z:12)
  done;
  let n910 = Option.get (Bcg.find_node bcg ~x:9 ~y:10) in
  Bcg.recheck bcg n910;
  check state_t "balanced successors are weak" State.Weakly_correlated
    n910.Bcg.state

let test_correlation_values () =
  let bcg, _ = mk ~delay:1 () in
  for _ = 1 to 3 do
    ignore (feed bcg ~x:1 ~y:2 ~z:3)
  done;
  ignore (feed bcg ~x:1 ~y:2 ~z:4);
  let n = Option.get (Bcg.find_node bcg ~x:1 ~y:2) in
  let best = Option.get (Bcg.best_edge n) in
  check Alcotest.int "best edge is the 3-successor" 3 best.Bcg.e_z;
  check (Alcotest.float 1e-9) "correlation 3/4" 0.75 (Bcg.correlation n best)

let test_decay_halves_and_prunes () =
  let bcg, _ = mk ~delay:1 ~decay:8 () in
  (* one rare successor (weight 256 units), then decay passes *)
  ignore (feed bcg ~x:1 ~y:2 ~z:9);
  for _ = 1 to 20 do
    ignore (feed bcg ~x:1 ~y:2 ~z:3)
  done;
  let n = Option.get (Bcg.find_node bcg ~x:1 ~y:2) in
  check Alcotest.int "two successors before pruning" 2
    (List.length n.Bcg.edges);
  (* the rare edge's 256 units need 8 halvings to clear — the paper's
     2048-execution history clearing, scaled to this decay period *)
  for _ = 1 to 600 do
    ignore (feed bcg ~x:1 ~y:2 ~z:3)
  done;
  check Alcotest.int "rare edge pruned after decays" 1
    (List.length n.Bcg.edges);
  Bcg.recheck bcg n;
  check state_t "node becomes unique again" State.Unique n.Bcg.state

let test_decay_preserves_ordering () =
  let bcg, _ = mk ~delay:1 ~decay:1_000_000 () in
  for _ = 1 to 7 do
    ignore (feed bcg ~x:1 ~y:2 ~z:3)
  done;
  for _ = 1 to 3 do
    ignore (feed bcg ~x:1 ~y:2 ~z:4)
  done;
  let n = Option.get (Bcg.find_node bcg ~x:1 ~y:2) in
  let weight_of z =
    match Bcg.find_edge n z with Some e -> e.Bcg.weight | None -> 0
  in
  let w3 = weight_of 3 and w4 = weight_of 4 in
  check Alcotest.bool "3 heavier than 4 before decay" true (w3 > w4);
  Bcg.decay bcg n;
  let w3' = weight_of 3 and w4' = weight_of 4 in
  check Alcotest.bool "ordering preserved" true (w3' > w4');
  check Alcotest.int "halved" (w3 / 2) w3';
  check Alcotest.int "halved too" (w4 / 2) w4'

let test_signal_on_best_change () =
  let bcg, signals = mk ~delay:1 ~decay:1_000_000 () in
  for _ = 1 to 10 do
    ignore (feed bcg ~x:1 ~y:2 ~z:3)
  done;
  let n = Option.get (Bcg.find_node bcg ~x:1 ~y:2) in
  Bcg.recheck bcg n;
  let before = List.length !signals in
  (* successor flips to 4 *)
  for _ = 1 to 20 do
    ignore (feed bcg ~x:1 ~y:2 ~z:4)
  done;
  Bcg.recheck bcg n;
  check Alcotest.bool "best change raised a signal" true
    (List.length !signals > before);
  let s = List.hd !signals in
  check Alcotest.bool "flagged as best change" true s.Bcg.s_best_changed

let test_counter_saturation () =
  let bcg, _ = mk ~delay:1 ~decay:1_000_000 () in
  for _ = 1 to 100_000 do
    ignore (feed bcg ~x:1 ~y:2 ~z:3)
  done;
  let n = Option.get (Bcg.find_node bcg ~x:1 ~y:2) in
  let e = Option.get (Bcg.best_edge n) in
  check Alcotest.bool "weight saturates at counter_max" true
    (e.Bcg.weight <= Config.counter_max)

let test_preds_maintained () =
  let bcg, _ = mk ~delay:1 () in
  ignore (feed bcg ~x:1 ~y:2 ~z:3);
  let n23 = Option.get (Bcg.find_node bcg ~x:2 ~y:3) in
  let n12 = Option.get (Bcg.find_node bcg ~x:1 ~y:2) in
  check Alcotest.bool "pred registered" true (List.memq n12 n23.Bcg.preds)

(* qcheck: correlations form a probability distribution *)
let prop_distribution =
  QCheck.Test.make ~name:"edge correlations sum to 1" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_range 0 4))
    (fun successors ->
      let bcg, _ = mk ~delay:1 ~decay:64 () in
      List.iter (fun z -> ignore (feed bcg ~x:1 ~y:2 ~z:(10 + z))) successors;
      match Bcg.find_node bcg ~x:1 ~y:2 with
      | None -> false
      | Some n ->
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
      match Bcg.find_node bcg ~x:1 ~y:2 with
      | None -> false
      | Some n ->
          List.for_all
            (fun e ->
              let c = Bcg.correlation n e in
              c >= 0.0 && c <= 1.0)
            n.Bcg.edges)

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
    ]
