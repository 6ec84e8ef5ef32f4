(* The profiler: branch-context maintenance over a dispatch stream,
   inline-cache accounting, and resynchronization after unprofiled
   stretches. *)

module Profiler = Tracegen.Profiler
module Bcg = Tracegen.Bcg
module Config = Tracegen.Config

let tc = Alcotest.test_case
let check = Alcotest.check

(* BCG lookups return sentinels; a test expecting the node fails loudly *)
let node_at bcg ~x ~y =
  let n = Bcg.find_node bcg ~x ~y in
  if n == Bcg.no_node then Alcotest.failf "no node (%d,%d)" x y else n

let edge_to n z =
  let e = Bcg.find_edge n z in
  if e == Bcg.no_edge then Alcotest.failf "no edge to %d" z else e

let mk ?(delay = 1) () =
  let config = Config.make ~start_state_delay:delay () in
  Profiler.create config ~n_blocks:100 ~on_signal:(fun _ -> ())

let test_first_dispatch_creates_nothing () =
  let p = mk () in
  Profiler.dispatch p 5;
  check Alcotest.int "no node from a single dispatch" 0
    (Bcg.n_nodes (Profiler.bcg p));
  check Alcotest.int "dispatch counted" 1 (Profiler.dispatches p)

let test_nodes_from_stream () =
  let p = mk () in
  List.iter (Profiler.dispatch p) [ 1; 2; 3; 1; 2; 3 ];
  let bcg = Profiler.bcg p in
  (* transitions: (1,2) (2,3) (3,1) (1,2) (2,3) *)
  check Alcotest.bool "node (1,2)" true
    (Bcg.find_node bcg ~x:1 ~y:2 != Bcg.no_node);
  check Alcotest.bool "node (2,3)" true
    (Bcg.find_node bcg ~x:2 ~y:3 != Bcg.no_node);
  check Alcotest.bool "node (3,1)" true
    (Bcg.find_node bcg ~x:3 ~y:1 != Bcg.no_node);
  let n12 = node_at bcg ~x:1 ~y:2 in
  check Alcotest.int "node (1,2) executed twice" 2 n12.Bcg.exec_total;
  (* edge (1,2)->(2,3) recorded twice *)
  let e = edge_to n12 3 in
  (* an event weighs 256 counter units *)
  check Alcotest.int "edge weight is two events" (2 * 256) e.Bcg.weight

let test_inline_cache_predictions () =
  let p = mk () in
  (* a repeating cycle becomes fully predicted after warm-up *)
  for _ = 1 to 50 do
    List.iter (Profiler.dispatch p) [ 1; 2; 3 ]
  done;
  let predicted = Profiler.predictions p in
  let total = Profiler.dispatches p in
  check Alcotest.bool
    (Printf.sprintf "most dispatches predicted (%d/%d)" predicted total)
    true
    (float_of_int predicted > 0.8 *. float_of_int total)

let test_resync () =
  let p = mk () in
  List.iter (Profiler.dispatch p) [ 1; 2; 3; 1; 2; 3; 1; 2 ];
  let bcg = Profiler.bcg p in
  let n23 = node_at bcg ~x:2 ~y:3 in
  let execs_before = n23.Bcg.exec_total in
  (* pretend blocks 3 then 1 executed inside a trace, unprofiled *)
  Profiler.resync p ~x:3 ~y:1;
  check Alcotest.int "resync does not count executions" execs_before
    n23.Bcg.exec_total;
  (* next dispatch records the edge from the resynced context (3,1) *)
  Profiler.dispatch p 2;
  let n31 = node_at bcg ~x:3 ~y:1 in
  check Alcotest.bool "edge from resynced context" true
    (Bcg.find_edge n31 2 != Bcg.no_edge)

let test_resync_unknown_context () =
  let p = mk () in
  List.iter (Profiler.dispatch p) [ 1; 2; 3 ];
  (* resync to a pair never observed: context must be dropped, and the
     following dispatch must not invent an edge from it *)
  Profiler.resync p ~x:50 ~y:60;
  Profiler.dispatch p 61;
  let bcg = Profiler.bcg p in
  check Alcotest.bool "no node fabricated for (50,60)" true
    (Bcg.find_node bcg ~x:50 ~y:60 == Bcg.no_node);
  (* but the visit of (60,61) is recorded: the transition did happen *)
  check Alcotest.bool "transition (60,61) recorded" true
    (Bcg.find_node bcg ~x:60 ~y:61 != Bcg.no_node)

let test_signals_counted () =
  let signals = ref 0 in
  let config = Config.make ~start_state_delay:4 () in
  let p =
    Profiler.create config ~n_blocks:100 ~on_signal:(fun _ -> incr signals)
  in
  for _ = 1 to 50 do
    List.iter (Profiler.dispatch p) [ 1; 2; 3 ]
  done;
  check Alcotest.int "profiler signal count matches callback count" !signals
    (Profiler.signals p);
  check Alcotest.bool "promotions produced signals" true (!signals > 0)

let test_reset () =
  let p = mk () in
  List.iter (Profiler.dispatch p) [ 1; 2; 3 ];
  Profiler.reset p;
  Profiler.dispatch p 7;
  let bcg = Profiler.bcg p in
  check Alcotest.bool "no transition across a reset" true
    (Bcg.find_node bcg ~x:3 ~y:7 == Bcg.no_node)

(* The profiler without its resync memo, inline-cache first lookup or
   single successor scan: every resync probes the node table, and every
   hook searches the context's successor list, then searches it again
   to record the successor.  It also counts how often the situations
   the fast paths must get right occurred. *)
module Reference = struct
  type t = {
    bcg : Bcg.t;
    mutable last : int;
    mutable ctx : Bcg.node;
    mutable predictions : int;
    mutable pruned_in_visit : int; (* hook edges a decay pruned mid-visit *)
    mutable absent_resyncs : int; (* resyncs to a node not yet built *)
    mutable switched_resyncs : int; (* resyncs to [y] from another [x] *)
    last_x : (int, int) Hashtbl.t; (* y -> x of the last resync found *)
  }

  let create config ~n_blocks ~on_signal =
    {
      bcg = Bcg.create config ~n_blocks ~on_signal;
      last = -1;
      ctx = Bcg.no_node;
      predictions = 0;
      pruned_in_visit = 0;
      absent_resyncs = 0;
      switched_resyncs = 0;
      last_x = Hashtbl.create 8;
    }

  let dispatch t z =
    let y = t.last in
    if y >= 0 then begin
      let ctx = t.ctx in
      if ctx == Bcg.no_node then t.ctx <- Bcg.visit_node t.bcg ~x:y ~y:z
      else begin
        let e = Bcg.find_edge ctx z in
        let target =
          if e == Bcg.no_edge then Bcg.visit_node t.bcg ~x:y ~y:z
          else begin
            Bcg.visit t.bcg e.Bcg.e_target;
            if Bcg.find_edge ctx z == Bcg.no_edge then
              t.pruned_in_visit <- t.pruned_in_visit + 1;
            e.Bcg.e_target
          end
        in
        (match ctx.Bcg.best with
        | Some b when b.Bcg.e_z = z -> t.predictions <- t.predictions + 1
        | Some _ | None -> ());
        Bcg.record_successor t.bcg ~ctx ~target;
        t.ctx <- target
      end
    end;
    t.last <- z

  let resync t ~x ~y =
    t.last <- y;
    t.ctx <- (if x >= 0 then Bcg.find_node t.bcg ~x ~y else Bcg.no_node);
    if x >= 0 then
      if t.ctx == Bcg.no_node then t.absent_resyncs <- t.absent_resyncs + 1
      else begin
        (match Hashtbl.find_opt t.last_x y with
        | Some x' when x' <> x -> t.switched_resyncs <- t.switched_resyncs + 1
        | Some _ | None -> ());
        Hashtbl.replace t.last_x y x
      end

  let reset t =
    t.last <- -1;
    t.ctx <- Bcg.no_node
end

type op =
  | Dispatch of int
  | Resync of int * int
  | Reset
  | Drop_best of int * int (* FT005 on node (x, y), when it exists *)

(* Feed one op sequence to a profiler and to the reference, comparing
   their graphs after every op and their predictions and signals at the
   end.  Returns the reference, whose counters say what was covered. *)
let lockstep ?(config = Config.make ~start_state_delay:2 ~decay_period:2 ())
    ~n_blocks ops =
  let log = ref [] and ref_log = ref [] in
  let signal l (s : Bcg.signal) =
    l := (s.Bcg.s_node.Bcg.n_x, s.Bcg.s_node.Bcg.n_y, s.Bcg.s_best_changed) :: !l
  in
  let p = Profiler.create config ~n_blocks ~on_signal:(signal log) in
  let r = Reference.create config ~n_blocks ~on_signal:(signal ref_log) in
  let drop bcg ~x ~y =
    let n = Bcg.find_node bcg ~x ~y in
    if n != Bcg.no_node then n.Bcg.best <- None
  in
  List.iteri
    (fun i op ->
      (match op with
      | Dispatch g ->
          Profiler.dispatch p g;
          Reference.dispatch r g
      | Resync (x, y) ->
          Profiler.resync p ~x ~y;
          Reference.resync r ~x ~y
      | Reset ->
          Profiler.reset p;
          Reference.reset r
      | Drop_best (x, y) ->
          drop (Profiler.bcg p) ~x ~y;
          drop r.Reference.bcg ~x ~y);
      if Bcg.snapshot (Profiler.bcg p) <> Bcg.snapshot r.Reference.bcg then
        Alcotest.failf "graphs differ after op %d" i)
    ops;
  check Alcotest.int "predictions" r.Reference.predictions
    (Profiler.predictions p);
  check
    Alcotest.(list (triple int int bool))
    "signals" (List.rev !ref_log) (List.rev !log);
  r

let dispatches l = List.map (fun g -> Dispatch g) l

(* Trace exits alternate between two contexts ending at block 3: the
   memo for 3 keeps switching, and must follow. *)
let test_lockstep_alternating_x () =
  let warm = dispatches [ 1; 3; 4; 2; 3; 4; 1; 3; 4; 2; 3; 4 ] in
  let exits =
    List.concat
      (List.init 20 (fun i ->
           let x = if i mod 2 = 0 then 1 else 2 in
           [ Resync (x, 3); Dispatch 4; Dispatch x ]))
  in
  let r = lockstep ~n_blocks:8 (warm @ exits) in
  check Alcotest.bool "switched between contexts" true
    (r.Reference.switched_resyncs >= 10)

(* A resync to a transition the graph has not seen finds no node, and
   must not hide the node once it exists. *)
let test_lockstep_resync_before_node () =
  let ops =
    [ Dispatch 1; Dispatch 2; Resync (7, 8); Dispatch 9; Dispatch 7;
      Dispatch 8; Dispatch 9; Resync (7, 8); Dispatch 9; Dispatch 7;
      Dispatch 8; Resync (7, 8); Dispatch 9 ]
  in
  let r = lockstep ~n_blocks:10 ops in
  check Alcotest.int "one resync before the node" 1 r.Reference.absent_resyncs

(* A self-loop node N(5,5) visited as its own successor can decay its
   own edges during the visit, pruning the very edge the hook found. *)
let test_lockstep_self_loop_decay () =
  let pruned = ref 0 in
  for k = 0 to 24 do
    let ops =
      dispatches
        ([ 5; 5; 5 ]
        @ List.concat (List.init k (fun _ -> [ 6; 5; 5 ]))
        @ [ 6; 5; 5; 5; 5; 5; 6; 5; 5; 5 ])
    in
    let r = lockstep ~n_blocks:8 ops in
    pruned := !pruned + r.Reference.pruned_in_visit
  done;
  check Alcotest.bool "a hook edge was pruned mid-visit" true (!pruned > 0)

(* FT005 clears inline caches under the profiler's feet; random streams
   over a small alphabet mix that with resyncs, resets and a hot
   self-loop. *)
let test_lockstep_random () =
  let rng = Random.State.make [| 28 |] in
  let absent = ref 0 and switched = ref 0 in
  for _ = 1 to 60 do
    let ops =
      List.init 400 (fun _ ->
          let a = Random.State.int rng 5 and b = Random.State.int rng 5 in
          match Random.State.int rng 20 with
          | 0 -> Resync (a, b)
          | 1 -> Drop_best (a, b)
          | 2 when Random.State.int rng 4 = 0 -> Reset
          | k when k < 9 -> Dispatch 0 (* a hot self-loop *)
          | _ -> Dispatch a)
    in
    let r = lockstep ~n_blocks:5 ops in
    absent := !absent + r.Reference.absent_resyncs;
    switched := !switched + r.Reference.switched_resyncs
  done;
  check Alcotest.bool "covered absent and switched resyncs" true
    (!absent > 0 && !switched > 0)

let () =
  Alcotest.run "profiler"
    [
      ( "stream",
        [
          tc "first dispatch" `Quick test_first_dispatch_creates_nothing;
          tc "nodes from stream" `Quick test_nodes_from_stream;
          tc "inline cache" `Quick test_inline_cache_predictions;
          tc "signals counted" `Quick test_signals_counted;
        ] );
      ( "resync",
        [
          tc "resync context" `Quick test_resync;
          tc "resync unknown pair" `Quick test_resync_unknown_context;
          tc "reset" `Quick test_reset;
        ] );
      ( "reference",
        [
          tc "alternating exits to one block" `Quick
            test_lockstep_alternating_x;
          tc "resync before its node exists" `Quick
            test_lockstep_resync_before_node;
          tc "self-loop decays inside its visit" `Quick
            test_lockstep_self_loop_decay;
          tc "random streams with drop-best" `Quick test_lockstep_random;
        ] );
    ]
