module Layout = Cfg.Layout

(* The branch correlation graph (paper §3.5, §4.1).

   There is one node [N_XY] for every pair of basic blocks (X, Y) observed
   executing in sequence, and one edge [E_XYZ] from N_XY to N_YZ for every
   observed triple — the edge counter measures how often the branch (Y, Z)
   follows the branch (X, Y), i.e. a depth-one per-address history table.

   Counters are 16-bit and saturating.  Every [decay_period] executions of a
   node, all of its edge weights are shifted right one bit (periodic
   exponential decay, halving the weight of history); edges whose weight
   reaches zero are pruned, which is how a node can become [Unique] again
   after a phase change.  During decay the node's state and maximally
   correlated successor are re-evaluated; if either changed, a signal is
   raised to the trace cache. *)

type node = {
  n_x : Layout.gid;
  n_y : Layout.gid;
  mutable exec_total : int; (* lifetime executions, for statistics *)
  mutable delay_left : int; (* start-state countdown *)
  mutable since_decay : int;
  mutable state : State.t;
  mutable edges : edge list; (* successor correlations; usually 1-3 long *)
  mutable best : edge option; (* inline cache: current most-likely successor *)
  mutable best_at_recheck : Layout.gid;
    (* the maximally correlated successor as of the last recheck; the
       paper's "maximally correlated branch changed" signal compares
       against this snapshot, not the live inline cache (-1 = none) *)
  mutable preds : node list; (* nodes with an edge into this one *)
  mutable mark : int;
    (* search stamp: a graph search stamps each node it reaches with a
       value at or above the base [fresh_marks] gave it, so a mark below
       the base means "not reached by this search" and nothing has to be
       cleared afterwards.  0 = never reached. *)
}

and edge = {
  e_z : Layout.gid; (* the successor block: this edge targets N_YZ *)
  e_target : node;
  mutable weight : int;
}

and signal = {
  s_graph : t; (* the graph [s_node] belongs to *)
  s_node : node;
  s_old_state : State.t;
  s_new_state : State.t;
  s_best_changed : bool;
}

and t = {
  config : Config.t;
  n_blocks : int;
  nodes : node Int_table.t; (* key = x * n_blocks + y *)
  on_signal : signal -> unit;
  mutable node_count : int;
  mutable edge_count : int;
  mutable decays : int; (* decay passes performed, for statistics *)
  mutable signals : int;
  mutable mark_top : int; (* every node's [mark] is below this *)
}

let new_node ~x ~y ~delay_left =
  {
    n_x = x;
    n_y = y;
    exec_total = 0;
    delay_left;
    since_decay = 0;
    state = State.Newly_created;
    edges = [];
    best = None;
    best_at_recheck = -1;
    preds = [];
    mark = 0;
  }

(* The sentinels lookups return instead of an option, so a probe
   allocates nothing.  [no_node] is also the profiler's "no branch
   context yet"; neither is ever mutated or linked into the graph. *)
let no_node = new_node ~x:(-1) ~y:(-1) ~delay_left:0

let no_edge = { e_z = -1; e_target = no_node; weight = 0 }

let create (config : Config.t) ~n_blocks ~on_signal =
  {
    config;
    n_blocks;
    nodes = Int_table.create 4096;
    on_signal;
    node_count = 0;
    edge_count = 0;
    decays = 0;
    signals = 0;
    mark_top = 1;
  }

(* Open a graph search that needs [width] distinct mark values: they
   are [base .. base + width - 1], all above every mark already set, so
   "reached by this search" is [n.mark >= base]. *)
let fresh_marks t ~width =
  let base = t.mark_top in
  t.mark_top <- base + width;
  base

let key t x y = (x * t.n_blocks) + y

let find_node t ~x ~y =
  match Int_table.find t.nodes (key t x y) with
  | n -> n
  | exception Not_found -> no_node

(* Sum of outgoing edge weights: the denominator of every correlation. *)
let rec sum_weights acc = function
  | [] -> acc
  | e :: rest -> sum_weights (acc + e.weight) rest

(* Correlation of one successor: the probability of taking branch (Y, Z)
   given that the last branch taken was (X, Y).  Inlined so the float
   reaches its caller unboxed. *)
let[@inline] correlation (n : node) (e : edge) =
  let total = sum_weights 0 n.edges in
  if total = 0 then 0.0 else float_of_int e.weight /. float_of_int total

(* The heaviest edge, the first of equal weights; [no_edge] when the
   node has none. *)
let rec heavier best = function
  | [] -> best
  | e :: rest -> heavier (if e.weight > best.weight then e else best) rest

let heaviest (n : node) =
  match n.edges with [] -> no_edge | e0 :: rest -> heavier e0 rest

let best_edge (n : node) : edge option =
  let e = heaviest n in
  if e == no_edge then None else Some e

(* The state of a hot node whose heaviest edge is [best]. *)
let evaluate_state t (n : node) (best : edge) : State.t =
  match n.edges with
  | [] -> State.Weakly_correlated
  | [ _ ] -> State.Unique
  | _ ->
      if correlation n best >= Config.threshold t.config then
        State.Strongly_correlated
      else State.Weakly_correlated

(* Point the inline cache at [best], keeping its option when it already
   holds that edge. *)
let set_best (n : node) (best : edge) =
  if best == no_edge then n.best <- None
  else
    match n.best with
    | Some b when b == best -> ()
    | Some _ | None -> n.best <- Some best

(* Re-evaluate state and best successor; raise a signal if either changed.
   Called at start-state promotion and during decay. *)
(* A state change is signalled to the trace cache when it could affect a
   trace: the branch moved across the followable boundary (unique/strong
   vs. weak/new — a unique<->strong transition changes nothing the trace
   cache acts on, which is why at a 100% threshold the two states are
   indistinguishable), or the maximally correlated successor of a
   followable branch changed. *)
let recheck t (n : node) =
  let old_state = n.state in
  let old_best_gid = n.best_at_recheck in
  let best = heaviest n in
  let new_state = evaluate_state t n best in
  n.state <- new_state;
  set_best n best;
  (* [no_edge.e_z] is -1, the snapshot's "none" *)
  n.best_at_recheck <- best.e_z;
  let best_changed = old_best_gid <> best.e_z in
  let followable_changed =
    State.is_followable old_state <> State.is_followable new_state
  in
  if followable_changed || (State.is_followable new_state && best_changed)
  then begin
    t.signals <- t.signals + 1;
    t.on_signal
      {
        s_graph = t;
        s_node = n;
        s_old_state = old_state;
        s_new_state = new_state;
        s_best_changed = best_changed;
      }
  end

let rec without pred = function
  | [] -> []
  | p :: rest -> if p == pred then rest else p :: without pred rest

let remove_pred (n : node) ~(pred : node) = n.preds <- without pred n.preds

(* Halve every weight in place; the number of edges that reached 0. *)
let rec halve dead = function
  | [] -> dead
  | e :: rest ->
      e.weight <- e.weight lsr 1;
      halve (if e.weight = 0 then dead + 1 else dead) rest

(* [n]'s edges without the dead ones, in order, sharing the tail after
   the last dead edge; each dead edge leaves the graph. *)
let rec prune t (n : node) l =
  match l with
  | [] -> l
  | e :: rest ->
      let rest' = prune t n rest in
      if e.weight = 0 then begin
        t.edge_count <- t.edge_count - 1;
        remove_pred e.e_target ~pred:n;
        rest'
      end
      else if rest' == rest then l
      else e :: rest'

(* Periodic exponential decay: shift this node's edge weights right one bit,
   prune dead edges, then recheck the node's correlation state.  A pass
   that kills no edge allocates nothing. *)
let decay t (n : node) =
  t.decays <- t.decays + 1;
  if halve 0 n.edges > 0 then n.edges <- prune t n n.edges;
  recheck t n

let make_node t ~x ~y =
  let n = new_node ~x ~y ~delay_left:(Config.start_state_delay t.config) in
  Int_table.replace t.nodes (key t x y) n;
  t.node_count <- t.node_count + 1;
  n

(* Count one execution of [n]'s branch: the start-state countdown
   (promotion out of the newly-created state re-evaluates correlations
   and may raise the node's first signal) or the periodic decay. *)
let visit t (n : node) =
  n.exec_total <- n.exec_total + 1;
  if n.delay_left > 0 then begin
    n.delay_left <- n.delay_left - 1;
    if n.delay_left = 0 then recheck t n
  end
  else begin
    n.since_decay <- n.since_decay + 1;
    if n.since_decay >= Config.decay_period t.config then begin
      n.since_decay <- 0;
      decay t n
    end
  end

(* Record one execution of branch (x, y): the block y was just dispatched
   after block x.  Returns the (possibly fresh) node so the profiler can
   keep it as the new branch context. *)
let visit_node t ~x ~y : node =
  let n = find_node t ~x ~y in
  let n = if n == no_node then make_node t ~x ~y else n in
  visit t n;
  n

let rec edge_to z = function
  | [] -> no_edge
  | e :: rest -> if e.e_z = z then e else edge_to z rest

let find_edge (n : node) z = edge_to z n.edges

(* One observed branch event is worth 256 counter units, so a single
   observation survives log2(256) = 8 decay shifts — the paper's "it takes
   up to 2048 = 256 log2 256 iterations to completely clear a history".
   This is what keeps a once-in-a-while loop exit visible in the
   correlations (and the loop's node merely *strongly* correlated rather
   than unique) instead of evaporating at the first decay. *)
let event_weight = 256

(* Keep [ctx]'s inline cache current after [e] moved: the cached
   most-likely successor is replaced as soon as another edge overtakes
   it.  State signals are still only raised at the periodic recheck, as
   in the paper. *)
let[@inline] refresh_best (ctx : node) (e : edge) =
  match ctx.best with
  | Some b when b.weight >= e.weight -> ()
  | Some _ | None -> ctx.best <- Some e

(* Record one more traversal of [ctx]'s known edge [e].  Saturating
   16-bit counter; [Int.min], because the polymorphic [min] is a C
   call. *)
let[@inline] bump_edge (ctx : node) (e : edge) =
  e.weight <- Int.min (e.weight + event_weight) Config.counter_max;
  refresh_best ctx e

(* Create edge E_XYZ from [ctx] = N_XY to [target] = N_YZ, which [ctx]
   does not have yet. *)
let add_edge t ~(ctx : node) ~(target : node) =
  let e = { e_z = target.n_y; e_target = target; weight = event_weight } in
  ctx.edges <- e :: ctx.edges;
  t.edge_count <- t.edge_count + 1;
  if not (List.memq ctx target.preds) then target.preds <- ctx :: target.preds;
  refresh_best ctx e

(* Record that branch (y, z) followed branch (x, y): bump (or create) edge
   E_XYZ from [ctx] = N_XY to [target] = N_YZ. *)
let record_successor t ~(ctx : node) ~(target : node) =
  let known = find_edge ctx target.n_y in
  if known != no_edge then bump_edge ctx known else add_edge t ~ctx ~target

(* Self-healing: clamp a node's counters and bookkeeping back into their
   legal ranges, then recheck so the inline cache and correlation state
   are recomputed from the (repaired) edges.  Called by the engine on
   nodes a TL2xx check flagged — a corrupted counter loses its history
   but the node keeps profiling, which is the graceful outcome: the
   correlations re-converge within one decay period. *)
let heal_node t (n : node) : bool =
  let repaired = ref false in
  let clamp lo hi v =
    let v' = Int.max lo (Int.min hi v) in
    if v' <> v then repaired := true;
    v'
  in
  List.iter
    (fun e -> e.weight <- clamp 1 Config.counter_max e.weight)
    n.edges;
  n.since_decay <- clamp 0 (Config.decay_period t.config - 1) n.since_decay;
  n.delay_left <- clamp 0 (Config.start_state_delay t.config) n.delay_left;
  if n.delay_left > 0 <> (n.state = State.Newly_created) then begin
    (* trust the state over the countdown: a promoted node stays promoted *)
    n.delay_left <- (if n.state = State.Newly_created then 1 else 0);
    repaired := true
  end;
  (* recompute state and best from the repaired edges; signals fire as
     usual, so the trace machinery reacts to any correlation change *)
  recheck t n;
  (* recheck may itself promote the node out of its start state; keep the
     countdown consistent with the recomputed state (not a repair — the
     mismatch did not pre-exist) so healing converges in one call *)
  if n.delay_left > 0 <> (n.state = State.Newly_created) then
    n.delay_left <- (if n.state = State.Newly_created then 1 else 0);
  !repaired

(* Warm-start snapshots.  A snapshot flattens the graph — nodes with
   their counters and correlation state, edges as (successor, weight)
   pairs — in canonical order (nodes by (x, y), edges by z), so snapshot
   → restore → snapshot is bit-identical.  Restoring rebuilds the edge
   and predecessor pointers and the inline caches without raising any
   signal: the graph resumes exactly where it stopped, and the trace
   cache half of the same snapshot already holds the traces those
   signals built. *)

type node_snap = {
  ns_x : Layout.gid;
  ns_y : Layout.gid;
  ns_exec_total : int;
  ns_delay_left : int;
  ns_since_decay : int;
  ns_state : State.t;
  ns_best_at_recheck : Layout.gid;
  ns_edges : (Layout.gid * int) list; (* (z, weight), sorted by z *)
}

let snapshot t : node_snap list =
  let acc = ref [] in
  Int_table.iter
    (fun _ (n : node) ->
      let edges =
        List.map (fun e -> (e.e_z, e.weight)) n.edges
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      acc :=
        {
          ns_x = n.n_x;
          ns_y = n.n_y;
          ns_exec_total = n.exec_total;
          ns_delay_left = n.delay_left;
          ns_since_decay = n.since_decay;
          ns_state = n.state;
          ns_best_at_recheck = n.best_at_recheck;
          ns_edges = edges;
        }
        :: !acc)
    t.nodes;
  List.sort
    (fun a b ->
      match Int.compare a.ns_x b.ns_x with
      | 0 -> Int.compare a.ns_y b.ns_y
      | c -> c)
    !acc

let restore t (snaps : node_snap list) =
  if t.node_count > 0 then invalid_arg "Bcg.restore: non-empty graph";
  (* first pass: materialise every node with its scalar state *)
  List.iter
    (fun s ->
      let n = make_node t ~x:s.ns_x ~y:s.ns_y in
      n.exec_total <- s.ns_exec_total;
      n.delay_left <- s.ns_delay_left;
      n.since_decay <- s.ns_since_decay;
      n.state <- s.ns_state;
      n.best_at_recheck <- s.ns_best_at_recheck)
    snaps;
  (* second pass: rebuild edges, predecessor lists and inline caches *)
  List.iter
    (fun s ->
      let n = find_node t ~x:s.ns_x ~y:s.ns_y in
      List.iter
        (fun (z, w) ->
          let target = find_node t ~x:s.ns_y ~y:z in
          if target == no_node then
            invalid_arg "Bcg.restore: edge target is not in the snapshot";
          let e = { e_z = z; e_target = target; weight = w } in
          n.edges <- e :: n.edges;
          t.edge_count <- t.edge_count + 1;
          if not (List.memq n target.preds) then
            target.preds <- n :: target.preds)
        s.ns_edges;
      n.edges <- List.rev n.edges;
      n.best <- best_edge n)
    snaps

(* Inspection helpers *)

let iter_nodes t f = Int_table.iter (fun _ n -> f n) t.nodes

let n_nodes t = t.node_count

let n_edges t = t.edge_count

let pp_node layout ppf (n : node) =
  Format.fprintf ppf "N(%s -> %s) state=%a execs=%d edges=[%s]"
    (Layout.describe layout n.n_x)
    (Layout.describe layout n.n_y)
    State.pp n.state n.exec_total
    (String.concat "; "
       (List.map
          (fun e ->
            Printf.sprintf "%s w=%d" (Layout.describe layout e.e_z) e.weight)
          n.edges))
