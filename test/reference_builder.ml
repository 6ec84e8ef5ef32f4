(* The trace builder as it was before construction moved into the
   cache's scratch space: the entry search and the walk keep their
   visited sets in hash tables keyed by (x, y) tuples, paths and
   correlations are lists turned into arrays, and every candidate is a
   fresh array.  Test-only: test_trace_builder's "lockstep" group
   drives it and [Tracegen.Trace_builder] from the same graphs and
   requires the same install calls, in the same order, and the same
   outcomes.  Kept as it was; do not tune it. *)

open Tracegen

module Layout = Cfg.Layout

(* Trace (re)construction in response to a profiler signal (paper §4.2).

   1. Entry points: backtrack from the signalled node along strongly
      correlated incoming edges — predecessors whose maximally correlated
      successor is the node being left — collecting the set of transitions
      from which execution is likely to reach the modified branch.

   2. From each entry point, follow the path of maximum likelihood (the
      cached best successor of each node) while nodes remain followable
      (unique or strongly correlated), stopping at a weakly correlated or
      newly created branch, at a node already on the path (a loop), or at
      the walk cap.

   3. If the path closed a loop, the loop is processed first, as its own
      segment: because traces are entered by *transition*, a loop-body
      trace whose last block is the back-edge source chains back into
      itself, which plays the role of the paper's single unrolling.

   4. Each segment is cut greedily into traces whose cumulative completion
      probability (product of the correlations along the trace) stays at or
      above the completion threshold, then installed into the cache
      (hash-consed, so identical reconstructions are retrieved, not
      rebuilt). *)

type outcome = {
  new_traces : int; (* traces actually constructed *)
  reused_traces : int; (* reconstructions satisfied by hash-consing *)
}

let no_outcome = { new_traces = 0; reused_traces = 0 }

(* A predecessor [p] leads into [n] strongly if p's best successor edge
   targets n and p is followable. *)
let strong_preds (n : Bcg.node) : Bcg.node list =
  List.filter
    (fun (p : Bcg.node) ->
      State.is_followable p.Bcg.state
      &&
      match p.Bcg.best with
      | Some e -> e.Bcg.e_target == n
      | None -> false)
    n.Bcg.preds

(* Step 1: entry points reachable backwards along strong edges. *)
let find_entry_points (s : Bcg.node) : Bcg.node list =
  let visited : (int * int, unit) Hashtbl.t = Hashtbl.create 32 in
  let key (n : Bcg.node) = (n.Bcg.n_x, n.Bcg.n_y) in
  let roots = ref [] in
  let rec back n depth =
    if Hashtbl.mem visited (key n) then ()
    else begin
      Hashtbl.replace visited (key n) ();
      let preds = strong_preds n in
      if preds = [] || depth >= Config.max_backtrack then
        roots := n :: !roots
      else
        List.iter
          (fun p ->
            if Hashtbl.mem visited (key p) then
              (* cycle during backtracking: n is as far back as we get *)
              roots := n :: !roots
            else back p (depth + 1))
          preds
    end
  in
  back s 0;
  let roots = List.filter (fun (n : Bcg.node) -> State.is_followable n.Bcg.state) !roots in
  match roots with
  | [] -> if State.is_followable s.Bcg.state then [ s ] else []
  | rs -> rs

type walk = {
  path : Bcg.node array; (* transitions n_0 .. n_m *)
  corrs : float array; (* corrs.(i) links path.(i) to path.(i+1) *)
  cycle_start : int option; (* index the walk looped back to, if any *)
}

(* Step 2: maximum-likelihood walk. *)
let walk_from (config : Config.t) (root : Bcg.node) : walk =
  let path = ref [ root ] in
  let corrs = ref [] in
  let index : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
  let key (n : Bcg.node) = (n.Bcg.n_x, n.Bcg.n_y) in
  Hashtbl.replace index (key root) 0;
  let len = ref 1 in
  let cycle = ref None in
  let cur = ref root in
  let stop = ref false in
  while not !stop do
    let n = !cur in
    if not (State.is_followable n.Bcg.state) then stop := true
    else
      match n.Bcg.best with
      | None -> stop := true
      | Some e ->
          let c = Bcg.correlation n e in
          if c < Config.threshold config then stop := true
          else begin
            let target = e.Bcg.e_target in
            match Hashtbl.find_opt index (key target) with
            | Some i ->
                (* closing a loop: remember where, keep the closing corr
                   so the loop segment's own chaining probability is known *)
                cycle := Some i;
                corrs := c :: !corrs;
                stop := true
            | None ->
                if !len >= Config.max_walk then stop := true
                else begin
                  corrs := c :: !corrs;
                  path := target :: !path;
                  Hashtbl.replace index (key target) !len;
                  incr len;
                  cur := target
                end
          end
  done;
  let path = Array.of_list (List.rev !path) in
  let corrs = Array.of_list (List.rev !corrs) in
  { path; corrs; cycle_start = !cycle }

(* Install one candidate and do the per-install bookkeeping the cutter
   and OSR promotion share: hash-cons accounting and the construction
   event, whose sequence and probability are the trace's own, so a reuse
   repeats the first construction.  Returns ((new, reused), installed
   trace). *)
let install_candidate ?fail (cache : Trace_cache.t) ~events ~counts ~first
    ~blocks ~prob : (int * int) * Trace.t option =
  let installed (tr : Trace.t) ~reused =
    if Events.enabled events then
      Events.emit events
        (Events.Trace_constructed
           {
             trace_id = tr.Trace.id;
             first;
             blocks = Array.copy blocks;
             n_instrs = tr.Trace.total_instrs;
             prob = tr.Trace.prob;
             reused;
           });
    ((if reused then (0, 1) else (1, 0)), Some tr)
  in
  let built = Trace_cache.n_constructed cache in
  let tr =
    Trace_cache.install ?fail cache ~events ~counts ~first ~blocks
      ~len:(Array.length blocks) ~prob
  in
  if tr == Trace.none then ((0, 0), None)
  else installed tr ~reused:(Trace_cache.n_constructed cache = built)

(* Step 4: greedy probability cut of one segment of transitions
   [lo .. hi] (inclusive).  A trace covering transitions i..j consists of
   blocks [n_i.n_y .. n_j.n_y] with entry context n_i.n_x and completion
   probability prod(corrs.(i) .. corrs.(j-1)). *)
let cut_segment (config : Config.t) ~install (w : walk) ~lo ~hi : int * int =
  let new_traces = ref 0 in
  let reused = ref 0 in
  let i = ref lo in
  while !i <= hi do
    let j = ref !i in
    let p = ref 1.0 in
    let continue_ = ref true in
    while !continue_ do
      let next = !j + 1 in
      if next > hi then continue_ := false
      else if next - !i + 1 > Config.max_trace_blocks then
        continue_ := false
      else begin
        (* corrs.(!j) links transition !j to transition next; it is present
           for every !j < Array.length w.corrs *)
        let c = if !j < Array.length w.corrs then w.corrs.(!j) else 0.0 in
        if !p *. c >= Config.threshold config then begin
          p := !p *. c;
          j := next
        end
        else continue_ := false
      end
    done;
    let n_transitions = !j - !i + 1 in
    if n_transitions >= Config.min_trace_blocks then begin
      let first = w.path.(!i).Bcg.n_x in
      let blocks =
        Array.init n_transitions (fun k -> w.path.(!i + k).Bcg.n_y)
      in
      let (n, r), _ = install ~first ~blocks ~prob:!p in
      new_traces := !new_traces + n;
      reused := !reused + r
    end;
    i := !j + 1
  done;
  (!new_traces, !reused)

(* Step 3: a walk that closed a loop gets its loop segment unrolled once
   (paper §4.2): the candidate transition sequence is two copies of the
   loop body, joined by the back edge's correlation.  The probability
   cutter then decides whether the doubled body actually fits under the
   threshold.  Loop traces chain into themselves either way, because their
   last block is the entry transition's context. *)
let unroll_loop (w : walk) ~c ~m : walk =
  let seg = m - c + 1 in
  let path = Array.init (2 * seg) (fun k -> w.path.(c + (k mod seg))) in
  let closing =
    (* walk_from records the back edge's correlation after the last
       transition when it detects the cycle *)
    if Array.length w.corrs > m then w.corrs.(m) else 0.0
  in
  let corrs =
    Array.init
      ((2 * seg) - 1)
      (fun k ->
        if k mod seg = seg - 1 then closing else w.corrs.(c + (k mod seg)))
  in
  { path; corrs; cycle_start = None }

(* Steps 2-4 for one entry point. *)
let build_from (config : Config.t) ~install ~on_path (root : Bcg.node) :
    int * int =
  let w = walk_from config root in
  on_path (Array.length w.path);
  let m = Array.length w.path - 1 in
  if m < 0 then (0, 0)
  else
    match w.cycle_start with
    | Some c when c <= m ->
        (* the loop is processed first, then the prefix leading into it *)
        let lw = unroll_loop w ~c ~m in
        let ln, lr =
          cut_segment config ~install lw ~lo:0 ~hi:(Array.length lw.path - 1)
        in
        let pn, pr =
          if c > 0 then cut_segment config ~install w ~lo:0 ~hi:(c - 1)
          else (0, 0)
        in
        (ln + pn, lr + pr)
    | Some _ | None -> cut_segment config ~install w ~lo:0 ~hi:m

(* Entry point: react to one profiler signal.  [on_path] observes the
   length (in transitions) of each maximum-likelihood walk, before the
   probability cut. *)
let on_signal ?(events = Events.create ()) ?(counts = Stats.zero ())
    ?(on_path = fun (_ : int) -> ()) ?fail_install (config : Config.t)
    (cache : Trace_cache.t) (signal : Bcg.signal) : outcome =
  let entries = find_entry_points signal.Bcg.s_node in
  let install = install_candidate ?fail:fail_install cache ~events ~counts in
  let new_traces = ref 0 in
  let reused = ref 0 in
  List.iter
    (fun root ->
      let n, r = build_from config ~install ~on_path root in
      new_traces := !new_traces + n;
      reused := !reused + r)
    entries;
  { new_traces = !new_traces; reused_traces = !reused }

(* OSR mid-loop promotion: build the hot loop's back-edge trace *now*,
   without waiting for a profiler signal.

   This walk is deliberately not the signal path's maximum-likelihood
   walk: that one refuses immature (newly created / weakly correlated)
   nodes, and a loop hot enough to promote mid-iteration has usually not
   had time to mature its correlations — waiting for maturity is exactly
   what promotion exists to avoid.  Instead, starting from the hottest
   transition entering [header] in any state, best successors are
   followed until the walk returns to the header (the back edge closes)
   or gives out.  A mispredicted pick costs at worst a deopt when the
   trace's guard fails — never correctness — so immaturity only bounds
   the trace's useful lifetime, not its safety.

   The closed walk [header .. latch] installs with the latch as its
   entry context, so the trace is bound at the latch->header transition
   and its last block is that same latch: it chains back into itself,
   and the loop runs under trace dispatch from the very next back edge.
   Returns the installed trace so the caller can arm it for its first
   OSR entry. *)
let promote ?(events = Events.create ()) ?(counts = Stats.zero ())
    ?(on_path = fun (_ : int) -> ()) ?fail_install (cache : Trace_cache.t)
    (bcg : Bcg.t) ~(header : Layout.gid) : outcome * Trace.t option =
  let root = ref None in
  Bcg.iter_nodes bcg (fun (n : Bcg.node) ->
      if n.Bcg.n_y = header then
        match !root with
        | Some (r : Bcg.node) when r.Bcg.exec_total >= n.Bcg.exec_total -> ()
        | _ -> root := Some n);
  match !root with
  | None -> (no_outcome, None)
  | Some root ->
      let rev_blocks = ref [ header ] in
      let len = ref 1 in
      let prob = ref 1.0 in
      let cur = ref root in
      let closed = ref false in
      let stalled = ref false in
      (* the closed walk installs as ONE trace, so it answers to the
         cutter's length bound (TL209) as well as the walk cap *)
      let cap = Int.min Config.max_walk Config.max_trace_blocks in
      while (not !closed) && (not !stalled) && !len < cap do
        match (!cur).Bcg.best with
        | None -> stalled := true
        | Some e ->
            prob := !prob *. Bcg.correlation !cur e;
            let target = e.Bcg.e_target in
            if target.Bcg.n_y = header then closed := true
            else begin
              rev_blocks := target.Bcg.n_y :: !rev_blocks;
              incr len;
              cur := target
            end
      done;
      on_path !len;
      if (not !closed) || !len < Config.min_trace_blocks then
        (no_outcome, None)
      else begin
        let blocks = Array.of_list (List.rev !rev_blocks) in
        (* the latch: last block of the body, and the entry context *)
        let first = blocks.(Array.length blocks - 1) in
        let (n, r), installed =
          install_candidate ?fail:fail_install cache ~events ~counts ~first
            ~blocks ~prob:!prob
        in
        (match installed with
        | Some tr -> tr.Trace.promoted <- true
        | None -> ());
        ({ new_traces = n; reused_traces = r }, installed)
      end
