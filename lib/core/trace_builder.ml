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

(* Every construction works in its cache's scratch ([Trace_cache.scratch]):
   the entry search's roots, the walk's path and correlations, and one
   candidate's blocks live there, and the graph's search marks
   ([Bcg.fresh_marks]) replace visited sets, so a construction allocates
   only the traces it builds, their bindings and the events it emits. *)
type scratch = Trace_cache.scratch

(* Claim the scratch for one construction.  A construction that
   re-entered the builder through the same cache (from an event
   subscriber, say) would overwrite the outer one's path mid-cut, so it
   is refused instead. *)
let claim (sc : scratch) =
  if sc.busy then
    invalid_arg "Trace_builder: construction re-entered through the same cache";
  sc.busy <- true;
  sc.n_built <- 0;
  sc.n_reused <- 0

let release (sc : scratch) =
  sc.busy <- false;
  { new_traces = sc.n_built; reused_traces = sc.n_reused }

(* Room for [n] transitions in the path and its correlations. *)
let reserve (sc : scratch) n =
  let cap = Array.length sc.path in
  if n > cap then begin
    let cap' = Int.max n (Int.max 16 (2 * cap)) in
    let path = Array.make cap' Bcg.no_node in
    Array.blit sc.path 0 path 0 cap;
    let corrs = Array.make cap' 0.0 in
    Array.blit sc.corrs 0 corrs 0 cap;
    sc.path <- path;
    sc.corrs <- corrs
  end

let add_root (sc : scratch) (n : Bcg.node) =
  let cap = Array.length sc.roots in
  if sc.n_roots = cap then begin
    let roots = Array.make (Int.max 16 (2 * cap)) Bcg.no_node in
    Array.blit sc.roots 0 roots 0 cap;
    sc.roots <- roots
  end;
  sc.roots.(sc.n_roots) <- n;
  sc.n_roots <- sc.n_roots + 1

(* A predecessor [p] leads into [n] strongly if p's best successor edge
   targets n and p is followable. *)
let is_strong (p : Bcg.node) (n : Bcg.node) =
  State.is_followable p.Bcg.state
  && match p.Bcg.best with Some e -> e.Bcg.e_target == n | None -> false

let rec has_strong_pred (n : Bcg.node) = function
  | [] -> false
  | p :: rest -> is_strong p n || has_strong_pred n rest

(* Step 1: entry points reachable backwards along strong edges, a
   depth-first search whose visited set is the nodes marked [base].
   Roots are recorded in discovery order; a node is recorded once for
   each visited strong predecessor that closes a cycle. *)
let rec back (sc : scratch) ~base (n : Bcg.node) depth =
  n.Bcg.mark <- base;
  if depth >= Config.max_backtrack || not (has_strong_pred n n.Bcg.preds)
  then add_root sc n
  else back_preds sc ~base n n.Bcg.preds (depth + 1)

and back_preds sc ~base n preds depth =
  match preds with
  | [] -> ()
  | p :: rest ->
      if is_strong p n then
        if p.Bcg.mark >= base then
          (* cycle during backtracking: n is as far back as we get *)
          add_root sc n
        else back sc ~base p depth;
      back_preds sc ~base n rest depth

(* Fills [sc.roots] with the followable entry points, in the order they
   are built from (the reverse of discovery), and returns their
   count. *)
let find_entry_points (sc : scratch) (g : Bcg.t) (s : Bcg.node) =
  sc.n_roots <- 0;
  back sc ~base:(Bcg.fresh_marks g ~width:1) s 0;
  let found = sc.n_roots and roots = sc.roots in
  for i = 0 to (found / 2) - 1 do
    let n = roots.(i) in
    roots.(i) <- roots.(found - 1 - i);
    roots.(found - 1 - i) <- n
  done;
  let k = ref 0 in
  for i = 0 to found - 1 do
    let n = roots.(i) in
    if State.is_followable n.Bcg.state then begin
      roots.(!k) <- n;
      incr k
    end
  done;
  if !k = 0 && State.is_followable s.Bcg.state then begin
    roots.(0) <- s;
    k := 1
  end;
  sc.n_roots <- !k;
  !k

(* Install the candidate in [sc.blocks.(0 .. len-1)] and do the
   per-install bookkeeping the cutter and OSR promotion share: the
   outcome count and the construction event, whose sequence and
   probability are the trace's own, so a reuse repeats the first
   construction.  Returns the installed trace, or [Trace.none]. *)
let[@inline] install_candidate ?fail cache (sc : scratch) ~events ~counts ~first ~len
    ~prob : Trace.t =
  let built = Trace_cache.n_constructed cache in
  let tr =
    Trace_cache.install ?fail cache ~events ~counts ~first ~blocks:sc.blocks
      ~len ~prob
  in
  if tr != Trace.none then begin
    let reused = Trace_cache.n_constructed cache = built in
    if reused then sc.n_reused <- sc.n_reused + 1
    else sc.n_built <- sc.n_built + 1;
    if Events.enabled events then
      Events.emit events
        (Events.Trace_constructed
           {
             trace_id = tr.Trace.id;
             first;
             blocks = Array.sub sc.blocks 0 len;
             n_instrs = tr.Trace.total_instrs;
             prob = tr.Trace.prob;
             reused;
           })
  end;
  tr

(* Step 4: greedy probability cut of the path's transitions [lo .. hi]
   (inclusive).  A trace covering transitions i..j consists of blocks
   [n_i.n_y .. n_j.n_y] with entry context n_i.n_x and completion
   probability prod(corrs.(i) .. corrs.(j-1)). *)
let cut_segment ?fail config cache (sc : scratch) ~events ~counts ~lo ~hi =
  let threshold = Config.threshold config in
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
        (* corrs.(!j) links transition !j to transition next *)
        let c = sc.corrs.(!j) in
        if !p *. c >= threshold then begin
          p := !p *. c;
          j := next
        end
        else continue_ := false
      end
    done;
    let len = !j - !i + 1 in
    if len >= Config.min_trace_blocks then begin
      let path = sc.path in
      for k = 0 to len - 1 do
        sc.blocks.(k) <- path.(!i + k).Bcg.n_y
      done;
      ignore
        (install_candidate ?fail cache sc ~events ~counts
           ~first:path.(!i).Bcg.n_x ~len ~prob:!p)
    end;
    i := !j + 1
  done

(* Steps 2-4 for one entry point.

   Step 2, the maximum-likelihood walk, fills [sc.path] and [sc.corrs]
   and marks each transition on the path with [base] plus its position,
   so reaching a marked node closes a loop at that position.

   Step 3: a walk that closed a loop gets its loop segment unrolled once
   (paper §4.2): the candidate transition sequence is two copies of the
   loop body, joined by the back edge's correlation, which the walk
   stored after the last transition.  The second copy is written right
   after the path, so the unrolled loop is [sc.path.(c .. m + seg)]
   while the prefix [0 .. c-1] stays intact.  The probability cutter
   then decides whether the doubled body actually fits under the
   threshold.  Loop traces chain into themselves either way, because
   their last block is the entry transition's context.  The loop is
   processed first, then the prefix leading into it. *)
let build_from ?fail ~on_path config cache (sc : scratch) (g : Bcg.t) ~events
    ~counts (root : Bcg.node) =
  let threshold = Config.threshold config in
  let base = Bcg.fresh_marks g ~width:Config.max_walk in
  reserve sc 1;
  sc.path.(0) <- root;
  root.Bcg.mark <- base;
  let len = ref 1 in
  let cycle = ref (-1) in
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
          if c < threshold then stop := true
          else begin
            let target = e.Bcg.e_target in
            if target.Bcg.mark >= base then begin
              (* closing a loop: remember where, keep the closing corr
                 so the loop segment's own chaining probability is
                 known *)
              cycle := target.Bcg.mark - base;
              sc.corrs.(!len - 1) <- c;
              stop := true
            end
            else if !len >= Config.max_walk then stop := true
            else begin
              reserve sc (!len + 1);
              sc.corrs.(!len - 1) <- c;
              sc.path.(!len) <- target;
              target.Bcg.mark <- base + !len;
              incr len;
              cur := target
            end
          end
  done;
  let len = !len and c = !cycle in
  on_path len;
  let m = len - 1 in
  if c >= 0 then begin
    let seg = m - c + 1 in
    reserve sc (m + seg + 1);
    Array.blit sc.path c sc.path (m + 1) seg;
    Array.blit sc.corrs c sc.corrs (m + 1) (seg - 1);
    cut_segment ?fail config cache sc ~events ~counts ~lo:c ~hi:(m + seg);
    if c > 0 then
      cut_segment ?fail config cache sc ~events ~counts ~lo:0 ~hi:(c - 1)
  end
  else cut_segment ?fail config cache sc ~events ~counts ~lo:0 ~hi:m

let ignore_path (_ : int) = ()

(* Entry point: react to one profiler signal.  [on_path] observes the
   length (in transitions) of each maximum-likelihood walk, before the
   probability cut. *)
let on_signal ?(events = Events.create ()) ?(counts = Stats.zero ())
    ?(on_path = ignore_path) ?fail_install (config : Config.t)
    (cache : Trace_cache.t) (signal : Bcg.signal) : outcome =
  let sc = Trace_cache.scratch cache in
  claim sc;
  match
    let g = signal.Bcg.s_graph in
    for k = 0 to find_entry_points sc g signal.Bcg.s_node - 1 do
      build_from ?fail:fail_install ~on_path config cache sc g ~events ~counts
        sc.roots.(k)
    done
  with
  | () -> release sc
  | exception e ->
      ignore (release sc);
      raise e

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
    ?(on_path = ignore_path) ?fail_install (cache : Trace_cache.t)
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
      let sc = Trace_cache.scratch cache in
      claim sc;
      (match
         sc.blocks.(0) <- header;
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
                 sc.blocks.(!len) <- target.Bcg.n_y;
                 incr len;
                 cur := target
               end
         done;
         on_path !len;
         if (not !closed) || !len < Config.min_trace_blocks then Trace.none
         else
           (* the latch: last block of the body, and the entry context *)
           install_candidate ?fail:fail_install cache sc ~events ~counts
             ~first:sc.blocks.(!len - 1) ~len:!len ~prob:!prob
       with
      | tr ->
          let outcome = release sc in
          if tr == Trace.none then (outcome, None)
          else begin
            tr.Trace.promoted <- true;
            (outcome, Some tr)
          end
      | exception e ->
          ignore (release sc);
          raise e)
