module Diag = Analysis.Diag

(* Invariant checks over the BCG and the trace cache.  Each check states a
   property the design guarantees by construction, so a finding is a bug —
   these run under Config.debug_checks at trace-construction and decay
   boundaries, and from `repro_cli lint` after a profiled run. *)

let node_loc (n : Bcg.node) = Diag.Node_loc { x = n.Bcg.n_x; y = n.Bcg.n_y }

let err ?context ~code ~loc fmt =
  Format.kasprintf
    (fun message -> Diag.make ?context ~code ~severity:Diag.Error ~loc message)
    fmt

let check_node ?context (bcg : Bcg.t) (n : Bcg.node) =
  let config = bcg.Bcg.config in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let loc = node_loc n in
  (* TL204: 16-bit saturating counters; dead edges are pruned at decay *)
  List.iter
    (fun (e : Bcg.edge) ->
      if e.Bcg.weight < 1 || e.Bcg.weight > Config.counter_max then
        add
          (err ?context ~code:"TL204" ~loc
             "edge to %d has weight %d outside [1, %d]" e.Bcg.e_z e.Bcg.weight
             Config.counter_max))
    n.Bcg.edges;
  (* TL205: the inline cache is a live maximal-weight edge *)
  (match (n.Bcg.best, n.Bcg.edges) with
  | None, [] -> ()
  | None, _ :: _ -> add (err ?context ~code:"TL205" ~loc "edges but no best")
  | Some b, edges ->
      if not (List.memq b edges) then
        add
          (err ?context ~code:"TL205" ~loc
             "best edge (to %d) is not among the node's edges" b.Bcg.e_z)
      else
        let max_w =
          List.fold_left (fun acc (e : Bcg.edge) -> Int.max acc e.Bcg.weight) 0
            edges
        in
        if b.Bcg.weight < max_w then
          add
            (err ?context ~code:"TL205" ~loc
               "best edge (to %d, weight %d) is lighter than the heaviest \
                edge (weight %d)"
               b.Bcg.e_z b.Bcg.weight max_w));
  (* TL206: decay and start-state bookkeeping *)
  if n.Bcg.since_decay < 0 || n.Bcg.since_decay >= Config.decay_period config
  then
    add
      (err ?context ~code:"TL206" ~loc "since_decay %d outside [0, %d)"
         n.Bcg.since_decay (Config.decay_period config));
  if n.Bcg.delay_left < 0 || n.Bcg.delay_left > Config.start_state_delay config
  then
    add
      (err ?context ~code:"TL206" ~loc "delay_left %d outside [0, %d]"
         n.Bcg.delay_left
         (Config.start_state_delay config));
  if n.Bcg.delay_left > 0 <> (n.Bcg.state = State.Newly_created) then
    add
      (err ?context ~code:"TL206" ~loc
         "delay_left %d inconsistent with state %s" n.Bcg.delay_left
         (State.to_string n.Bcg.state));
  (* TL208: edge/pred adjacency symmetry *)
  List.iter
    (fun (e : Bcg.edge) ->
      if not (List.memq n e.Bcg.e_target.Bcg.preds) then
        add
          (err ?context ~code:"TL208" ~loc
             "edge to %d but the target does not list this node as a \
              predecessor"
             e.Bcg.e_z))
    n.Bcg.edges;
  List.iter
    (fun (p : Bcg.node) ->
      if Bcg.find_edge p n.Bcg.n_y == Bcg.no_edge then
        add
          (err ?context ~code:"TL208" ~loc:(node_loc p)
             "listed as a predecessor of N(%d->%d) but has no edge to %d"
             n.Bcg.n_x n.Bcg.n_y n.Bcg.n_y))
    n.Bcg.preds;
  List.rev !diags

let check_bcg ?context (bcg : Bcg.t) =
  let diags = ref [] in
  Bcg.iter_nodes bcg (fun n -> diags := check_node ?context bcg n :: !diags);
  List.concat (List.rev !diags)

let check_trace ?context ?bcg ?layout (config : Config.t) (tr : Trace.t) =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let loc = Diag.Trace_loc { trace_id = tr.Trace.id } in
  (* TL210 / TL211: the trace's block sequence and per-block instruction
     counts agree with the program layout — the checks that catch a
     corrupted (or injected-fault) trace body *)
  (match layout with
  | None -> ()
  | Some (layout : Cfg.Layout.t) ->
      let n_blocks = layout.Cfg.Layout.n_blocks in
      if tr.Trace.first < 0 || tr.Trace.first >= n_blocks then
        add
          (err ?context ~code:"TL210" ~loc "entry context %d outside [0, %d)"
             tr.Trace.first n_blocks);
      Array.iteri
        (fun i b ->
          if b < 0 || b >= n_blocks then
            add
              (err ?context ~code:"TL210" ~loc
                 "block %d is gid %d, outside [0, %d)" i b n_blocks)
          else if
            i < Array.length tr.Trace.instr_len
            && tr.Trace.instr_len.(i) <> layout.Cfg.Layout.instr_len.(b)
          then
            add
              (err ?context ~code:"TL211" ~loc
                 "block %d (gid %d) records %d instructions but the layout \
                  has %d"
                 i b
                 tr.Trace.instr_len.(i)
                 layout.Cfg.Layout.instr_len.(b)))
        tr.Trace.blocks);
  (* TL201: the greedy cutter only commits extensions keeping the product
     at or above the threshold, and correlations never exceed 1.  OSR
     promotion deliberately installs ahead of correlation maturity, so a
     promoted trace only answers for the upper bound. *)
  if
    (tr.Trace.prob < Config.threshold config && not tr.Trace.promoted)
    || tr.Trace.prob > 1.0
  then
    add
      (err ?context ~code:"TL201" ~loc
         "completion probability %.6f outside [%.2f, 1]" tr.Trace.prob
         (Config.threshold config));
  (* TL209: the cutter respects the length bounds *)
  let n = Trace.n_blocks tr in
  if n < Config.min_trace_blocks || n > Config.max_trace_blocks then
    add
      (err ?context ~code:"TL209" ~loc "%d blocks outside [%d, %d]" n
         Config.min_trace_blocks Config.max_trace_blocks);
  (* TL203: a transition can appear twice (the single loop unrolling) but
     never three times *)
  let transitions = Hashtbl.create 16 in
  let prev = ref tr.Trace.first in
  Array.iter
    (fun b ->
      let k = (!prev, b) in
      Hashtbl.replace transitions k
        (1 + Option.value ~default:0 (Hashtbl.find_opt transitions k));
      prev := b)
    tr.Trace.blocks;
  Hashtbl.iter
    (fun (x, y) count ->
      if count > 2 then
        add
          (err ?context ~code:"TL203" ~loc
             "transition (%d->%d) appears %d times: terminal loop unrolled \
              more than once"
             x y count))
    transitions;
  (* TL207: along the trace, every still-live correlation is a probability,
     so the prefix completion products are monotone non-increasing.
     Decayed-away nodes and edges are skipped — absence is not a bug. *)
  (match bcg with
  | None -> ()
  | Some bcg ->
      let product = ref 1.0 in
      let prev2 = ref tr.Trace.first in
      Array.iteri
        (fun i b ->
          if i + 1 < Array.length tr.Trace.blocks then begin
            let next = tr.Trace.blocks.(i + 1) in
            let node = Bcg.find_node bcg ~x:!prev2 ~y:b in
            let edge = Bcg.find_edge node next in
            if edge != Bcg.no_edge then begin
              let c = Bcg.correlation node edge in
              let p' = !product *. c in
              if c < 0.0 || c > 1.0 || p' > !product +. 1e-12 then
                add
                  (err ?context ~code:"TL207" ~loc
                     "correlation %.6f at step %d (N(%d->%d) -> %d) breaks \
                      monotone completion probability"
                     c i !prev2 b next)
              else product := p'
            end;
            prev2 := b
          end)
        tr.Trace.blocks)
  ;
  List.rev !diags

let check_cache ?context ?bcg ?layout (config : Config.t)
    (cache : Trace_cache.t) =
  let diags = ref [] in
  (* TL202: the binding key is the trace's own entry transition *)
  Trace_cache.iter_entries cache (fun ~first ~head tr ->
      let f, h = Trace.entry_key tr in
      if f <> first || h <> head then
        diags :=
          [
            err ?context ~code:"TL202"
              ~loc:(Diag.Trace_loc { trace_id = tr.Trace.id })
              "bound under entry (%d,%d) but its own entry key is (%d,%d)"
              first head f h;
          ]
          :: !diags);
  Trace_cache.iter cache (fun tr ->
      diags := check_trace ?context ?bcg ?layout config tr :: !diags);
  List.concat (List.rev !diags)

let check_all ?context ?layout (config : Config.t) ~bcg ~cache =
  check_bcg ?context bcg @ check_cache ?context ~bcg ?layout config cache
