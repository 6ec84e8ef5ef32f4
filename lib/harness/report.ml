module Tr = Tracegen
module Layout = Cfg.Layout

(* The hot-report: where did the run's dispatches and instructions go?

   Per-trace rows come from the trace's own counters (Trace.entered /
   completed / partial_instrs ...), which the dispatch loop maintains
   anyway; per-block rows come from the engine's attribution arrays
   (Config.obs_attribution).  Because both sides are maintained by the
   same loop that maintains Stats, every column must sum to the matching
   Stats total — [checks] states those identities and [repro_cli top]
   enforces them. *)

type trace_row = {
  trace_id : int;
  entry : string; (* human-readable entering transition *)
  n_blocks : int;
  prob : float; (* expected completion probability at construction *)
  entered : int; (* self dispatch count: one per trace dispatch *)
  completed : int;
  partial_exits : int;
  instrs : int; (* instructions attributed to the trace body *)
  tier : string; (* "compiled" when holding a micro-IR body, else "interp" *)
}

type block_row = {
  gid : Layout.gid;
  block : string;
  self : int; (* dispatches outside any trace *)
  inlined : int; (* executions inlined inside traces *)
}

type t = {
  traces : trace_row list; (* ranked by self dispatch count, descending *)
  blocks : block_row list; (* ranked by self + inlined, descending *)
}

let trace_instrs (tr : Tr.Trace.t) =
  (tr.Tr.Trace.completed * tr.Tr.Trace.total_instrs)
  + tr.Tr.Trace.partial_instrs

let of_engine (engine : Tr.Engine.t) : t =
  let layout = Tr.Engine.layout engine in
  let traces = ref [] in
  Tr.Trace_cache.iter_all (Tr.Engine.cache engine) (fun tr ->
      if tr.Tr.Trace.entered > 0 then
        let first, head = Tr.Trace.entry_key tr in
        traces :=
          {
            trace_id = tr.Tr.Trace.id;
            entry =
              Printf.sprintf "%s -> %s" (Layout.describe layout first)
                (Layout.describe layout head);
            n_blocks = Tr.Trace.n_blocks tr;
            prob = tr.Tr.Trace.prob;
            entered = tr.Tr.Trace.entered;
            completed = tr.Tr.Trace.completed;
            partial_exits = tr.Tr.Trace.partial_exits;
            instrs = trace_instrs tr;
            tier =
              (match tr.Tr.Trace.lowered with
              | Some _ -> "compiled"
              | None -> "interp");
          }
          :: !traces);
  let self = Tr.Engine.attr_self engine in
  let inlined = Tr.Engine.attr_inlined engine in
  let blocks = ref [] in
  Array.iteri
    (fun gid s ->
      let i = if gid < Array.length inlined then inlined.(gid) else 0 in
      if s > 0 || i > 0 then
        blocks :=
          { gid; block = Layout.describe layout gid; self = s; inlined = i }
          :: !blocks)
    self;
  {
    traces =
      List.sort
        (fun a b ->
          compare (b.entered, b.instrs, a.trace_id)
            (a.entered, a.instrs, b.trace_id))
        !traces;
    blocks =
      List.sort
        (fun a b ->
          compare
            (b.self + b.inlined, a.gid)
            (a.self + a.inlined, b.gid))
        !blocks;
  }

(* The reconciliation identities.  They hold exactly for a run over an
   unbounded, non-healing cache (the [repro_cli top] configuration);
   eviction with hash-cons purging can lose condemned traces' counters. *)
let checks (r : t) (engine : Tr.Engine.t) (s : Tr.Stats.t) : Oracle.check list
    =
  let sum f = List.fold_left (fun acc row -> acc + f row) 0 r.traces in
  let sum_blocks f = List.fold_left (fun acc row -> acc + f row) 0 r.blocks in
  let inflight = Tr.Engine.inflight_matched_blocks engine in
  [
    ("trace self dispatches = traces_entered", sum (fun x -> x.entered),
     s.Tr.Stats.traces_entered);
    ("trace completions = traces_completed", sum (fun x -> x.completed),
     s.Tr.Stats.traces_completed);
    ("trace partial exits sum", sum (fun x -> x.partial_exits),
     s.Tr.Stats.traces_entered - s.Tr.Stats.traces_completed
     - (match Tr.Engine.active_trace engine with Some _ -> 1 | None -> 0));
    (* in-flight instrs appear on neither side: the per-trace counter and
       the engine counter are both bumped only at completion/side exit *)
    ("trace instrs = completed + partial instrs", sum (fun x -> x.instrs),
     s.Tr.Stats.completed_instrs + s.Tr.Stats.partial_instrs);
    ("block self dispatches = block_dispatches", sum_blocks (fun x -> x.self),
     s.Tr.Stats.block_dispatches);
    ("inlined execs = completed + partial blocks",
     sum_blocks (fun x -> x.inlined),
     s.Tr.Stats.completed_blocks + s.Tr.Stats.partial_blocks + inflight);
  ]
  |> List.map (fun (name, got, want) -> { Oracle.name; got; want })

(* Rendering *)

let truncate_label width s =
  if String.length s <= width then s else String.sub s 0 (width - 1) ^ "…"

let render ?(top = 10) (r : t) : string =
  let buf = Buffer.create 1024 in
  let take n l =
    let rec go k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: tl -> x :: go (k - 1) tl
    in
    go n l
  in
  Buffer.add_string buf
    (Printf.sprintf "%-6s %-32s %7s %9s %9s %8s %10s %6s %-8s\n" "trace"
       "entry" "blocks" "entered" "completed" "partial" "instrs" "prob" "tier");
  List.iter
    (fun row ->
      Buffer.add_string buf
        (Printf.sprintf "%-6d %-32s %7d %9d %9d %8d %10d %6.3f %-8s\n"
           row.trace_id
           (truncate_label 32 row.entry)
           row.n_blocks row.entered row.completed row.partial_exits row.instrs
           row.prob row.tier))
    (take top r.traces);
  if List.length r.traces > top then
    Buffer.add_string buf
      (Printf.sprintf "… %d more traces\n" (List.length r.traces - top));
  Buffer.add_char buf '\n';
  Buffer.add_string buf
    (Printf.sprintf "%-6s %-32s %10s %10s %10s\n" "block" "name" "self"
       "inlined" "total");
  List.iter
    (fun row ->
      Buffer.add_string buf
        (Printf.sprintf "%-6d %-32s %10d %10d %10d\n" row.gid
           (truncate_label 32 row.block)
           row.self row.inlined (row.self + row.inlined)))
    (take top r.blocks);
  if List.length r.blocks > top then
    Buffer.add_string buf
      (Printf.sprintf "… %d more blocks\n" (List.length r.blocks - top));
  Buffer.contents buf

(* Machine-readable form: the whole report as one schema-versioned
   object — `repro_cli top --json`.  Rows carry the same columns as the
   rendered tables. *)
let json (r : t) : Codec.json =
  let trace_row (row : trace_row) =
    Codec.J_obj
      [
        ("trace_id", Codec.J_int row.trace_id);
        ("entry", Codec.J_string row.entry);
        ("blocks", Codec.J_int row.n_blocks);
        ("prob", Codec.J_float row.prob);
        ("entered", Codec.J_int row.entered);
        ("completed", Codec.J_int row.completed);
        ("partial_exits", Codec.J_int row.partial_exits);
        ("instrs", Codec.J_int row.instrs);
        ("tier", Codec.J_string row.tier);
      ]
  in
  let block_row (row : block_row) =
    Codec.J_obj
      [
        ("gid", Codec.J_int row.gid);
        ("block", Codec.J_string row.block);
        ("self", Codec.J_int row.self);
        ("inlined", Codec.J_int row.inlined);
      ]
  in
  Codec.J_obj
    (Codec.versioned
       [
         ("traces", Codec.J_list (List.map trace_row r.traces));
         ("blocks", Codec.J_list (List.map block_row r.blocks));
       ])

(* Histogram percentile summary, one line per distribution — shared by
   `repro_cli top` and `repro_cli events --stats-only`. *)
let hist_summary (hists : Tr.Metrics.histogram list) : string =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-24s %8s %8s %6s %6s %6s %6s\n" "hist" "count" "mean"
       "p50" "p90" "p99" "max");
  List.iter
    (fun h ->
      if Tr.Metrics.hist_count h > 0 then
        Buffer.add_string buf
          (Printf.sprintf "%-24s %8d %8.2f %6d %6d %6d %6d\n"
             (Tr.Metrics.hist_name h) (Tr.Metrics.hist_count h)
             (Tr.Metrics.hist_mean h)
             (Tr.Metrics.percentile h 50.0)
             (Tr.Metrics.percentile h 90.0)
             (Tr.Metrics.percentile h 99.0)
             (Tr.Metrics.hist_max h)))
    hists;
  Buffer.contents buf
