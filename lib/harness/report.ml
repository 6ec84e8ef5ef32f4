module Tr = Tracegen
module Layout = Cfg.Layout

(* The hot-report: where did the run's dispatches and instructions go?
   A fold of the oracle tally's trace rows and inlined positions; a
   block's self dispatches are its executions in a counted plain run
   minus its inlined positions. *)

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

let of_engine ~executed (tally : Oracle.tally) (engine : Tr.Engine.t) : t =
  let layout = Tr.Engine.layout engine in
  (* the compiled tier is the one column the stream does not carry *)
  let compiled = Hashtbl.create 16 in
  Tr.Trace_cache.iter_all (Tr.Engine.cache engine) (fun tr ->
      if Option.is_some tr.Tr.Trace.lowered then
        Hashtbl.replace compiled tr.Tr.Trace.id ());
  let row (r : Oracle.trace_row) =
    {
      trace_id = r.id;
      entry =
        Printf.sprintf "%s -> %s" (Layout.describe layout r.first)
          (Layout.describe layout r.body.(0));
      n_blocks = Array.length r.body;
      prob = r.prob;
      entered = r.entered;
      completed = r.completed;
      partial_exits = Oracle.side_exits r;
      instrs = (r.completed * r.n_instrs) + r.partial_instrs;
      tier = (if Hashtbl.mem compiled r.id then "compiled" else "interp");
    }
  in
  let inlined = Oracle.inlined tally ~engine in
  let blocks = ref [] in
  Array.iteri
    (fun gid e ->
      let i = inlined.(gid) in
      if e > 0 || i > 0 then
        let block = Layout.describe layout gid in
        blocks := { gid; block; self = e - i; inlined = i } :: !blocks)
    executed;
  {
    traces =
      List.filter (fun (r : Oracle.trace_row) -> r.entered > 0)
        (Oracle.traces tally)
      |> List.map row
      |> List.sort (fun a b ->
             compare (b.entered, b.instrs, a.trace_id)
               (a.entered, a.instrs, b.trace_id));
    blocks =
      List.sort
        (fun a b ->
          compare (b.self + b.inlined, a.gid) (a.self + a.inlined, b.gid))
        !blocks;
  }

(* Rendering *)

let truncate_label width s =
  if String.length s <= width then s else String.sub s 0 (width - 1) ^ "…"

let render ?(top = 10) (r : t) : string =
  let buf = Buffer.create 1024 in
  (* a header line, the first [top] rows, and how many more there are *)
  let table header line noun rows =
    Buffer.add_string buf header;
    List.iteri (fun i row -> if i < top then line row) rows;
    let n = List.length rows in
    if n > top then Printf.bprintf buf "… %d more %s\n" (n - top) noun
  in
  table
    (Printf.sprintf "%-6s %-32s %7s %9s %9s %8s %10s %6s %-8s\n" "trace"
       "entry" "blocks" "entered" "completed" "partial" "instrs" "prob" "tier")
    (fun row ->
      Printf.bprintf buf "%-6d %-32s %7d %9d %9d %8d %10d %6.3f %-8s\n"
        row.trace_id
        (truncate_label 32 row.entry)
        row.n_blocks row.entered row.completed row.partial_exits row.instrs
        row.prob row.tier)
    "traces" r.traces;
  Buffer.add_char buf '\n';
  table
    (Printf.sprintf "%-6s %-32s %10s %10s %10s\n" "block" "name" "self"
       "inlined" "total")
    (fun row ->
      Printf.bprintf buf "%-6d %-32s %10d %10d %10d\n" row.gid
        (truncate_label 32 row.block)
        row.self row.inlined (row.self + row.inlined))
    "blocks" r.blocks;
  Buffer.contents buf

(* Machine-readable form: the whole report as one schema-versioned
   object naming its workload — `repro_cli top --json`.  Rows carry the
   same columns as the rendered tables. *)
let json ~workload (r : t) : Codec.json =
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
         ("workload", Codec.J_string workload);
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
