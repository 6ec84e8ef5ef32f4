module Layout = Cfg.Layout
module Block = Cfg.Block
module Stats = Tracegen.Stats

(* Next-Executing-Tail trace selection, after Dynamo (Bala et al., PLDI
   2000).  Counters sit on potential trace heads — targets of backward
   taken branches.  When a counter crosses the hot threshold, the
   instructions executed *next* are recorded as a trace until a backward
   taken branch (the next loop iteration), the head of an existing trace,
   or the length cap.  Traces are keyed by their head block alone (Dynamo
   dispatches fragments by address).

   This is the "assume what follows a hot point will recur" strategy the
   paper contrasts with branch-correlation profiling. *)

type config = {
  hot_threshold : int; (* Dynamo uses ~50 *)
  max_blocks : int;
}

let default_config = { hot_threshold = 50; max_blocks = 64 }

type trace = {
  head : Layout.gid;
  blocks : Layout.gid array;
  total_instrs : int;
  instr_len : int array;
}

type mode =
  | Profiling
  | Recording of Layout.gid list (* reversed blocks recorded so far *)
  | Executing of trace * int * int * int
    (* trace, next position, matched blocks, matched instrs *)

type t = {
  layout : Layout.t;
  config : config;
  counters : (Layout.gid, int ref) Hashtbl.t;
  traces : (Layout.gid, trace) Hashtbl.t;
  mutable mode : mode;
  mutable prev : Layout.gid;
  counts : Stats.t;
      (* the engine's counters, those NET has: dispatches outside traces,
         trace entries, completions, partial work, traces built *)
}

let create ?(config = default_config) (layout : Layout.t) : t =
  {
    layout;
    config;
    counters = Hashtbl.create 256;
    traces = Hashtbl.create 64;
    mode = Profiling;
    prev = -1;
    counts = Stats.zero ();
  }

(* A transition is a backward taken branch when it stays in one method and
   moves to an earlier bytecode address. *)
let is_backward (t : t) ~prev ~cur =
  prev >= 0
  &&
  let pb = Layout.block t.layout prev in
  let cb = Layout.block t.layout cur in
  pb.Block.method_id = cb.Block.method_id
  && cb.Block.start_pc <= pb.Block.start_pc

let mk_trace (t : t) (rev_blocks : Layout.gid list) : trace =
  let blocks = Array.of_list (List.rev rev_blocks) in
  let instr_len = Array.map (fun g -> Layout.block_len t.layout g) blocks in
  {
    head = blocks.(0);
    blocks;
    total_instrs = Array.fold_left ( + ) 0 instr_len;
    instr_len;
  }

let finish_recording (t : t) (rev_blocks : Layout.gid list) =
  (match rev_blocks with
  | [] | [ _ ] -> () (* too short to be worth caching *)
  | _ ->
      let tr = mk_trace t rev_blocks in
      if not (Hashtbl.mem t.traces tr.head) then begin
        Hashtbl.replace t.traces tr.head tr;
        t.counts.traces_constructed <- t.counts.traces_constructed + 1
      end);
  t.mode <- Profiling

let enter_or_profile (t : t) g =
  let st = t.counts in
  match Hashtbl.find_opt t.traces g with
  | Some tr ->
      st.traces_entered <- st.traces_entered + 1;
      if Array.length tr.blocks = 1 then begin
        st.traces_completed <- st.traces_completed + 1;
        st.completed_blocks <- st.completed_blocks + 1;
        st.completed_instrs <- st.completed_instrs + tr.total_instrs
      end
      else t.mode <- Executing (tr, 1, 1, tr.instr_len.(0))
  | None -> (
      st.block_dispatches <- st.block_dispatches + 1;
      (* hot-head counting on backward taken branches *)
      if is_backward t ~prev:t.prev ~cur:g then begin
        let c =
          match Hashtbl.find_opt t.counters g with
          | Some c -> c
          | None ->
              let c = ref 0 in
              Hashtbl.replace t.counters g c;
              c
        in
        incr c;
        if !c = t.config.hot_threshold then t.mode <- Recording [ g ]
      end)

let rec on_block (t : t) (g : Layout.gid) =
  let st = t.counts in
  match t.mode with
  | Profiling ->
      enter_or_profile t g;
      t.prev <- g
  | Recording acc ->
      st.block_dispatches <- st.block_dispatches + 1;
      let stop_backward = is_backward t ~prev:t.prev ~cur:g in
      let hits_existing = Hashtbl.mem t.traces g in
      if
        stop_backward || hits_existing
        || List.length acc >= t.config.max_blocks
      then finish_recording t acc
      else t.mode <- Recording (g :: acc);
      t.prev <- g
  | Executing (tr, pos, mblocks, minstrs) ->
      if g = tr.blocks.(pos) then begin
        let mblocks = mblocks + 1 in
        let minstrs = minstrs + tr.instr_len.(pos) in
        if pos = Array.length tr.blocks - 1 then begin
          st.traces_completed <- st.traces_completed + 1;
          st.completed_blocks <- st.completed_blocks + mblocks;
          st.completed_instrs <- st.completed_instrs + minstrs;
          t.mode <- Profiling
        end
        else t.mode <- Executing (tr, pos + 1, mblocks, minstrs);
        t.prev <- g
      end
      else begin
        (* side exit *)
        st.partial_instrs <- st.partial_instrs + minstrs;
        t.mode <- Profiling;
        on_block t g
      end

let stats (t : t) ~instructions : Stats.t =
  let s = Stats.copy t.counts in
  s.instructions <- instructions;
  s

let run ?config ?max_instructions (layout : Layout.t) : Stats.t =
  let t = create ?config layout in
  let result =
    Vm.Interp.run ?max_instructions layout ~on_block:(fun g -> on_block t g)
  in
  stats t ~instructions:result.Vm.Interp.instructions
