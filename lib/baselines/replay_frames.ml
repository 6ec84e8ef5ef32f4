module Layout = Cfg.Layout
module Block = Cfg.Block
module Stats = Tracegen.Stats

(* Frame construction after rePLay (Patel & Lumetta, IEEE TC 2001),
   simulated in software.  A conditional branch is *promoted* to an
   assertion once it resolves the same way 32 consecutive times under the
   same depth-6 branch history.  Frames are maximal block sequences whose
   internal conditional branches are all promoted; an assertion failure at
   run time aborts the frame (the hardware would roll back).

   Differences from hardware rePLay, recorded in DESIGN.md: frames are
   keyed by entry block (not fetch address + history register), and frame
   construction happens on the dispatch stream rather than in a retirement
   buffer.  Bias profiling runs in every mode, as the hardware's would. *)

type config = {
  promotion_run : int; (* consecutive same-direction outcomes: 32 *)
  history_bits : int; (* depth of correlated history: 6 *)
  max_blocks : int;
  min_blocks : int;
}

let default_config =
  { promotion_run = 32; history_bits = 6; max_blocks = 32; min_blocks = 2 }

type bias = {
  mutable dir : bool;
  mutable count : int;
  mutable promoted : bool;
}

type frame = {
  entry : Layout.gid;
  blocks : Layout.gid array;
  total_instrs : int;
  instr_len : int array;
}

type mode =
  | Idle
  | Recording of Layout.gid list (* reversed *)
  | Executing of frame * int * int * int

type t = {
  layout : Layout.t;
  config : config;
  bias : (int, bias) Hashtbl.t; (* key = gid * 2^history_bits + history *)
  frames : (Layout.gid, frame) Hashtbl.t;
  mutable history : int;
  mutable mode : mode;
  mutable prev : Layout.gid;
  counts : Stats.t;
      (* the engine's counters, those rePLay has: a frame is a trace, and
         rolled-back work is partial *)
  mutable promotions : int;
  mutable demotions : int;
}

let create ?(config = default_config) (layout : Layout.t) : t =
  {
    layout;
    config;
    bias = Hashtbl.create 1024;
    frames = Hashtbl.create 64;
    history = 0;
    mode = Idle;
    prev = -1;
    counts = Stats.zero ();
    promotions = 0;
    demotions = 0;
  }

(* Classify the transition prev -> cur: None when prev's terminator is not
   conditional, Some taken otherwise. *)
let branch_outcome (t : t) ~prev ~cur : bool option =
  if prev < 0 then None
  else
    let pb = Layout.block t.layout prev in
    match pb.Block.term with
    | Block.T_cond (_, taken_pc, _) ->
        let cb = Layout.block t.layout cur in
        if cb.Block.method_id <> pb.Block.method_id then None
        else Some (cb.Block.start_pc = taken_pc)
    | Block.T_goto _ | Block.T_switch _ | Block.T_call _ | Block.T_return
    | Block.T_throw | Block.T_fallthrough _ ->
        None

(* Update bias profiling; returns whether the transition was covered by a
   promoted assertion (non-branches count as promoted). *)
let profile_transition (t : t) ~prev ~cur : bool =
  match branch_outcome t ~prev ~cur with
  | None -> true
  | Some taken ->
      let hist_mask = (1 lsl t.config.history_bits) - 1 in
      let key = (prev lsl t.config.history_bits) lor t.history in
      let b =
        match Hashtbl.find_opt t.bias key with
        | Some b -> b
        | None ->
            let b = { dir = taken; count = 0; promoted = false } in
            Hashtbl.replace t.bias key b;
            b
      in
      let was_promoted = b.promoted in
      if b.dir = taken then begin
        b.count <- b.count + 1;
        if (not b.promoted) && b.count >= t.config.promotion_run then begin
          b.promoted <- true;
          t.promotions <- t.promotions + 1
        end
      end
      else begin
        b.dir <- taken;
        b.count <- 1;
        if b.promoted then begin
          b.promoted <- false;
          t.demotions <- t.demotions + 1
        end
      end;
      t.history <- ((t.history lsl 1) lor Bool.to_int taken) land hist_mask;
      was_promoted

let mk_frame (t : t) (rev_blocks : Layout.gid list) : frame =
  let blocks = Array.of_list (List.rev rev_blocks) in
  let instr_len = Array.map (fun g -> Layout.block_len t.layout g) blocks in
  {
    entry = blocks.(0);
    blocks;
    total_instrs = Array.fold_left ( + ) 0 instr_len;
    instr_len;
  }

let finish_recording (t : t) rev_blocks =
  (match rev_blocks with
  | [] -> ()
  | blocks when List.length blocks >= t.config.min_blocks ->
      let fr = mk_frame t blocks in
      if not (Hashtbl.mem t.frames fr.entry) then begin
        Hashtbl.replace t.frames fr.entry fr;
        t.counts.traces_constructed <- t.counts.traces_constructed + 1
      end
  | _ -> ());
  t.mode <- Idle

(* Handle one block in Idle mode: enter an existing frame if one starts
   here, otherwise (if the incoming transition was asserted) begin
   recording a new one. *)
let process_idle (t : t) g ~asserted =
  let st = t.counts in
  match Hashtbl.find_opt t.frames g with
  | Some fr ->
      st.traces_entered <- st.traces_entered + 1;
      if Array.length fr.blocks = 1 then begin
        st.traces_completed <- st.traces_completed + 1;
        st.completed_blocks <- st.completed_blocks + 1;
        st.completed_instrs <- st.completed_instrs + fr.total_instrs
      end
      else t.mode <- Executing (fr, 1, 1, fr.instr_len.(0))
  | None ->
      st.block_dispatches <- st.block_dispatches + 1;
      if asserted then t.mode <- Recording [ g ]

let on_block (t : t) (g : Layout.gid) =
  let st = t.counts in
  let asserted = profile_transition t ~prev:t.prev ~cur:g in
  (match t.mode with
  | Idle -> process_idle t g ~asserted
  | Recording acc ->
      if not asserted then begin
        finish_recording t acc;
        process_idle t g ~asserted
      end
      else if Hashtbl.mem t.frames g then begin
        (* a frame already starts here: close the recording and chain into
           the existing frame, as rePLay links frames end to end *)
        finish_recording t acc;
        process_idle t g ~asserted
      end
      else begin
        st.block_dispatches <- st.block_dispatches + 1;
        if List.length acc + 1 >= t.config.max_blocks then
          finish_recording t (g :: acc)
        else t.mode <- Recording (g :: acc)
      end
  | Executing (fr, pos, mblocks, minstrs) ->
      if g = fr.blocks.(pos) then begin
        let mblocks = mblocks + 1 in
        let minstrs = minstrs + fr.instr_len.(pos) in
        if pos = Array.length fr.blocks - 1 then begin
          st.traces_completed <- st.traces_completed + 1;
          st.completed_blocks <- st.completed_blocks + mblocks;
          st.completed_instrs <- st.completed_instrs + minstrs;
          t.mode <- Idle
        end
        else t.mode <- Executing (fr, pos + 1, mblocks, minstrs)
      end
      else begin
        (* assertion failure: the hardware rolls the frame back *)
        st.partial_instrs <- st.partial_instrs + minstrs;
        t.mode <- Idle;
        process_idle t g ~asserted
      end);
  t.prev <- g

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
