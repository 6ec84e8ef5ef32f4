module Instr = Bytecode.Instr
module Mthd = Bytecode.Mthd
module Klass = Bytecode.Klass
module Program = Bytecode.Program

(* Basic-block discovery for one method.

   Leaders are: pc 0, every branch/switch target, and the pc following any
   block-ending instruction (branch, switch, call, return).  Blocks cover
   the instruction array exactly; unreachable blocks are kept (the VM never
   enters them, and the profiler never sees them). *)

type t = {
  method_ : Mthd.t;
  blocks : Block.t array;
  pc_to_block : int array; (* pc -> block index *)
}

let build (m : Mthd.t) : t =
  let code = m.Mthd.code in
  let n = Array.length code in
  if n = 0 then invalid_arg "Method_cfg.build: empty method";
  let leader = Array.make n false in
  leader.(0) <- true;
  Array.iteri
    (fun pc ins ->
      List.iter
        (fun t ->
          if t < 0 || t >= n then
            invalid_arg
              (Printf.sprintf "Method_cfg.build(%s): branch target %d out of range"
                 m.Mthd.name t);
          leader.(t) <- true)
        (Instr.branch_targets ins);
      if Instr.ends_block ins && pc + 1 < n then leader.(pc + 1) <- true)
    code;
  (* exception handler entries are reached by dynamic edges *)
  Array.iter
    (fun h ->
      if h.Mthd.h_target >= 0 && h.Mthd.h_target < n then
        leader.(h.Mthd.h_target) <- true)
    m.Mthd.handlers;
  let starts =
    Array.to_list (Array.mapi (fun pc is_l -> (pc, is_l)) leader)
    |> List.filter_map (fun (pc, is_l) -> if is_l then Some pc else None)
    |> Array.of_list
  in
  let n_blocks = Array.length starts in
  let block_end i = if i + 1 < n_blocks then starts.(i + 1) else n in
  let terminator i =
    let last = block_end i - 1 in
    let next = block_end i in
    match code.(last) with
    | Instr.If_icmp (c, t) -> Block.T_cond (c, t, next)
    | Instr.Ifz (c, t) -> Block.T_cond (c, t, next)
    | Instr.Goto t -> Block.T_goto t
    | Instr.Tableswitch { low; targets; default } ->
        Block.T_switch { low; targets; default }
    | Instr.Invokestatic _ ->
        Block.T_call { next_pc = next; virtual_ = false }
    | Instr.Invokevirtual _ ->
        Block.T_call { next_pc = next; virtual_ = true }
    | Instr.Return | Instr.Ireturn | Instr.Freturn | Instr.Areturn ->
        Block.T_return
    | Instr.Athrow -> Block.T_throw
    | _ ->
        if next >= n then
          invalid_arg
            (Printf.sprintf
               "Method_cfg.build(%s): control falls off the end of the code"
               m.Mthd.name)
        else Block.T_fallthrough next
  in
  let blocks =
    Array.init n_blocks (fun i ->
        {
          Block.method_id = m.Mthd.id;
          index = i;
          start_pc = starts.(i);
          len = block_end i - starts.(i);
          term = terminator i;
        })
  in
  let pc_to_block = Array.make n 0 in
  Array.iteri
    (fun i b ->
      for pc = b.Block.start_pc to Block.end_pc b - 1 do
        pc_to_block.(pc) <- i
      done)
    blocks;
  { method_ = m; blocks; pc_to_block }

let n_blocks t = Array.length t.blocks

let block_at_pc t pc = t.blocks.(t.pc_to_block.(pc))

(* The interpreter resolves every dispatch through this one, inlined so
   that the dispatch makes no call for it (DESIGN.md §22). *)
let[@inline] block_index_at_pc t pc = t.pc_to_block.(pc)

(* Intraprocedural successor block indices (calls fall through to their
   return continuation; returns have no intraprocedural successor). *)
let successors t (b : Block.t) : int list =
  let idx pc = t.pc_to_block.(pc) in
  match b.Block.term with
  | Block.T_cond (_, taken, fall) ->
      if taken = fall then [ idx taken ] else [ idx taken; idx fall ]
  | Block.T_goto target -> [ idx target ]
  | Block.T_switch { targets; default; _ } ->
      let all = default :: Array.to_list targets in
      List.sort_uniq compare (List.map idx all)
  | Block.T_call { next_pc; _ } ->
      if next_pc < Array.length t.pc_to_block then [ idx next_pc ] else []
  | Block.T_return -> []
  | Block.T_throw -> []
  | Block.T_fallthrough next -> [ idx next ]

(* Predecessor lists, computed on demand. *)
let predecessors t : int list array =
  let preds = Array.make (n_blocks t) [] in
  Array.iteri
    (fun i b ->
      List.iter (fun s -> preds.(s) <- i :: preds.(s)) (successors t b))
    t.blocks;
  preds

let pp ppf t =
  Format.fprintf ppf "cfg of %s: %d blocks@\n" t.method_.Mthd.name
    (n_blocks t);
  Array.iter
    (fun b ->
      Format.fprintf ppf "  %a -> [%s]@\n" Block.pp b
        (String.concat ","
           (List.map string_of_int (successors t b))))
    t.blocks
