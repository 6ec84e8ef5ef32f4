(* Program rewriting for tests that must change a run's state without a
   hook into the interpreter: [at_leaders layout code] inserts
   [code ~method_id ~block_index] in front of every block's first
   instruction.  Every branch, switch and handler target, and every
   handler range bound, moves to the start of the code inserted at its
   pc, so the rewritten program has the same blocks in the same order
   and dispatches exactly as often as the original, provided the inserted
   code is straight-line and leaves the operand stack as it found it. *)

module Instr = Bytecode.Instr
module Mthd = Bytecode.Mthd
module Layout = Cfg.Layout

let rewrite_method (cfg : Cfg.Method_cfg.t) (m : Mthd.t) code_at =
  let n = Array.length m.Mthd.code in
  let inserted = Array.make n [] in
  Array.iter
    (fun (b : Cfg.Block.t) ->
      inserted.(b.start_pc) <-
        code_at ~method_id:m.Mthd.id ~block_index:b.index)
    cfg.Cfg.Method_cfg.blocks;
  (* [start.(pc)]: where the code inserted at [pc] begins; [start.(n)] is
     the rewritten method's length *)
  let start = Array.make (n + 1) 0 in
  for pc = 0 to n - 1 do
    start.(pc + 1) <- start.(pc) + List.length inserted.(pc) + 1
  done;
  let retarget : Instr.t -> Instr.t = function
    | Instr.If_icmp (c, t) -> Instr.If_icmp (c, start.(t))
    | Instr.Ifz (c, t) -> Instr.Ifz (c, start.(t))
    | Instr.Goto t -> Instr.Goto start.(t)
    | Instr.Tableswitch { low; targets; default } ->
        Instr.Tableswitch
          {
            low;
            targets = Array.map (fun t -> start.(t)) targets;
            default = start.(default);
          }
    | ins -> ins
  in
  let code =
    Array.to_list m.Mthd.code
    |> List.mapi (fun pc ins -> inserted.(pc) @ [ retarget ins ])
    |> List.concat |> Array.of_list
  in
  let handlers =
    Array.map
      (fun (h : Mthd.handler) ->
        {
          h with
          h_from = start.(h.h_from);
          h_to = start.(h.h_to);
          h_target = start.(h.h_target);
        })
      m.Mthd.handlers
  in
  { m with code; handlers }

let at_leaders (layout : Layout.t) code_at : Bytecode.Program.t =
  let p = layout.Layout.program in
  {
    p with
    methods =
      Array.mapi
        (fun mid m -> rewrite_method layout.Layout.cfgs.(mid) m code_at)
        p.Bytecode.Program.methods;
  }

(* [Iconst v; Istore k] for every slot [k] of [slots]. *)
let stores v slots =
  List.concat_map (fun k -> [ Instr.Iconst v; Instr.Istore k ]) slots
