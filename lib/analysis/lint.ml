module Method_cfg = Cfg.Method_cfg
module Block = Cfg.Block
module Mthd = Bytecode.Mthd
module Instr = Bytecode.Instr
module Program = Bytecode.Program
module Verify = Bytecode.Verify

let mloc name ?block ?pc () = Diag.Method_loc { method_name = name; block; pc }

let lint_method ?context ~max_trace_blocks (program : Program.t) (m : Mthd.t) =
  let cfg = Method_cfg.build m in
  let name = m.Mthd.name in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let live = Liveness.compute cfg in
  let cp = Constprop.compute program cfg in
  let loops = Loops.compute cfg in

  (* TL002: blocks no execution can reach, even through a handler *)
  Array.iteri
    (fun b reached ->
      if not reached then
        let blk = cfg.Method_cfg.blocks.(b) in
        add
          (Diag.make ?context ~code:"TL002" ~severity:Diag.Warning
             ~loc:(mloc name ~block:b ~pc:blk.Block.start_pc ())
             (Printf.sprintf "unreachable block (pcs %d..%d)"
                blk.Block.start_pc (Block.last_pc blk))))
    live.Liveness.reach;

  (* TL003: retreating edges that are not back edges *)
  List.iter
    (fun (src, dst) ->
      add
        (Diag.make ?context ~code:"TL003" ~severity:Diag.Warning
           ~loc:(mloc name ~block:src ())
           (Printf.sprintf
              "irreducible control flow: edge B%d->B%d retreats but B%d does \
               not dominate B%d"
              src dst dst src)))
    loops.Loops.irreducible;

  (* TL004: loops too large to be covered by a single trace *)
  Array.iter
    (fun l ->
      let size = List.length l.Loops.blocks in
      if size > max_trace_blocks then
        add
          (Diag.make ?context ~code:"TL004" ~severity:Diag.Info
             ~loc:(mloc name ~block:l.Loops.header ())
             (Printf.sprintf
                "natural loop at B%d spans %d blocks (depth %d); larger than \
                 any single trace can cover"
                l.Loops.header size l.Loops.depth)))
    loops.Loops.loops;

  (* TL101: dead stores *)
  List.iter
    (fun { Liveness.block; pc; slot; instr } ->
      add
        (Diag.make ?context ~code:"TL101" ~severity:Diag.Error
           ~loc:(mloc name ~block ~pc ())
           (Printf.sprintf "dead store: %s writes local %d but no path reads \
                            it afterwards"
              (Instr.to_string instr) slot)))
    (Liveness.dead_stores live);

  (* TL102 / TL105 from constant propagation *)
  List.iter
    (fun f ->
      match f with
      | Constprop.Branch_always { block; pc; taken } ->
          add
            (Diag.make ?context ~code:"TL102" ~severity:Diag.Warning
               ~loc:(mloc name ~block ~pc ())
               (Printf.sprintf "conditional %s always %s"
                  (Instr.to_string m.Mthd.code.(pc))
                  (if taken then "branches" else "falls through")))
      | Constprop.Div_by_zero { block; pc } ->
          add
            (Diag.make ?context ~code:"TL105" ~severity:Diag.Warning
               ~loc:(mloc name ~block ~pc ())
               "division by a divisor that is provably zero"))
    (Constprop.findings cp);

  (* TL103: a value crosses a multi-predecessor merge on the stack *)
  Array.iteri
    (fun b st ->
      match st with
      | Constprop.Reached { stack; _ }
        when stack <> []
             && List.length (Method_cfg.predecessors cfg).(b) > 1 ->
          add
            (Diag.make ?context ~code:"TL103" ~severity:Diag.Info
               ~loc:(mloc name ~block:b ())
               (Printf.sprintf
                  "merge block entered with %d operand(s) on the stack"
                  (List.length stack)))
      | _ -> ())
    cp.Constprop.entry;

  (* TL104: non-argument slots never read anywhere in the method *)
  let read = Array.make m.Mthd.n_locals false in
  Array.iter
    (fun i -> List.iter (fun u -> read.(u) <- true) (Liveness.uses i))
    m.Mthd.code;
  let written = Array.make m.Mthd.n_locals false in
  Array.iter
    (fun i -> List.iter (fun d -> written.(d) <- true) (Liveness.defs i))
    m.Mthd.code;
  for slot = m.Mthd.n_args to m.Mthd.n_locals - 1 do
    if written.(slot) && not read.(slot) then
      add
        (Diag.make ?context ~code:"TL104" ~severity:Diag.Info
           ~loc:(mloc name ())
           (Printf.sprintf "local slot %d is written but never read" slot))
  done;
  List.rev !diags

let lint_program ?context ~max_trace_blocks (program : Program.t) =
  match Verify.verify_program_all program with
  | _ :: _ as errors ->
      (* dataflow assumes verified code; report the violations and stop *)
      List.map
        (fun (e : Verify.error) ->
          Diag.make ?context ~code:"TL001" ~severity:Diag.Error
            ~loc:(mloc e.Verify.method_name ~pc:e.Verify.pc ())
            e.Verify.message)
        errors
  | [] ->
      Array.to_list program.Program.methods
      |> List.concat_map (lint_method ?context ~max_trace_blocks program)
