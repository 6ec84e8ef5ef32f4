module Instr = Bytecode.Instr
module Layout = Cfg.Layout

(* A flat register-based micro-IR for hot traces.  The
   stack bytecode of a trace's blocks is converted to straight-line
   register code: every operand-stack push allocates a virtual register
   identified by its (epoch, stack depth) at push time, where the epoch
   increments at every call/return/throw barrier (the operand stack does
   not survive those in a way the converter can see, mirroring
   [Trace_optimizer]'s stack barriers).  Guards — the per-position block
   checks that trace dispatch performs — are carried as first-class IR
   ops, so a fusion pass can combine a block-ending compare with the
   guard it feeds into one superinstruction, and adjacent local-load +
   integer-arithmetic pairs into another.

   The lowering runs three phases:

   1. conversion: abstract-stack walk emitting one micro-op per source
      instruction, with constant folding (trace-local constants plus an
      optional [local_const] oracle fed by [Analysis.Constprop] facts),
      store/load forwarding through locals, and free stack shuffling
      (dup/pop/swap/goto emit nothing — registers make them renames);
   2. dead-register elimination: a backward pass drops pure ops whose
      destination register is never read, and local stores that are
      overwritten unread or proven dead at the trace seam by the
      caller's [store_dead] license ([Analysis.Liveness] live-out, same
      license as [Trace_optimizer]'s trailing dead stores);
   3. fusion: compare+guard and load+arith superinstructions.

   The lowered body is derived state: it is never persisted, and it is
   never the thing that executes — [Vm.Interp] always runs the real
   bytecode and backends only observe (DESIGN.md §10).  The body is what
   the compiled tier *accounts* dispatch against, and what [Trace_prover]
   re-derives to cross-check (TL220). *)

type reg = int

type cval =
  | Cint of int
  | Cfloat of float
  | Cnull

type iop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Ushr

type fop =
  | Fadd
  | Fsub
  | Fmul
  | Fdiv

type call_target =
  | Static of int (* method id *)
  | Virtual of int (* selector slot *)

type ret_kind =
  | Rvoid
  | Rint
  | Rfloat
  | Rref

type op =
  | Const of { dst : reg; v : cval }
  | Move of { dst : reg; src : reg }
  | Iarith of { op : iop; dst : reg; a : reg; b : reg }
  | Farith of { op : fop; dst : reg; a : reg; b : reg }
  | Ineg of { dst : reg; src : reg }
  | Fneg of { dst : reg; src : reg }
  | F2i of { dst : reg; src : reg }
  | I2f of { dst : reg; src : reg }
  | Fcmp of { dst : reg; a : reg; b : reg }
  | Load of { dst : reg; slot : int }
  | Store of { slot : int; src : reg }
  | Inc of { slot : int; delta : int }
  | Getfield of { dst : reg; obj : reg; cid : int; slot : int }
  | Putfield of { obj : reg; src : reg; cid : int; slot : int }
  | New_obj of { dst : reg; cid : int }
  | Instance_of of { dst : reg; src : reg; cid : int }
  | New_array of { dst : reg; kind : Instr.array_kind; len : reg }
  | Array_load of { dst : reg; arr : reg; idx : reg; kind : Instr.array_kind }
  | Array_store of { arr : reg; idx : reg; src : reg; kind : Instr.array_kind }
  | Array_len of { dst : reg; src : reg }
  | Branch of { cond : Instr.cond; a : reg; b : reg }
  | Branchz of { cond : Instr.cond; src : reg }
  | Switch of { src : reg }
  | Call of { target : call_target }
  | Ret of ret_kind
  | Throw of { src : reg }
  | Guard of { pos : int; expect : Layout.gid }
  (* superinstructions *)
  | Cmp_guard of {
      cond : Instr.cond;
      a : reg;
      b : reg;
      pos : int;
      expect : Layout.gid;
    }
  | Cmpz_guard of {
      cond : Instr.cond;
      src : reg;
      pos : int;
      expect : Layout.gid;
    }
  | Load_arith of {
      op : iop;
      dst : reg;
      slot : int;
      other : reg;
      load_left : bool;
          (* whether the loaded value is the left operand (a) *)
    }

type body = {
  ops : op array;
  block_start : int array;
      (* ops index where each trace position's segment begins;
         block_start.(0) = 0 *)
  pos_ops : int array; (* micro-ops per position, after DCE and fusion *)
  pos_fused : int array; (* superinstructions per position *)
  pos_src : int array; (* source bytecode instructions per position *)
  reg_origin : (int * int) array; (* (epoch, stack depth) of each register *)
  n_regs : int;
  src_instrs : int;
  folded : int; (* ops never emitted: constants, renames, dispatch glue *)
  dead : int; (* ops removed by dead-register/dead-store elimination *)
  fused : int; (* superinstructions formed *)
}

let n_ops b = Array.length b.ops

let n_positions b = Array.length b.block_start

(* ------------------------------------------------------------------ *)
(* Lowering                                                            *)
(* ------------------------------------------------------------------ *)

let is_fused = function
  | Cmp_guard _ | Cmpz_guard _ | Load_arith _ -> true
  | _ -> false

(* Pure ops are droppable when their destination is never read.  Ops
   that can trap in the real VM (division, heap and array access) are
   kept even though this IR never executes, so the op stream stays an
   honest model of the trace's work. *)
let pure_def = function
  | Const { dst; _ }
  | Move { dst; _ }
  | Iarith { op = Add | Sub | Mul | And | Or | Xor | Shl | Shr | Ushr; dst; _ }
  | Farith { dst; _ }
  | Ineg { dst; _ }
  | Fneg { dst; _ }
  | F2i { dst; _ }
  | I2f { dst; _ }
  | Fcmp { dst; _ }
  | Load { dst; _ } ->
      Some dst
  | _ -> None

let def_of = function
  | Const { dst; _ }
  | Move { dst; _ }
  | Iarith { dst; _ }
  | Farith { dst; _ }
  | Ineg { dst; _ }
  | Fneg { dst; _ }
  | F2i { dst; _ }
  | I2f { dst; _ }
  | Fcmp { dst; _ }
  | Load { dst; _ }
  | Getfield { dst; _ }
  | New_obj { dst; _ }
  | Instance_of { dst; _ }
  | New_array { dst; _ }
  | Array_load { dst; _ }
  | Array_len { dst; _ }
  | Load_arith { dst; _ } ->
      Some dst
  | _ -> None

let uses_of = function
  | Const _ | Load _ | Inc _ | New_obj _ | Call _ | Ret _ | Guard _ -> []
  | Move { src; _ }
  | Ineg { src; _ }
  | Fneg { src; _ }
  | F2i { src; _ }
  | I2f { src; _ }
  | Instance_of { src; _ }
  | Array_len { src; _ }
  | Branchz { src; _ }
  | Switch { src }
  | Throw { src }
  | Cmpz_guard { src; _ } ->
      [ src ]
  | Store { src; _ } -> [ src ]
  | Iarith { a; b; _ }
  | Farith { a; b; _ }
  | Fcmp { a; b; _ }
  | Branch { a; b; _ }
  | Cmp_guard { a; b; _ } ->
      [ a; b ]
  | Getfield { obj; _ } -> [ obj ]
  | Putfield { obj; src; _ } -> [ obj; src ]
  | New_array { len; _ } -> [ len ]
  | Array_load { arr; idx; _ } -> [ arr; idx ]
  | Array_store { arr; idx; src; _ } -> [ arr; idx; src ]
  | Load_arith { other; _ } -> [ other ]

let iop_of_instr = function
  | Instr.Iadd -> Some Add
  | Instr.Isub -> Some Sub
  | Instr.Imul -> Some Mul
  | Instr.Idiv -> Some Div
  | Instr.Irem -> Some Rem
  | Instr.Iand -> Some And
  | Instr.Ior -> Some Or
  | Instr.Ixor -> Some Xor
  | Instr.Ishl -> Some Shl
  | Instr.Ishr -> Some Shr
  | Instr.Iushr -> Some Ushr
  | _ -> None

(* The interpreter's exact integer semantics (shift masking matches
   [Vm.Interp]); [None] when folding would hide a trap. *)
let eval_iop op x y =
  match op with
  | Add -> Some (x + y)
  | Sub -> Some (x - y)
  | Mul -> Some (x * y)
  | Div -> if y = 0 then None else Some (x / y)
  | Rem -> if y = 0 then None else Some (x mod y)
  | And -> Some (x land y)
  | Or -> Some (x lor y)
  | Xor -> Some (x lxor y)
  | Shl -> Some (x lsl (y land 63))
  | Shr -> Some (x asr (y land 63))
  | Ushr -> Some (x lsr (y land 63))

let eval_fop op x y =
  match op with
  | Fadd -> x +. y
  | Fsub -> x -. y
  | Fmul -> x *. y
  | Fdiv -> x /. y

(* An emitted op cell: rewritable ([Store] -> dropped) and killable,
   tagged with the trace position it belongs to. *)
type cell = { mutable op : op; mutable kept : bool; pos : int }

let lower ?(local_const = fun ~pos:_ ~slot:_ -> None)
    ?(store_dead = fun ~pos:_ ~slot:_ -> false)
    (blocks : (Layout.gid * Instr.t array) array) : body =
  let n_pos = Array.length blocks in
  if n_pos = 0 then invalid_arg "Microir.lower: empty trace";
  (* --- phase 1: stack-to-register conversion ------------------------ *)
  let out : cell list ref = ref [] in
  let cur_pos = ref 0 in
  let emit op =
    let c = { op; kept = true; pos = !cur_pos } in
    out := c :: !out;
    c
  in
  let folded = ref 0 in
  let dead = ref 0 in
  (* registers: identity is the (epoch, depth) at allocation *)
  let origins = ref [] in
  let n_regs = ref 0 in
  let epoch = ref 0 in
  let stack : reg list ref = ref [] in
  let fresh () =
    let r = !n_regs in
    incr n_regs;
    origins := (!epoch, List.length !stack) :: !origins;
    r
  in
  let push r = stack := r :: !stack in
  let pop () =
    match !stack with
    | r :: rest ->
        stack := rest;
        r
    | [] ->
        (* stack content from before the trace entry: an opaque incoming
           register at negative depth *)
        let r = !n_regs in
        incr n_regs;
        origins := (!epoch, -1) :: !origins;
        r
  in
  (* constants known per register *)
  let consts : (reg, cval) Hashtbl.t = Hashtbl.create 32 in
  let const_of r = Hashtbl.find_opt consts r in
  (* locals: forwarding register per slot, plus which slots were written
     in this position (so the constprop block-entry oracle stays sound
     for untouched slots mid-block) and the last unconsumed store *)
  let local_reg : (int, reg) Hashtbl.t = Hashtbl.create 16 in
  let written_this_pos : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let oracle_ok = ref true in
  let last_store : (int, cell * bool ref * int) Hashtbl.t =
    Hashtbl.create 16
  in
  let barrier () =
    stack := [];
    incr epoch;
    Hashtbl.reset consts;
    Hashtbl.reset local_reg;
    Hashtbl.reset last_store;
    (* a call may re-enter this frame's method; the block-entry facts no
       longer describe the current point conservatively *)
    oracle_ok := false
  in
  let local_fact ~slot =
    match Hashtbl.find_opt local_reg slot with
    | Some r -> (Some r, const_of r)
    | None ->
        if !oracle_ok && not (Hashtbl.mem written_this_pos slot) then
          (None, local_const ~pos:!cur_pos ~slot)
        else (None, None)
  in
  let consume_local slot =
    match Hashtbl.find_opt last_store slot with
    | Some (_, consumed, _) -> consumed := true
    | None -> ()
  in
  let note_store slot src cell =
    (match Hashtbl.find_opt last_store slot with
    | Some (prev, consumed, _) when not !consumed ->
        (* overwritten before any load: the previous store is dead *)
        prev.kept <- false;
        incr dead
    | Some _ | None -> ());
    Hashtbl.replace last_store slot (cell, ref false, !cur_pos);
    Hashtbl.replace local_reg slot src;
    Hashtbl.replace written_this_pos slot ()
  in
  let push_const v =
    let r = fresh () in
    ignore (emit (Const { dst = r; v }));
    Hashtbl.replace consts r v;
    push r
  in
  let push_folded v =
    incr folded;
    push_const v
  in
  let kind_of_array_instr = function
    | Instr.Iaload | Instr.Iastore -> Instr.Int_array
    | Instr.Faload | Instr.Fastore -> Instr.Float_array
    | _ -> Instr.Ref_array
  in
  let lower_instr ins =
    match ins with
    | Instr.Iconst v -> push_const (Cint v)
    | Instr.Fconst v -> push_const (Cfloat v)
    | Instr.Aconst_null -> push_const Cnull
    | Instr.Iload slot | Instr.Fload slot | Instr.Aload slot -> (
        consume_local slot;
        match local_fact ~slot with
        | Some r, _ ->
            (* store/load forwarding: the stored register is the value *)
            incr folded;
            push r
        | None, Some v ->
            (* constprop proved the slot constant at this point *)
            push_folded v
        | None, None ->
            let r = fresh () in
            ignore (emit (Load { dst = r; slot }));
            Hashtbl.replace local_reg slot r;
            push r)
    | Instr.Istore slot | Instr.Fstore slot | Instr.Astore slot ->
        let src = pop () in
        let c = emit (Store { slot; src }) in
        note_store slot src c
    | Instr.Iinc (slot, delta) ->
        consume_local slot;
        (match Hashtbl.find_opt local_reg slot with
        | Some r -> (
            Hashtbl.remove local_reg slot;
            match const_of r with
            | Some (Cint v) ->
                (* keep the constant view in step with the increment by
                   binding the slot to a fresh folded register *)
                let nr = fresh () in
                Hashtbl.replace consts nr (Cint (v + delta));
                Hashtbl.replace local_reg slot nr
            | _ -> ())
        | None -> ());
        Hashtbl.replace written_this_pos slot ();
        ignore (emit (Inc { slot; delta }))
    | Instr.Dup -> (
        match !stack with
        | r :: _ ->
            incr folded;
            push r
        | [] ->
            let r = pop () in
            push r;
            push r;
            incr folded)
    | Instr.Pop ->
        ignore (pop ());
        incr folded
    | Instr.Swap ->
        let a = pop () in
        let b = pop () in
        push a;
        push b;
        incr folded
    | Instr.Iadd | Instr.Isub | Instr.Imul | Instr.Idiv | Instr.Irem
    | Instr.Iand | Instr.Ior | Instr.Ixor | Instr.Ishl | Instr.Ishr
    | Instr.Iushr -> (
        let op =
          match iop_of_instr ins with Some o -> o | None -> assert false
        in
        let b = pop () in
        let a = pop () in
        match (const_of a, const_of b) with
        | Some (Cint x), Some (Cint y) -> (
            match eval_iop op x y with
            | Some r -> push_folded (Cint r)
            | None ->
                let r = fresh () in
                ignore (emit (Iarith { op; dst = r; a; b }));
                push r)
        | _, Some (Cint 0)
          when op = Add || op = Sub || op = Or || op = Xor || op = Shl
               || op = Shr || op = Ushr ->
            (* algebraic identity: the left operand passes through *)
            incr folded;
            push a
        | _, Some (Cint 1) when op = Mul || op = Div ->
            incr folded;
            push a
        | _ ->
            let r = fresh () in
            ignore (emit (Iarith { op; dst = r; a; b }));
            push r)
    | Instr.Ineg -> (
        let a = pop () in
        match const_of a with
        | Some (Cint x) -> push_folded (Cint (-x))
        | _ ->
            let r = fresh () in
            ignore (emit (Ineg { dst = r; src = a }));
            push r)
    | Instr.Fadd | Instr.Fsub | Instr.Fmul | Instr.Fdiv -> (
        let op =
          match ins with
          | Instr.Fadd -> Fadd
          | Instr.Fsub -> Fsub
          | Instr.Fmul -> Fmul
          | _ -> Fdiv
        in
        let b = pop () in
        let a = pop () in
        match (const_of a, const_of b) with
        | Some (Cfloat x), Some (Cfloat y) ->
            push_folded (Cfloat (eval_fop op x y))
        | _ ->
            let r = fresh () in
            ignore (emit (Farith { op; dst = r; a; b }));
            push r)
    | Instr.Fneg -> (
        let a = pop () in
        match const_of a with
        | Some (Cfloat x) -> push_folded (Cfloat (-.x))
        | _ ->
            let r = fresh () in
            ignore (emit (Fneg { dst = r; src = a }));
            push r)
    | Instr.F2i ->
        let a = pop () in
        let r = fresh () in
        ignore (emit (F2i { dst = r; src = a }));
        push r
    | Instr.I2f ->
        let a = pop () in
        let r = fresh () in
        ignore (emit (I2f { dst = r; src = a }));
        push r
    | Instr.Fcmp -> (
        let b = pop () in
        let a = pop () in
        match (const_of a, const_of b) with
        | Some (Cfloat x), Some (Cfloat y) ->
            push_folded (Cint (compare x y))
        | _ ->
            let r = fresh () in
            ignore (emit (Fcmp { dst = r; a; b }));
            push r)
    | Instr.If_icmp (cond, _) ->
        let b = pop () in
        let a = pop () in
        ignore (emit (Branch { cond; a; b }))
    | Instr.Ifz (cond, _) ->
        let src = pop () in
        ignore (emit (Branchz { cond; src }))
    | Instr.Goto _ ->
        (* linearized: pure dispatch glue *)
        incr folded
    | Instr.Tableswitch _ ->
        let src = pop () in
        ignore (emit (Switch { src }))
    | Instr.Invokestatic mid ->
        ignore (emit (Call { target = Static mid }));
        barrier ()
    | Instr.Invokevirtual sel ->
        ignore (emit (Call { target = Virtual sel }));
        barrier ()
    | Instr.Return ->
        ignore (emit (Ret Rvoid));
        barrier ()
    | Instr.Ireturn ->
        ignore (pop ());
        ignore (emit (Ret Rint));
        barrier ()
    | Instr.Freturn ->
        ignore (pop ());
        ignore (emit (Ret Rfloat));
        barrier ()
    | Instr.Areturn ->
        ignore (pop ());
        ignore (emit (Ret Rref));
        barrier ()
    | Instr.Athrow ->
        let src = pop () in
        ignore (emit (Throw { src }));
        barrier ()
    | Instr.New cid ->
        let r = fresh () in
        ignore (emit (New_obj { dst = r; cid }));
        push r
    | Instr.Getfield (cid, slot) ->
        let obj = pop () in
        let r = fresh () in
        ignore (emit (Getfield { dst = r; obj; cid; slot }));
        push r
    | Instr.Putfield (cid, slot) ->
        let src = pop () in
        let obj = pop () in
        ignore (emit (Putfield { obj; src; cid; slot }))
    | Instr.Instanceof cid ->
        let src = pop () in
        let r = fresh () in
        ignore (emit (Instance_of { dst = r; src; cid }));
        push r
    | Instr.Newarray kind ->
        let len = pop () in
        let r = fresh () in
        ignore (emit (New_array { dst = r; kind; len }));
        push r
    | Instr.Iaload | Instr.Faload | Instr.Aaload ->
        let idx = pop () in
        let arr = pop () in
        let r = fresh () in
        ignore
          (emit
             (Array_load { dst = r; arr; idx; kind = kind_of_array_instr ins }));
        push r
    | Instr.Iastore | Instr.Fastore | Instr.Aastore ->
        let src = pop () in
        let idx = pop () in
        let arr = pop () in
        ignore
          (emit (Array_store { arr; idx; src; kind = kind_of_array_instr ins }))
    | Instr.Arraylength ->
        let a = pop () in
        let r = fresh () in
        ignore (emit (Array_len { dst = r; src = a }));
        push r
    | Instr.Nop -> incr folded
  in
  let src_instrs = ref 0 in
  Array.iteri
    (fun pos (gid, instrs) ->
      cur_pos := pos;
      Hashtbl.reset written_this_pos;
      oracle_ok := true;
      if pos > 0 then ignore (emit (Guard { pos; expect = gid }));
      src_instrs := !src_instrs + Array.length instrs;
      Array.iter lower_instr instrs)
    blocks;
  (* --- phase 2: dead-store and dead-register elimination ------------ *)
  (* trailing stores: never re-read within the trace; removable only
     under the caller's liveness license (dead at the trace seam and not
     observable on an exceptional edge) *)
  Hashtbl.iter
    (fun slot (cell, consumed, pos) ->
      if (not !consumed) && cell.kept && store_dead ~pos ~slot then (
        cell.kept <- false;
        incr dead))
    last_store;
  (* backward pass: a pure op whose destination no kept op reads is dead,
     and killing it can expose its operands' producers *)
  let cells_rev = !out in
  let needed = Array.make (Int.max 1 !n_regs) false in
  List.iter
    (fun c ->
      if c.kept then
        match pure_def c.op with
        | Some dst when not needed.(dst) ->
            c.kept <- false;
            incr dead
        | _ -> List.iter (fun r -> needed.(r) <- true) (uses_of c.op))
    cells_rev;
  let cells = List.rev (List.filter (fun c -> c.kept) cells_rev) in
  (* --- phase 3: superinstruction fusion ----------------------------- *)
  let reads = Array.make (Int.max 1 !n_regs) 0 in
  List.iter
    (fun c -> List.iter (fun r -> reads.(r) <- reads.(r) + 1) (uses_of c.op))
    cells;
  let fused = ref 0 in
  let rec fuse = function
    | ({ op = Branch { cond; a; b }; _ } as c1)
      :: { op = Guard { pos; expect }; _ }
      :: rest ->
        incr fused;
        { c1 with op = Cmp_guard { cond; a; b; pos; expect }; pos } :: fuse rest
    | ({ op = Branchz { cond; src }; _ } as c1)
      :: { op = Guard { pos; expect }; _ }
      :: rest ->
        incr fused;
        { c1 with op = Cmpz_guard { cond; src; pos; expect }; pos }
        :: fuse rest
    | ({ op = Load { dst = r; slot }; pos = p1; _ } as c1)
      :: ({ op = Iarith { op; dst; a; b }; pos = p2; _ } as c2)
      :: rest
      when p1 = p2 && (a = r || b = r) && reads.(r) = 1 && dst <> r ->
        incr fused;
        let load_left = a = r in
        let other = if load_left then b else a in
        ignore c2;
        { c1 with op = Load_arith { op; dst; slot; other; load_left } }
        :: fuse rest
    | c :: rest -> c :: fuse rest
    | [] -> []
  in
  let cells = fuse cells in
  (* --- assemble ------------------------------------------------------ *)
  let ops = Array.of_list (List.map (fun c -> c.op) cells) in
  let poss = Array.of_list (List.map (fun c -> c.pos) cells) in
  let pos_ops = Array.make n_pos 0 in
  let pos_fused = Array.make n_pos 0 in
  let pos_src = Array.map (fun (_, instrs) -> Array.length instrs) blocks in
  Array.iteri
    (fun i p ->
      pos_ops.(p) <- pos_ops.(p) + 1;
      if is_fused ops.(i) then pos_fused.(p) <- pos_fused.(p) + 1)
    poss;
  let block_start = Array.make n_pos (Array.length ops) in
  for i = Array.length ops - 1 downto 0 do
    block_start.(poss.(i)) <- i
  done;
  (* a position whose ops were all folded away starts where the next
     position starts; fix up right-to-left so starts stay monotone *)
  for p = n_pos - 2 downto 0 do
    if block_start.(p) > block_start.(p + 1) then
      block_start.(p) <- block_start.(p + 1)
  done;
  block_start.(0) <- 0;
  {
    ops;
    block_start;
    pos_ops;
    pos_fused;
    pos_src;
    reg_origin = Array.of_list (List.rev !origins);
    n_regs = !n_regs;
    src_instrs = !src_instrs;
    folded = !folded;
    dead = !dead;
    fused = !fused;
  }

(* ------------------------------------------------------------------ *)
(* Structural checks and equality                                      *)
(* ------------------------------------------------------------------ *)

let equal_body a b =
  a.ops = b.ops && a.block_start = b.block_start && a.n_regs = b.n_regs

(* Structural invariants of a lowered body.  [expect] is the trace's
   block gid array; when given, every guard's expected block is checked
   against it. *)
let check ?expect (b : body) : string list =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  let n_pos = Array.length b.block_start in
  if n_pos = 0 then err "no positions";
  if n_pos > 0 && b.block_start.(0) <> 0 then
    err "block_start.(0) = %d, want 0" b.block_start.(0);
  for p = 1 to n_pos - 1 do
    if b.block_start.(p) < b.block_start.(p - 1) then
      err "block_start not monotone at %d" p
  done;
  if Array.fold_left ( + ) 0 b.pos_ops <> Array.length b.ops then
    err "pos_ops sums to %d, want %d"
      (Array.fold_left ( + ) 0 b.pos_ops)
      (Array.length b.ops);
  (* every register mentioned must be allocated *)
  Array.iter
    (fun op ->
      let regs =
        match def_of op with Some d -> d :: uses_of op | None -> uses_of op
      in
      List.iter
        (fun r -> if r < 0 || r >= b.n_regs then err "register %d out of range" r)
        regs)
    b.ops;
  (* guards: exactly one per position 1..n-1, with the right pos *)
  let seen = Array.make (Int.max 1 n_pos) 0 in
  Array.iter
    (fun op ->
      match op with
      | Guard { pos; expect = e }
      | Cmp_guard { pos; expect = e; _ }
      | Cmpz_guard { pos; expect = e; _ } ->
          if pos <= 0 || pos >= n_pos then err "guard pos %d out of range" pos
          else begin
            seen.(pos) <- seen.(pos) + 1;
            match expect with
            | Some gids when pos < Array.length gids && gids.(pos) <> e ->
                err "guard at %d expects block %d, trace has %d" pos e
                  gids.(pos)
            | _ -> ()
          end
      | _ -> ())
    b.ops;
  for p = 1 to n_pos - 1 do
    if seen.(p) <> 1 then err "position %d has %d guards, want 1" p seen.(p)
  done;
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let cval_to_string = function
  | Cint v -> string_of_int v
  | Cfloat v -> Printf.sprintf "%g" v
  | Cnull -> "null"

let iop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
  | Ushr -> "ushr"

let fop_to_string = function
  | Fadd -> "fadd"
  | Fsub -> "fsub"
  | Fmul -> "fmul"
  | Fdiv -> "fdiv"

let op_to_string = function
  | Const { dst; v } -> Printf.sprintf "r%d = const %s" dst (cval_to_string v)
  | Move { dst; src } -> Printf.sprintf "r%d = r%d" dst src
  | Iarith { op; dst; a; b } ->
      Printf.sprintf "r%d = %s r%d, r%d" dst (iop_to_string op) a b
  | Farith { op; dst; a; b } ->
      Printf.sprintf "r%d = %s r%d, r%d" dst (fop_to_string op) a b
  | Ineg { dst; src } -> Printf.sprintf "r%d = neg r%d" dst src
  | Fneg { dst; src } -> Printf.sprintf "r%d = fneg r%d" dst src
  | F2i { dst; src } -> Printf.sprintf "r%d = f2i r%d" dst src
  | I2f { dst; src } -> Printf.sprintf "r%d = i2f r%d" dst src
  | Fcmp { dst; a; b } -> Printf.sprintf "r%d = fcmp r%d, r%d" dst a b
  | Load { dst; slot } -> Printf.sprintf "r%d = local[%d]" dst slot
  | Store { slot; src } -> Printf.sprintf "local[%d] = r%d" slot src
  | Inc { slot; delta } -> Printf.sprintf "local[%d] += %d" slot delta
  | Getfield { dst; obj; cid; slot } ->
      Printf.sprintf "r%d = r%d.f%d_%d" dst obj cid slot
  | Putfield { obj; src; cid; slot } ->
      Printf.sprintf "r%d.f%d_%d = r%d" obj cid slot src
  | New_obj { dst; cid } -> Printf.sprintf "r%d = new c%d" dst cid
  | Instance_of { dst; src; cid } ->
      Printf.sprintf "r%d = r%d instanceof c%d" dst src cid
  | New_array { dst; len; _ } -> Printf.sprintf "r%d = newarray r%d" dst len
  | Array_load { dst; arr; idx; _ } ->
      Printf.sprintf "r%d = r%d[r%d]" dst arr idx
  | Array_store { arr; idx; src; _ } ->
      Printf.sprintf "r%d[r%d] = r%d" arr idx src
  | Array_len { dst; src } -> Printf.sprintf "r%d = len r%d" dst src
  | Branch { cond; a; b } ->
      Printf.sprintf "br_%s r%d, r%d" (Instr.cond_to_string cond) a b
  | Branchz { cond; src } ->
      Printf.sprintf "brz_%s r%d" (Instr.cond_to_string cond) src
  | Switch { src } -> Printf.sprintf "switch r%d" src
  | Call { target = Static mid } -> Printf.sprintf "call m%d" mid
  | Call { target = Virtual sel } -> Printf.sprintf "callv s%d" sel
  | Ret Rvoid -> "ret"
  | Ret Rint -> "iret"
  | Ret Rfloat -> "fret"
  | Ret Rref -> "aret"
  | Throw { src } -> Printf.sprintf "throw r%d" src
  | Guard { pos; expect } -> Printf.sprintf "guard @%d -> b%d" pos expect
  | Cmp_guard { cond; a; b; pos; expect } ->
      Printf.sprintf "cmp%s.guard r%d, r%d @%d -> b%d"
        (Instr.cond_to_string cond) a b pos expect
  | Cmpz_guard { cond; src; pos; expect } ->
      Printf.sprintf "cmpz%s.guard r%d @%d -> b%d" (Instr.cond_to_string cond)
        src pos expect
  | Load_arith { op; dst; slot; other; load_left } ->
      if load_left then
        Printf.sprintf "r%d = %s local[%d], r%d" dst (iop_to_string op) slot
          other
      else
        Printf.sprintf "r%d = %s r%d, local[%d]" dst (iop_to_string op) other
          slot
