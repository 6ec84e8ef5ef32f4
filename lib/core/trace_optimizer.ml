module Instr = Bytecode.Instr
module Layout = Cfg.Layout
module Block = Cfg.Block

(* The paper's future work (§6): traces are "excellent targets for dynamic
   optimization" because they have a single entry and an expected-to-
   complete straight-line body.  This module implements that step: it
   concatenates a trace's blocks into one instruction sequence and runs
   classic local optimizations that are valid under the single-entry
   assumption —

   - constant folding of integer and float arithmetic;
   - store/load forwarding through locals (a load after a store to the
     same local reuses the stored value);
   - copy-aware dead-store elimination (a store overwritten before any
     load, within the trace, with no intervening call, is dropped);
   - algebraic identities (x+0, x*1, x*0, x&0, ...);
   - dup/pop and push/pop cancellation.

   Branches inside the trace become assertions in a real system; here the
   optimizer treats them as barriers that consume their operands but keep
   their position (the trace exits there if the assertion fails).  Calls
   are full barriers: locals may be observed by re-entry... in this VM
   locals are frame-private, so calls only act as stack barriers, but we
   conservatively also bar store/load forwarding across them to keep the
   model honest about side effects through the heap.

   The result is a measure of the optimization headroom the paper's design
   criterion number four ("optimizable traces") buys. *)

(* Abstract stack values for the simulation. *)
type aval =
  | Const_int of int
  | Const_float of float
  | Opaque of int (* an unknown value with an identity (its def index) *)

type result = {
  original : Instr.t array;
  optimized : Instr.t array;
  folded : int; (* instructions removed by constant folding/identities *)
  forwarded : int; (* loads satisfied by store/load forwarding *)
  dead_stores : int;
  trailing_dead_stores : int;
}

(* The code of a trace: its blocks' instructions concatenated, in order.
   Only same-method, straight-through traces can be concatenated
   textually; traces that cross calls/returns keep those instructions as
   barriers. *)
let trace_code (layout : Layout.t) (tr : Trace.t) : Instr.t array =
  let buf = ref [] in
  Array.iter
    (fun g ->
      let b = Layout.block layout g in
      let m = Layout.method_of_gid layout g in
      for pc = b.Block.start_pc to Block.end_pc b - 1 do
        buf := m.Bytecode.Mthd.code.(pc) :: !buf
      done)
    tr.Trace.blocks;
  Array.of_list (List.rev !buf)

(* One pass of local optimization over straight-line code.  We simulate
   the operand stack; every emitted instruction is tagged with its index
   so forwarding can mark stores as still-needed. *)
let optimize_code ?(live_out = fun _ -> true) ?(covered_from = fun _ -> false)
    (code : Instr.t array) : result =
  let n = Array.length code in
  (* emitted instructions, in reverse.  Each carries a mutable cell so a
     later discovery can rewrite it (dead stores become Pop — same stack
     effect, no local write) and a "kept" flag so pure glue can vanish. *)
  let out : (Instr.t ref * bool ref) list ref = ref [] in
  let emit ins =
    let cell = ref ins in
    let kept = ref true in
    out := (cell, kept) :: !out;
    cell
  in
  let folded = ref 0 in
  let forwarded = ref 0 in
  let dead_stores = ref 0 in
  (* abstract stack *)
  let stack : aval list ref = ref [] in
  let fresh =
    let k = ref 0 in
    fun () ->
      incr k;
      Opaque !k
  in
  let push v = stack := v :: !stack in
  let pop () =
    match !stack with
    | v :: rest ->
        stack := rest;
        v
    | [] -> fresh () (* stack content from before the trace: opaque *)
  in
  (* local state: value if known, plus the last store instruction's kept
     flag and whether any load has consumed it *)
  let known : (int, aval) Hashtbl.t = Hashtbl.create 16 in
  let last_store : (int, Instr.t ref * bool ref * int) Hashtbl.t =
    Hashtbl.create 16 in
  (* (instruction cell of the store, consumed?, original code index) *)
  let barrier_locals () =
    Hashtbl.reset known;
    Hashtbl.reset last_store
  in
  let barrier_stack () = stack := [] in
  let note_store slot v cell idx =
    (* previous store to this slot never observed? rewrite it to a Pop:
       the pushed operand still leaves the stack, the dead local write
       disappears *)
    (match Hashtbl.find_opt last_store slot with
    | Some (prev_cell, consumed, _) when not !consumed ->
        (match !prev_cell with
        | Instr.Istore _ | Instr.Fstore _ | Instr.Astore _ ->
            prev_cell := Instr.Pop;
            incr dead_stores
        | _ -> ())
    | Some _ | None -> ());
    Hashtbl.replace known slot v;
    Hashtbl.replace last_store slot (cell, ref false, idx)
  in
  let consume_local slot =
    match Hashtbl.find_opt last_store slot with
    | Some (_, consumed, _) -> consumed := true
    | None -> ()
  in
  let emit_push_const ins v =
    ignore (emit ins);
    push v
  in
  (* Fold a binary operation when both operands are known constants AND
     the operand-producing instructions are the two directly preceding
     emissions (the common shape after forwarding): drop them and emit the
     folded constant.  Otherwise emit as-is. *)
  let try_fold_int ins f =
    let b = pop () in
    let a = pop () in
    match (a, b, !out) with
    | Const_int x, Const_int y, (i2, _) :: (i1, _) :: rest
      when (match (!i1, !i2) with
           | Instr.Iconst _, Instr.Iconst _ -> true
           | _ -> false) -> (
        match f x y with
        | Some r ->
            out := rest;
            out := (ref (Instr.Iconst r), ref true) :: !out;
            folded := !folded + 2;
            push (Const_int r)
        | None ->
            ignore (emit ins);
            push (fresh ()))
    | Const_int x, Const_int y, _ -> (
        match f x y with
        | Some _ ->
            (* constants known but producers not adjacent: keep code *)
            ignore (emit ins);
            push (fresh ())
        | None ->
            ignore (emit ins);
            push (fresh ()))
    | _ ->
        ignore (emit ins);
        push (fresh ())
  in
  let try_fold_float ins f =
    let b = pop () in
    let a = pop () in
    match (a, b, !out) with
    | Const_float x, Const_float y, (c2, _) :: (c1, _) :: rest
      when (match (!c1, !c2) with
           | Instr.Fconst _, Instr.Fconst _ -> true
           | _ -> false) ->
        let r = f x y in
        out := rest;
        out := (ref (Instr.Fconst r), ref true) :: !out;
        folded := !folded + 2;
        push (Const_float r)
    | _ ->
        ignore (emit ins);
        push (fresh ())
  in
  for idx = 0 to n - 1 do
    let ins = code.(idx) in
    match ins with
    | Instr.Iconst v -> emit_push_const ins (Const_int v)
    | Instr.Fconst v -> emit_push_const ins (Const_float v)
    | Instr.Aconst_null ->
        ignore (emit ins);
        push (fresh ())
    | Instr.Iload slot | Instr.Fload slot | Instr.Aload slot -> (
        consume_local slot;
        match Hashtbl.find_opt known slot with
        | Some (Const_int v) ->
            (* forward the constant instead of reloading *)
            incr forwarded;
            emit_push_const (Instr.Iconst v) (Const_int v)
        | Some (Const_float v) ->
            incr forwarded;
            emit_push_const (Instr.Fconst v) (Const_float v)
        | Some (Opaque _ as v) ->
            ignore (emit ins);
            push v
        | None ->
            ignore (emit ins);
            push (fresh ()))
    | Instr.Istore slot | Instr.Fstore slot | Instr.Astore slot ->
        let v = pop () in
        let cell = emit ins in
        note_store slot v cell idx
    | Instr.Iinc (slot, d) ->
        (match Hashtbl.find_opt known slot with
        | Some (Const_int v) -> Hashtbl.replace known slot (Const_int (v + d))
        | Some _ | None -> Hashtbl.replace known slot (fresh ()));
        consume_local slot;
        (* an iinc both reads and writes; treat as consuming the previous
           store and being a new, consumed store *)
        ignore (emit ins)
    | Instr.Dup -> (
        match !stack with
        | v :: _ ->
            ignore (emit ins);
            push v
        | [] ->
            ignore (emit ins);
            push (fresh ()))
    | Instr.Pop -> (
        (* push/pop cancellation: if the directly preceding emission is a
           pure push, drop both *)
        match !out with
        | (cell, _) :: rest
          when (match !cell with
               | Instr.Iconst _ | Instr.Fconst _ | Instr.Aconst_null
               | Instr.Dup ->
                   true
               | _ -> false) ->
            out := rest;
            ignore (pop ());
            folded := !folded + 1
        | _ ->
            ignore (pop ());
            ignore (emit ins))
    | Instr.Swap ->
        let a = pop () in
        let b = pop () in
        push a;
        push b;
        ignore (emit ins)
    | Instr.Iadd ->
        try_fold_int ins (fun a b ->
            match (a, b) with x, y -> Some (x + y))
    | Instr.Isub -> try_fold_int ins (fun a b -> Some (a - b))
    | Instr.Imul -> try_fold_int ins (fun a b -> Some (a * b))
    | Instr.Idiv ->
        try_fold_int ins (fun a b -> if b = 0 then None else Some (a / b))
    | Instr.Irem ->
        try_fold_int ins (fun a b -> if b = 0 then None else Some (a mod b))
    | Instr.Iand -> try_fold_int ins (fun a b -> Some (a land b))
    | Instr.Ior -> try_fold_int ins (fun a b -> Some (a lor b))
    | Instr.Ixor -> try_fold_int ins (fun a b -> Some (a lxor b))
    | Instr.Ishl -> try_fold_int ins (fun a b -> Some (a lsl (b land 63)))
    | Instr.Ishr -> try_fold_int ins (fun a b -> Some (a asr (b land 63)))
    | Instr.Iushr -> try_fold_int ins (fun a b -> Some (a lsr (b land 63)))
    | Instr.Ineg -> (
        let a = pop () in
        match (a, !out) with
        | Const_int x, (c1, _) :: rest
          when (match !c1 with Instr.Iconst _ -> true | _ -> false) ->
            out := rest;
            out := (ref (Instr.Iconst (-x)), ref true) :: !out;
            incr folded;
            push (Const_int (-x))
        | _ ->
            ignore (emit ins);
            push (fresh ()))
    | Instr.Fadd -> try_fold_float ins ( +. )
    | Instr.Fsub -> try_fold_float ins ( -. )
    | Instr.Fmul -> try_fold_float ins ( *. )
    | Instr.Fdiv -> try_fold_float ins ( /. )
    | Instr.Fneg ->
        ignore (pop ());
        ignore (emit ins);
        push (fresh ())
    | Instr.F2i | Instr.I2f | Instr.Fcmp | Instr.Arraylength
    | Instr.Instanceof _ ->
        (* unary-ish operators we do not fold *)
        (match ins with
        | Instr.Fcmp ->
            ignore (pop ());
            ignore (pop ())
        | _ -> ignore (pop ()));
        ignore (emit ins);
        push (fresh ())
    | Instr.If_icmp _ ->
        ignore (pop ());
        ignore (pop ());
        ignore (emit ins)
    | Instr.Ifz _ | Instr.Tableswitch _ ->
        ignore (pop ());
        ignore (emit ins)
    | Instr.Goto _ ->
        (* within a trace the fallthrough is linearized; the goto is pure
           dispatch glue and disappears *)
        incr folded
    | Instr.Invokestatic _ | Instr.Invokevirtual _ ->
        (* call barrier: unknown stack effect, clobbers heap knowledge *)
        barrier_stack ();
        barrier_locals ();
        ignore (emit ins)
    | Instr.Return | Instr.Ireturn | Instr.Freturn | Instr.Areturn
    | Instr.Athrow ->
        barrier_stack ();
        barrier_locals ();
        ignore (emit ins)
    | Instr.New _ ->
        ignore (emit ins);
        push (fresh ())
    | Instr.Newarray _ ->
        ignore (pop ());
        ignore (emit ins);
        push (fresh ())
    | Instr.Getfield _ ->
        ignore (pop ());
        ignore (emit ins);
        push (fresh ())
    | Instr.Putfield _ ->
        ignore (pop ());
        ignore (pop ());
        ignore (emit ins)
    | Instr.Iaload | Instr.Faload | Instr.Aaload ->
        ignore (pop ());
        ignore (pop ());
        ignore (emit ins);
        push (fresh ())
    | Instr.Iastore | Instr.Fastore | Instr.Aastore ->
        ignore (pop ());
        ignore (pop ());
        ignore (pop ());
        ignore (emit ins)
    | Instr.Nop -> incr folded (* dropped *)
  done;
  (* Trailing stores: a store never loaded again within the trace survives
     the loop with its consumed flag still false.  Without outside
     knowledge the slot may be read after the trace completes, so those
     stores stay.  A caller holding a liveness result (the method CFG's
     live-out at the trace's final block) can prove a slot dead there and
     license the same store->Pop rewrite.  Barriers reset [last_store], so
     every surviving entry postdates the last call/return — it belongs to
     the final block's method and the liveness answer applies to it.

     The final block's live-out only covers the normal exit.  A store
     whose suffix runs through a handler-covered region can still be
     observed on the exceptional edge: a later trapping instruction in a
     covered block hands the frame — store included — to a same-frame
     handler that the final block's liveness never sees.  [covered_from]
     answers whether any code index at or after the store lies in a
     covered block; such stores are never rewritten. *)
  let trailing_dead_stores = ref 0 in
  Hashtbl.iter
    (fun slot (cell, consumed, sidx) ->
      if (not !consumed) && (not (live_out slot)) && not (covered_from sidx)
      then
        match !cell with
        | Instr.Istore _ | Instr.Fstore _ | Instr.Astore _ ->
            cell := Instr.Pop;
            incr trailing_dead_stores
        | _ -> ())
    last_store;
  (* !out is in reverse emission order; filter then rev_map restores
     program order *)
  let optimized =
    !out
    |> List.filter (fun (_, kept) -> !kept)
    |> List.rev_map (fun (cell, _) -> !cell)
    |> Array.of_list
  in
  { original = code; optimized; folded = !folded; forwarded = !forwarded;
    dead_stores = !dead_stores; trailing_dead_stores = !trailing_dead_stores }

(* Liveness at the seam where a completed trace hands control back to the
   interpreter: the live-out set of the trace's final block in its
   method's CFG.  Exceptional edges are part of the liveness graph, so a
   slot read only by a reachable handler still counts as live. *)
let live_out_of (layout : Layout.t) (tr : Trace.t) : int -> bool =
  let g = Trace.last_block tr in
  let mid = (Layout.method_of_gid layout g).Bytecode.Mthd.id in
  let live = Analysis.Facts.liveness layout ~method_id:mid in
  let set = live.Analysis.Liveness.live_out.(g - layout.Layout.offsets.(mid)) in
  fun slot -> Analysis.Liveness.Slot_set.mem slot set

(* Exceptional observability of the trace's code positions: for each
   index into [trace_code], whether that index or any later one lies in a
   handler-covered block.  A trailing store at such an index may be read
   by a same-frame handler if a later covered instruction traps, so the
   normal-path liveness license does not apply. *)
let covered_suffix_of (layout : Layout.t) (tr : Trace.t) : int -> bool =
  let covered_of g =
    let mid = (Layout.method_of_gid layout g).Bytecode.Mthd.id in
    (Analysis.Facts.liveness layout ~method_id:mid).Analysis.Liveness.covered.(
      g - layout.Layout.offsets.(mid))
  in
  let flags =
    Array.concat
      (Array.to_list
         (Array.map
            (fun g -> Array.make (Layout.block_len layout g) (covered_of g))
            tr.Trace.blocks))
  in
  for i = Array.length flags - 2 downto 0 do
    flags.(i) <- flags.(i) || flags.(i + 1)
  done;
  fun idx -> idx >= 0 && idx < Array.length flags && flags.(idx)

let optimize ?live_out ?covered_from (layout : Layout.t) (tr : Trace.t) :
    result =
  let live_out =
    match live_out with Some f -> f | None -> live_out_of layout tr
  in
  let covered_from =
    match covered_from with Some f -> f | None -> covered_suffix_of layout tr
  in
  optimize_code ~live_out ~covered_from (trace_code layout tr)

let saved (r : result) = Array.length r.original - Array.length r.optimized

let savings_ratio (r : result) =
  let n = Array.length r.original in
  if n = 0 then 0.0 else float_of_int (saved r) /. float_of_int n
