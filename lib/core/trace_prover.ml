module Layout = Cfg.Layout
module Block = Cfg.Block
module Instr = Bytecode.Instr
module Sx = Analysis.Symexec
module Cp = Analysis.Constprop
module Diag = Analysis.Diag

(* The proof layer over installed traces, used twice:

   1. Translation validation ([validate]): symbolically evaluate the
      trace's original block sequence and its optimized body and require
      observational equivalence (Analysis.Equiv) modulo guards, with the
      trailing dead-store license derived here — a slot may be dropped
      only if it is dead at the trace's normal exit AND no suffix of the
      code runs through a handler-covered block (the exceptional edge
      would observe it).

   2. Guard-implication pruning ([prune] / [check_pruned]): a forward
      walk over the trace accumulates a fact environment — constant/
      interval facts from Analysis.Constprop seeded at every block entry,
      interval refinements from each guard's known outcome, and the
      symbolic state itself — and marks a guard position as implied when
      the previous block's terminator provably transfers control to the
      expected next block and the block body provably cannot trap.  The
      verdicts are analysis output — the engine never prunes and the
      dispatch loop never reads them; [check_pruned] re-derives the
      proofs and reports TL217 for any claimed pruning that no longer
      follows. *)

(* Structural soundness: what trace_code needs to not crash.  Corrupted
   traces (fault injection) are reported by Invariants as TL210/TL211;
   the prover just declines to reason about them. *)
let structurally_sound (layout : Layout.t) (tr : Trace.t) =
  let n = layout.Layout.n_blocks in
  Array.length tr.Trace.instr_len = Array.length tr.Trace.blocks
  && (tr.Trace.pruned = [||]
     || Array.length tr.Trace.pruned = Array.length tr.Trace.blocks)
  && Array.for_all (fun g -> g >= 0 && g < n) tr.Trace.blocks
  && Array.for_all2
       (fun g len -> Layout.block_len layout g = len)
       tr.Trace.blocks tr.Trace.instr_len

(* The dead-store license for Equiv: slot droppable iff dead at the
   final block's normal exit and its last store's suffix never enters a
   handler-covered block. *)
let dead_out_of (layout : Layout.t) (tr : Trace.t) : int -> bool =
  let live = Trace_optimizer.live_out_of layout tr in
  let covered_from = Trace_optimizer.covered_suffix_of layout tr in
  let code = Trace_optimizer.trace_code layout tr in
  let last_store : (int, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri
    (fun idx ins ->
      match ins with
      | Instr.Istore s | Instr.Fstore s | Instr.Astore s ->
          Hashtbl.replace last_store s idx
      | _ -> ())
    code;
  fun slot ->
    (not (live slot))
    &&
    match Hashtbl.find_opt last_store slot with
    | Some idx -> not (covered_from idx)
    | None -> true

(* ------------------------------------------------------------------ *)
(* Guard-implication pruning                                          *)
(* ------------------------------------------------------------------ *)

(* Derive the pruned-guard verdicts for a trace.  Position 0 is matched
   by the cache lookup itself (the entering transition), so only
   positions 1 .. n-1 — the follow-time guards — are candidates.

   Soundness notes.  The dispatch loop consults the guard at position i
   only after positions < i matched, so facts accumulated from earlier
   transitions are valid premises.  A transition out of block B is
   "forced" when B's body provably cannot trap (no undischarged trap
   conditions) and B's terminator provably targets the expected block:
   unconditionally (goto/fallthrough), by decided comparison (constant/
   interval facts), by static call target, or by a return whose matching
   call was seen earlier in the trace (the continuation ret-stack).
   Virtual calls, throws, undecided conditionals and returns entering
   the trace mid-callee are never forced. *)
let derive_pruned (layout : Layout.t) (tr : Trace.t) : bool array =
  let n = Array.length tr.Trace.blocks in
  let pruned = Array.make n false in
  if n < 2 then pruned
  else begin
    (* Fact tables are keyed by symbolic term.  A term's denotation is
       immutable (Slocal (e, s) is "the value at epoch e's start"), so a
       recorded fact never goes stale. *)
    let intervals : (Sx.sym, int * int) Hashtbl.t = Hashtbl.create 16 in
    let nonnull : (Sx.sym, unit) Hashtbl.t = Hashtbl.create 16 in
    let retstack : Layout.gid list ref = ref [] in
    let st = ref Sx.initial in
    let bounds_of v =
      match v with
      | Sx.Sint k -> Some (k, k)
      | _ -> Hashtbl.find_opt intervals v
    in
    let set_bounds v (lo, hi) =
      match v with
      | Sx.Sint _ -> ()
      | _ ->
          let lo, hi =
            match Hashtbl.find_opt intervals v with
            | Some (lo0, hi0) -> (Int.max lo lo0, Int.min hi hi0)
            | None -> (lo, hi)
          in
          if lo <= hi then Hashtbl.replace intervals v (lo, hi)
    in
    (* Merge the constprop entry facts of [g] for locals the symbolic
       state does not already track: an untracked local still holds its
       epoch-start value, so block-entry facts apply to Slocal terms. *)
    let seed_block_facts g =
      let mid = (Layout.method_of_gid layout g).Bytecode.Mthd.id in
      let bi = g - layout.Layout.offsets.(mid) in
      let cp = Analysis.Facts.constprop layout ~method_id:mid in
      match cp.Cp.entry.(bi) with
      | Cp.Unreached -> ()
      | Cp.Reached { locals; _ } ->
          Array.iteri
            (fun slot av ->
              if not (Sx.tracks_local !st ~slot) then begin
                let e = !st.Sx.epoch in
                match av with
                | Cp.Int { lo; hi } when lo = hi ->
                    st := Sx.assume_local !st ~slot (Sx.Sint lo)
                | Cp.Int { lo; hi } ->
                    set_bounds (Sx.Slocal (e, slot)) (lo, hi)
                | Cp.Float_const f ->
                    st := Sx.assume_local !st ~slot (Sx.Sfloat f)
                | Cp.Null -> st := Sx.assume_local !st ~slot Sx.Snull
                | Cp.Nonnull ->
                    Hashtbl.replace nonnull (Sx.Slocal (e, slot)) ()
                | Cp.Top -> ()
              end)
            locals
    in
    let discharged (t : Sx.trap) =
      match (t.Sx.trap_kind, t.Sx.trap_args) with
      | "div_zero", [ d ] -> (
          match bounds_of d with
          | Some (lo, hi) -> lo > 0 || hi < 0
          | None -> false)
      | "negsize", [ s ] -> (
          match bounds_of s with Some (lo, _) -> lo >= 0 | None -> false)
      | "null", [ o ] -> Hashtbl.mem nonnull o
      | _ -> false
    in
    (* Decide a condition between interval-bounded operands; the cond is
       applied as in the interpreter: [a cond b]. *)
    let decide_cmp (c : Instr.cond) (alo, ahi) (blo, bhi) =
      match c with
      | Instr.Eq ->
          if alo = ahi && blo = bhi && alo = blo then Some true
          else if ahi < blo || alo > bhi then Some false
          else None
      | Instr.Ne ->
          if ahi < blo || alo > bhi then Some true
          else if alo = ahi && blo = bhi && alo = blo then Some false
          else None
      | Instr.Lt ->
          if ahi < blo then Some true
          else if alo >= bhi then Some false
          else None
      | Instr.Ge ->
          if alo >= bhi then Some true
          else if ahi < blo then Some false
          else None
      | Instr.Gt ->
          if alo > bhi then Some true
          else if ahi <= blo then Some false
          else None
      | Instr.Le ->
          if ahi <= blo then Some true
          else if alo > bhi then Some false
          else None
    in
    let decide c a b =
      match (bounds_of a, bounds_of b) with
      | Some ba, Some bb -> decide_cmp c ba bb
      | _ -> None
    in
    (* Refine the interval of [v] knowing [v cond k] holds. *)
    let refine_vs_const v (c : Instr.cond) k =
      match c with
      | Instr.Eq -> set_bounds v (k, k)
      | Instr.Lt -> set_bounds v (min_int, k - 1)
      | Instr.Ge -> set_bounds v (k, max_int)
      | Instr.Gt -> set_bounds v (k + 1, max_int)
      | Instr.Le -> set_bounds v (min_int, k)
      | Instr.Ne -> (
          (* only endpoint trims are expressible as intervals *)
          match bounds_of v with
          | Some (lo, hi) when lo = k -> set_bounds v (lo + 1, hi)
          | Some (lo, hi) when hi = k -> set_bounds v (lo, hi - 1)
          | _ -> ())
    in
    let flip = function
      | Instr.Lt -> Instr.Gt
      | Instr.Gt -> Instr.Lt
      | Instr.Ge -> Instr.Le
      | Instr.Le -> Instr.Ge
      | (Instr.Eq | Instr.Ne) as c -> c
    in
    (* Knowing [a cond b] held, mine interval refinements. *)
    let refine_icmp (c : Instr.cond) a b =
      (match b with Sx.Sint k -> refine_vs_const a c k | _ -> ());
      match a with Sx.Sint k -> refine_vs_const b (flip c) k | _ -> ()
    in
    let broken = ref false in
    for i = 1 to n - 1 do
      if not !broken then begin
        let prev_g = tr.Trace.blocks.(i - 1) in
        let cur_g = tr.Trace.blocks.(i) in
        seed_block_facts prev_g;
        let b = Layout.block layout prev_g in
        let m = Layout.method_of_gid layout prev_g in
        let code = m.Bytecode.Mthd.code in
        let mid = m.Bytecode.Mthd.id in
        let gid_at pc = Layout.gid_at_pc layout ~method_id:mid ~pc in
        let traps_before = List.length !st.Sx.traps in
        let exec_range lo hi =
          for pc = lo to hi - 1 do
            st := Sx.exec !st code.(pc)
          done
        in
        (* undischarged trap conditions recorded by this block's body? *)
        let body_clean () =
          let rec fresh k traps =
            if k = 0 then []
            else
              match traps with
              | t :: tl -> t :: fresh (k - 1) tl
              | [] -> []
          in
          let added = List.length !st.Sx.traps - traps_before in
          List.for_all discharged (fresh added !st.Sx.traps)
        in
        let body_end = Block.end_pc b in
        let forced =
          match b.Block.term with
          | Block.T_goto t | Block.T_fallthrough t ->
              exec_range b.Block.start_pc body_end;
              gid_at t = cur_g && body_clean ()
          | Block.T_throw ->
              exec_range b.Block.start_pc body_end;
              false
          | Block.T_return ->
              exec_range b.Block.start_pc body_end;
              (match !retstack with
              | r :: rest ->
                  retstack := rest;
                  r = cur_g && body_clean ()
              | [] -> false)
          | Block.T_call { next_pc; virtual_ } ->
              exec_range b.Block.start_pc body_end;
              retstack := gid_at next_pc :: !retstack;
              if virtual_ then false
              else begin
                match code.(Block.last_pc b) with
                | Instr.Invokestatic callee ->
                    Layout.gid_at_pc layout ~method_id:callee ~pc:0 = cur_g
                    && body_clean ()
                | _ -> false
              end
          | Block.T_switch { low; targets; default } ->
              exec_range b.Block.start_pc (body_end - 1);
              let v, _ = Sx.pop !st in
              let decided =
                match bounds_of v with
                | Some (lo, hi) when lo = hi ->
                    let t =
                      if lo >= low && lo < low + Array.length targets then
                        targets.(lo - low)
                      else default
                    in
                    Some (gid_at t)
                | _ -> None
              in
              st := Sx.exec !st code.(body_end - 1);
              (match decided with
              | Some g -> g = cur_g && body_clean ()
              | None -> false)
          | Block.T_cond (c, tpc, fpc) ->
              exec_range b.Block.start_pc (body_end - 1);
              let ins = code.(body_end - 1) in
              let operands =
                match ins with
                | Instr.If_icmp (_, _) ->
                    let b2, st' = Sx.pop !st in
                    let a, _ = Sx.pop st' in
                    Some (a, Some b2)
                | Instr.Ifz (_, _) ->
                    let a, _ = Sx.pop !st in
                    Some (a, None)
                | _ -> None
              in
              let decided =
                match operands with
                | Some (a, Some b2) -> decide c a b2
                | Some (a, None) -> decide c a (Sx.Sint 0)
                | None -> None
              in
              st := Sx.exec !st ins;
              let taken_g = gid_at tpc and fall_g = gid_at fpc in
              if taken_g = fall_g then
                if cur_g = taken_g then body_clean ()
                else begin
                  broken := true;
                  false
                end
              else begin
                let went_taken =
                  if cur_g = taken_g then Some true
                  else if cur_g = fall_g then Some false
                  else None
                in
                match went_taken with
                | None ->
                    (* the recorded transition matches neither successor:
                       the body is not the one this walk assumed *)
                    broken := true;
                    false
                | Some way ->
                    (* the trace asserts this outcome; mine it, whether
                       or not the guard itself gets pruned *)
                    let holds = if way then c else Instr.negate_cond c in
                    (match operands with
                    | Some (a, Some b2) -> refine_icmp holds a b2
                    | Some (a, None) -> refine_vs_const a holds 0
                    | None -> ());
                    (match decided with
                    | Some d -> d = way && body_clean ()
                    | None -> false)
              end
        in
        pruned.(i) <- forced
      end
    done;
    if !broken then Array.map (fun _ -> false) pruned else pruned
  end

let prune (layout : Layout.t) (tr : Trace.t) : int =
  if not (structurally_sound layout tr) then 0
  else begin
    let p = derive_pruned layout tr in
    if Array.exists (fun x -> x) p then begin
      tr.Trace.pruned <- p;
      Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 p
    end
    else 0
  end

let check_pruned ?context (layout : Layout.t) (tr : Trace.t) : Diag.t list =
  if tr.Trace.pruned = [||] || not (structurally_sound layout tr) then []
  else begin
    let fresh = derive_pruned layout tr in
    let diags = ref [] in
    Array.iteri
      (fun i claimed ->
        if claimed && not (i < Array.length fresh && fresh.(i)) then
          diags :=
            Diag.make ?context ~code:"TL217" ~severity:Diag.Error
              ~loc:(Diag.Trace_loc { trace_id = tr.Trace.id })
              (Printf.sprintf
                 "pruned guard at position %d (block %d) is not \
                  re-derivable: the implication proof no longer holds"
                 i tr.Trace.blocks.(i))
            :: !diags)
      tr.Trace.pruned;
    !diags
  end

(* ------------------------------------------------------------------ *)
(* Translation validation                                             *)
(* ------------------------------------------------------------------ *)

let validate ?context (layout : Layout.t) (tr : Trace.t) : Diag.t list =
  if not (structurally_sound layout tr) then
    (* leave the structural story to Invariants' TL210/TL211 *)
    [
      Diag.make ?context ~code:"TL218" ~severity:Diag.Warning
        ~loc:(Diag.Trace_loc { trace_id = tr.Trace.id })
        "trace body is structurally unsound; translation validation skipped";
    ]
  else begin
    let r = Trace_optimizer.optimize layout tr in
    let dead_out = dead_out_of layout tr in
    Analysis.Equiv.check ?context ~dead_out ~trace_id:tr.Trace.id
      ~original:r.Trace_optimizer.original ~optimized:r.Trace_optimizer.optimized
      ()
    @ check_pruned ?context layout tr
    @ Tier.check_lowered ?context layout tr
  end

let check_cache ?context (layout : Layout.t) (cache : Trace_cache.t) :
    Diag.t list =
  let acc = ref [] in
  Trace_cache.iter_all cache (fun tr ->
      acc := validate ?context layout tr @ !acc);
  List.rev !acc
