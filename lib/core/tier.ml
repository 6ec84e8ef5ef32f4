module Layout = Cfg.Layout
module Block = Cfg.Block
module Cp = Analysis.Constprop
module Facts = Analysis.Facts
module Diag = Analysis.Diag

(* The compiled tier's policy and plumbing: lowering a trace's blocks to
   micro-IR with the analysis facts wired in ([lower_trace]), validating
   a lowered body by re-derivation (TL220, [check_lowered]), and the
   cost model that decides which traces hold the [Config.tier_compile_budget]
   compiled slots ([maybe_compile], [recompile_restored]).

   The heat signal is the cache's per-entry use count — the same number
   the attribution hot-report ranks traces by and footprint-aware
   eviction divides by.  It is also the one piece of tier-relevant state
   a warm-start snapshot persists (as [snap_heat]), which is what makes
   the tier re-derivable on restore: runtime promotion and restore-time
   recompilation key on the same counter, so a restored cache converges
   on the same compiled set without the snapshot ever storing a lowered
   body. *)

(* The trace's positions as (gid, instructions) pairs — the micro-IR
   converter's input (the textual concatenation [Trace_optimizer] also
   works from, kept per-position so guards land between blocks). *)
let trace_blocks_code (layout : Layout.t) (tr : Trace.t) :
    (Layout.gid * Bytecode.Instr.t array) array =
  Array.map
    (fun g ->
      let b = Layout.block layout g in
      let m = Layout.method_of_gid layout g in
      ( g,
        Array.init
          (Block.end_pc b - b.Block.start_pc)
          (fun i -> m.Bytecode.Mthd.code.(b.Block.start_pc + i)) ))
    tr.Trace.blocks

let lower_trace (layout : Layout.t) (tr : Trace.t) : Microir.body =
  let method_of g = (Layout.method_of_gid layout g).Bytecode.Mthd.id in
  (* Constprop block-entry facts, as lowering-time constants.  Sound at
     the start of each position; Microir stops consulting the oracle for
     slots written inside the position and after call barriers. *)
  let local_const ~pos ~slot =
    let g = tr.Trace.blocks.(pos) in
    let mid = method_of g in
    let bi = g - layout.Layout.offsets.(mid) in
    match (Facts.constprop layout ~method_id:mid).Cp.entry.(bi) with
    | Cp.Unreached -> None
    | Cp.Reached { locals; _ } ->
        if slot < 0 || slot >= Array.length locals then None
        else (
          match locals.(slot) with
          | Cp.Int { lo; hi } when lo = hi -> Some (Microir.Cint lo)
          | Cp.Float_const f -> Some (Microir.Cfloat f)
          | Cp.Null -> Some Microir.Cnull
          | _ -> None)
  in
  (* The trailing-store license, mirroring Trace_optimizer: a slot dead
     at the trace seam (final block's live-out) may drop its trailing
     store — unless the store's position or any later one lies in a
     handler-covered block, where an exceptional edge could observe it.
     Position granularity is coarser than Trace_optimizer's per-index
     suffix, hence conservative. *)
  let live_out = Trace_optimizer.live_out_of layout tr in
  let n = Array.length tr.Trace.blocks in
  let covered_suffix =
    let flags =
      Array.map
        (fun g ->
          let mid = method_of g in
          (Facts.liveness layout ~method_id:mid).Analysis.Liveness.covered.(
            g - layout.Layout.offsets.(mid)))
        tr.Trace.blocks
    in
    for i = n - 2 downto 0 do
      flags.(i) <- flags.(i) || flags.(i + 1)
    done;
    flags
  in
  let store_dead ~pos ~slot =
    (not (live_out slot)) && not covered_suffix.(pos)
  in
  Microir.lower ~local_const ~store_dead (trace_blocks_code layout tr)

(* ------------------------------------------------------------------ *)
(* TL220: lowering validation by re-derivation                         *)
(* ------------------------------------------------------------------ *)

let check_lowered ?context (layout : Layout.t) (tr : Trace.t) : Diag.t list =
  match tr.Trace.lowered with
  | None -> []
  | Some body ->
      let loc = Diag.Trace_loc { trace_id = tr.Trace.id } in
      let structural =
        List.map
          (fun msg ->
            Diag.make ?context ~code:"TL220" ~severity:Diag.Error ~loc
              (Printf.sprintf "lowered body structurally unsound: %s" msg))
          (Microir.check ~expect:tr.Trace.blocks body)
      in
      let fresh = lower_trace layout tr in
      let mismatch =
        if Microir.equal_body fresh body then []
        else
          [
            Diag.make ?context ~code:"TL220" ~severity:Diag.Error ~loc
              (Printf.sprintf
                 "lowering mismatch: re-lowering the source blocks \
                  produced a different op stream (%d ops vs %d cached)"
                 (Microir.n_ops fresh) (Microir.n_ops body));
          ]
      in
      structural @ mismatch

(* ------------------------------------------------------------------ *)
(* The cost model                                                      *)
(* ------------------------------------------------------------------ *)

let compile (layout : Layout.t) ~events (tr : Trace.t) ~heat =
  let body = lower_trace layout tr in
  tr.Trace.lowered <- Some body;
  if Events.enabled events then
    Events.emit events
      (Events.Trace_compiled
         {
           trace_id = tr.Trace.id;
           ops = Microir.n_ops body;
           fused = body.Microir.fused;
           src_instrs = body.Microir.src_instrs;
           heat;
         })

(* Promotion decision at trace entry.  Returns the (compiled, demoted)
   increments for the caller's counters — (0|1, 0|1).

   The candidate must have crossed [compile_after] uses (the hot-report
   dominance proxy).  When the [compile_budget] is full, the coldest
   compiled trace is demoted first — but only when it is strictly colder
   than the candidate (no thrash between equally hot traces) and not
   pinned (a dispatch loop may be following its micro-IR right now; the
   cache counts the refusal).  If the budget is still full after that,
   the candidate stays on the interpreted tier and may retry on a later
   entry. *)
let maybe_compile (config : Config.t) (layout : Layout.t)
    (cache : Trace_cache.t) ~events (tr : Trace.t) : int * int =
  if not (Config.tier_enabled config) then (0, 0)
  else if tr.Trace.lowered <> None then (0, 0)
  else
    let uses = Trace_cache.trace_uses cache tr in
    if uses < Config.tier_compile_after config then (0, 0)
    else begin
      let budget = Config.tier_compile_budget config in
      let demoted =
        if Trace_cache.n_compiled cache >= budget then
          match Trace_cache.coldest_compiled cache ~excluding:(Some tr) with
          | Some victim ->
              let vuses = Trace_cache.trace_uses cache victim in
              if vuses < uses && Trace_cache.demote_lowered cache victim
              then begin
                if Events.enabled events then
                  Events.emit events
                    (Events.Tier_demoted
                       {
                         trace_id = victim.Trace.id;
                         uses = vuses;
                         winner_heat = uses;
                       });
                1
              end
              else 0
          | None -> 0
        else 0
      in
      if Trace_cache.n_compiled cache >= budget then (0, demoted)
      else begin
        compile layout ~events tr ~heat:uses;
        (1, demoted)
      end
    end

(* Restore-time tier re-derivation.  Snapshots never persist lowered
   bodies; what they do persist is each entry's heat ([snap_heat]).
   Recompiling the hottest restored traces that cross [compile_after] —
   up to the budget, hottest first, trace id breaking ties for
   determinism — reconstructs the same compiled set a run would converge
   on, because runtime promotion keys on the same use counter. *)
let recompile_restored (config : Config.t) (layout : Layout.t)
    (cache : Trace_cache.t) ~events : int =
  if not (Config.tier_enabled config) then 0
  else begin
    let candidates = ref [] in
    Trace_cache.iter cache (fun tr ->
        if tr.Trace.lowered = None then begin
          let uses = Trace_cache.trace_uses cache tr in
          if uses >= Config.tier_compile_after config then
            candidates := (tr, uses) :: !candidates
        end);
    let sorted =
      List.sort
        (fun (a, ua) (b, ub) ->
          match compare ub ua with
          | 0 -> compare a.Trace.id b.Trace.id
          | c -> c)
        !candidates
    in
    let room = Config.tier_compile_budget config - Trace_cache.n_compiled cache in
    let n = ref 0 in
    List.iteri
      (fun i (tr, uses) ->
        if i < room then begin
          compile layout ~events tr ~heat:uses;
          incr n
        end)
      sorted;
    !n
  end
