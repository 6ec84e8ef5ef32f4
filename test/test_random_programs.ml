(* The big hammer: draw random structured programs — loops, branches,
   calls, arrays, switches, try/catch (Random_program) — and check
   system-level properties on every one of them:

   - the front end's output verifies;
   - the engine is transparent (same result and instruction count as the
     plain interpreter);
   - statistics stay within their bounds;
   - NET and rePLay overlays never disturb execution either. *)

module Interp = Vm.Interp
module Stats = Tracegen.Stats
module Sx = Analysis.Symexec

let run_outcomes layout =
  let plain = Interp.run ~max_instructions:2_000_000 layout ~on_block:(fun _ -> ()) in
  let traced = Tracegen.Engine.run ~max_instructions:2_000_000 layout in
  (plain, traced)

let prop_verifies =
  QCheck.Test.make ~name:"random programs verify" ~count:60
    Random_program.arb_program
    (fun program ->
      Bytecode.Verify.verify_program program;
      true)

let same_outcome (a : Interp.outcome) (b : Interp.outcome) =
  match (a, b) with
  | Interp.Finished x, Interp.Finished y -> x = y
  | Interp.Trapped (k1, _), Interp.Trapped (k2, _) -> k1 = k2
  | (Interp.Finished _ | Interp.Trapped _), _ -> false

let prop_engine_transparent =
  QCheck.Test.make ~name:"engine is transparent on random programs" ~count:60
    Random_program.arb_program (fun program ->
      let layout = Cfg.Layout.build program in
      let plain, traced = run_outcomes layout in
      same_outcome plain.Interp.outcome
        traced.Tracegen.Engine.vm_result.Interp.outcome
      && plain.Interp.instructions
         = traced.Tracegen.Engine.vm_result.Interp.instructions)

let prop_stats_bounded =
  QCheck.Test.make ~name:"stats stay in bounds on random programs" ~count:40
    Random_program.arb_program (fun program ->
      let layout = Cfg.Layout.build program in
      let _, traced = run_outcomes layout in
      let s = traced.Tracegen.Engine.run_stats in
      Stats.coverage_total s >= 0.0
      && Stats.coverage_total s <= 1.0
      && Stats.coverage_completed s <= Stats.coverage_total s +. 1e-9
      && s.Stats.traces_completed <= s.Stats.traces_entered
      && s.Stats.chained_entries <= s.Stats.traces_entered)

(* Liveness cross-validation: rewrite the program so that every block
   first stores a sentinel into each local the analysis claims dead at
   its entry.  If the claim is sound, execution cannot observe the
   difference: the same outcome and the same block dispatches as the
   unmodified program. *)
let prop_liveness_cross_validated =
  QCheck.Test.make ~name:"liveness claims survive execution scrambling"
    ~count:40 Random_program.arb_program (fun program ->
      let layout = Cfg.Layout.build program in
      let plain = Interp.run_plain ~max_instructions:2_000_000 layout in
      let live = Array.map Analysis.Liveness.compute layout.Cfg.Layout.cfgs in
      let dead ~method_id ~block_index =
        let lv = live.(method_id) in
        List.init program.Bytecode.Program.methods.(method_id).n_locals Fun.id
        |> List.filter (fun slot ->
               not
                 (Analysis.Liveness.Slot_set.mem slot
                    lv.Analysis.Liveness.live_in.(block_index)))
        |> Prologue.stores 987654321
      in
      let scrambled =
        Interp.run_plain ~max_instructions:2_000_000
          (Cfg.Layout.build (Prologue.at_leaders layout dead))
      in
      same_outcome plain.Interp.outcome scrambled.Interp.outcome
      && plain.Interp.block_dispatches = scrambled.Interp.block_dispatches)

(* Run [layout] to the end, handing [observe] each dispatched block and
   the frame's locals as the block starts, read with [Interp.materialize]
   from inside [on_block]. *)
let run_observing_locals layout observe =
  let h = ref None in
  let on_block gid =
    match (Interp.materialize (Option.get !h)).Interp.m_frames with
    | fr :: _ -> observe gid fr.Interp.fs_locals
    | [] -> ()
  in
  h := Some (Interp.start ~max_instructions:2_000_000 layout ~on_block);
  Interp.finish (Option.get !h)

(* Constprop cross-validation: every abstract claim at a block's entry
   must bound the value actually observed there — a singleton matches
   exactly, an interval contains the observed int, and a block the
   analysis calls unreachable is never dispatched. *)
let prop_constprop_cross_validated =
  QCheck.Test.make ~name:"constprop claims match observed locals" ~count:40
    Random_program.arb_program (fun program ->
      let layout = Cfg.Layout.build program in
      let cps =
        Array.map (Analysis.Constprop.compute program) layout.Cfg.Layout.cfgs
      in
      let failure = ref None in
      let observe gid (locals : Vm.Value.t array) =
        let mid = (Cfg.Layout.method_of_gid layout gid).Bytecode.Mthd.id in
        let bi = gid - layout.Cfg.Layout.offsets.(mid) in
        match cps.(mid).Analysis.Constprop.entry.(bi) with
        | Analysis.Constprop.Unreached ->
            failure := Some (Printf.sprintf "dispatched unreached block %d" gid)
        | Analysis.Constprop.Reached { locals = claims; _ } ->
            Array.iteri
              (fun slot claim ->
                if slot < Array.length locals then
                  match (claim, locals.(slot)) with
                  | Analysis.Constprop.Int { lo; hi }, Vm.Value.Vint v ->
                      if v < lo || v > hi then
                        failure :=
                          Some
                            (Printf.sprintf
                               "slot %d: claimed [%d,%d], observed %d" slot lo
                               hi v)
                  | Analysis.Constprop.Int { lo; hi }, other ->
                      failure :=
                        Some
                          (Printf.sprintf "slot %d: claimed [%d,%d], observed %s"
                             slot lo hi (Vm.Value.to_string other))
                  | Analysis.Constprop.Float_const c, Vm.Value.Vfloat f ->
                      if c <> f then
                        failure :=
                          Some
                            (Printf.sprintf "slot %d: claimed %f, observed %f"
                               slot c f)
                  | Analysis.Constprop.Null, v
                    when v <> Vm.Value.Vnull ->
                      failure := Some (Printf.sprintf "slot %d: claimed null" slot)
                  | _ -> ())
              claims
      in
      ignore (run_observing_locals layout observe);
      match !failure with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* Symexec cross-validation: symbolically evaluate every dispatched
   block's body; wherever the resulting state makes a fully concrete
   claim — epoch 0, no heap effects, no recorded trap conditions — its
   final writes (and its frame of untouched slots) must match the
   locals the interpreter actually presents at the next dispatch.  The
   trap direction is checked too: a run trapping on a modeled condition
   must end in a block whose state recorded such a condition. *)
let sym_of_value = function
  | Vm.Value.Vint v -> Some (Sx.Sint v)
  | Vm.Value.Vfloat f -> Some (Sx.Sfloat f)
  | Vm.Value.Vnull -> Some Sx.Snull
  | Vm.Value.Vobj _ | Vm.Value.Varr _ -> None

let value_matches_sym sym value =
  match sym with
  | Sx.Sint c -> value = Vm.Value.Vint c
  | Sx.Sfloat c -> (
      match value with Vm.Value.Vfloat f -> c = f | _ -> false)
  | Sx.Snull -> value = Vm.Value.Vnull
  | _ -> true (* non-literal residue makes no claim *)

let prop_symexec_cross_validated =
  QCheck.Test.make ~name:"symexec agrees with the interpreter block-by-block"
    ~count:40 Random_program.arb_program (fun program ->
      let layout = Cfg.Layout.build program in
      let failure = ref None in
      let fail fmt =
        Printf.ksprintf
          (fun m -> if !failure = None then failure := Some m)
          fmt
      in
      let last_traps = ref [] in
      let prev = ref None in
      let observe gid (locals : Vm.Value.t array) =
        (match !prev with
        | Some (pgid, (entry : Vm.Value.t array), st)
          when st.Sx.epoch = 0 && st.Sx.effects = [] && st.Sx.traps = [] ->
            (* the previous block stayed in its frame and completed, so
               its symbolic state fully determines these locals *)
            let writes = Sx.final_writes st in
            let lookup slot =
              if slot < Array.length entry then sym_of_value entry.(slot)
              else None
            in
            Array.iteri
              (fun slot value ->
                match Sx.Smap.find_opt (0, slot) writes with
                | Some sym -> (
                    match Sx.concretize ~local:lookup sym with
                    | Some lit when not (value_matches_sym lit value) ->
                        fail "block %d slot %d: symexec %s, interpreter %s"
                          pgid slot (Sx.sym_to_string lit)
                          (Vm.Value.to_string value)
                    | _ -> ())
                | None ->
                    if slot < Array.length entry then
                      match sym_of_value entry.(slot) with
                      | Some lit when not (value_matches_sym lit value) ->
                          fail
                            "block %d slot %d: untouched slot changed %s -> %s"
                            pgid slot
                            (Vm.Value.to_string entry.(slot))
                            (Vm.Value.to_string value)
                      | _ -> ())
              locals
        | _ -> ());
        let b = Cfg.Layout.block layout gid in
        let code = (Cfg.Layout.method_of_gid layout gid).Bytecode.Mthd.code in
        let st = Sx.run (Array.sub code b.Cfg.Block.start_pc b.Cfg.Block.len) in
        last_traps := Sx.traps st;
        prev := Some (gid, locals, st)
      in
      let r = run_observing_locals layout observe in
      (match r.Interp.outcome with
      | Interp.Trapped
          ( (Interp.Null_pointer | Interp.Array_bounds | Interp.Division_by_zero),
            _ )
        when !last_traps = [] ->
          fail "trapped on a modeled condition the last block never recorded"
      | _ -> ());
      match !failure with
      | None -> true
      | Some msg -> QCheck.Test.fail_report msg)

(* Chaos transparency: under ANY fault schedule — corrupted traces,
   flipped counters, failed installations, allocation pressure — the
   self-healing engine must still be a pure observational overlay: same
   outcome, same instruction count as fault-free pure interpretation. *)
let chaos_specs =
  [|
    Harness.Chaos.default_spec;
    (* hot: every dispatch is a coin flip, small budget *)
    "corrupt-trace@0.05,corrupt-instrs@0.05,zero-counter@0.03,budget=40";
    (* bursty one-shots early in the run *)
    "corrupt-trace!50,corrupt-trace!60,fail-install!70,alloc-pressure!80,\
     drop-best!90,saturate-counter!100";
  |]

let prop_chaos_transparent =
  QCheck.Test.make ~name:"faulted engine is transparent on random programs"
    ~count:45
    QCheck.(
      pair Random_program.arb_program
        (pair (int_bound 1_000_000) (int_bound 2)))
    (fun (program, (seed, spec_i)) ->
      let layout = Cfg.Layout.build program in
      let plain =
        Interp.run ~max_instructions:2_000_000 layout ~on_block:(fun _ -> ())
      in
      let config =
        Harness.Chaos.config ~spec:chaos_specs.(spec_i) ~seed ()
      in
      let chaotic =
        Tracegen.Engine.run ~config ~max_instructions:2_000_000 layout
      in
      same_outcome plain.Interp.outcome
        chaotic.Tracegen.Engine.vm_result.Interp.outcome
      && plain.Interp.instructions
         = chaotic.Tracegen.Engine.vm_result.Interp.instructions)

(* On-stack replacement under random guard-flip schedules: every deopt
   must resume at the failing block with no observable effect, and every
   materialized-state check (TL219) must agree. *)
let prop_osr_transparent =
  QCheck.Test.make
    ~name:"OSR deopt/promotion is transparent on random programs" ~count:40
    QCheck.(pair Random_program.arb_program (int_bound 1_000_000))
    (fun (program, seed) ->
      let layout = Cfg.Layout.build program in
      let plain =
        Interp.run ~max_instructions:2_000_000 layout ~on_block:(fun _ -> ())
      in
      let config =
        Tracegen.Config.make ~debug_checks:true ~self_heal:true
          ~fault_spec:"guard-flip@0.02,budget=64" ~fault_seed:seed ~osr:true
          ~osr_promote_after:32 ()
      in
      let r =
        Tracegen.Engine.run ~config ~max_instructions:2_000_000 layout
      in
      same_outcome plain.Interp.outcome
        r.Tracegen.Engine.vm_result.Interp.outcome
      && plain.Interp.instructions
         = r.Tracegen.Engine.vm_result.Interp.instructions
      && r.Tracegen.Engine.run_stats.Tracegen.Stats.osr_state_mismatches = 0)

(* The compiled micro-IR tier is a pure overlay: with a low promotion
   bar (so random programs actually reach the compiled tier) and OSR
   armed on top, outcome and instruction counts must match pure
   interpretation, and every lowered body must survive TL220
   re-derivation. *)
let prop_microir_transparent =
  QCheck.Test.make
    ~name:"compiled tier is transparent on random programs" ~count:40
    Random_program.arb_program (fun program ->
      let layout = Cfg.Layout.build program in
      let plain =
        Interp.run ~max_instructions:2_000_000 layout ~on_block:(fun _ -> ())
      in
      let config =
        Tracegen.Config.make ~debug_checks:true ~tier:true
          ~tier_compile_after:4 ~osr:true ~osr_promote_after:32 ()
      in
      let r =
        Tracegen.Engine.run ~config ~max_instructions:2_000_000 layout
      in
      let engine = r.Tracegen.Engine.engine in
      let tl220 = ref 0 in
      Tracegen.Trace_cache.iter (Tracegen.Engine.cache engine) (fun tr ->
          if Tracegen.Tier.check_lowered layout tr <> [] then incr tl220);
      same_outcome plain.Interp.outcome
        r.Tracegen.Engine.vm_result.Interp.outcome
      && plain.Interp.instructions
         = r.Tracegen.Engine.vm_result.Interp.instructions
      && !tl220 = 0)

let prop_baselines_transparent =
  QCheck.Test.make ~name:"baseline overlays do not disturb execution"
    ~count:30 Random_program.arb_program (fun program ->
      let layout = Cfg.Layout.build program in
      let plain = Interp.run ~max_instructions:2_000_000 layout ~on_block:(fun _ -> ()) in
      let net = Baselines.Net.create layout in
      let under_net =
        Interp.run ~max_instructions:2_000_000 layout
          ~on_block:(fun g -> Baselines.Net.on_block net g)
      in
      let rp = Baselines.Replay_frames.create layout in
      let under_rp =
        Interp.run ~max_instructions:2_000_000 layout
          ~on_block:(fun g -> Baselines.Replay_frames.on_block rp g)
      in
      same_outcome plain.Interp.outcome under_net.Interp.outcome
      && same_outcome plain.Interp.outcome under_rp.Interp.outcome)

let () =
  Alcotest.run "random_programs"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_verifies;
          QCheck_alcotest.to_alcotest prop_engine_transparent;
          QCheck_alcotest.to_alcotest prop_stats_bounded;
          QCheck_alcotest.to_alcotest prop_liveness_cross_validated;
          QCheck_alcotest.to_alcotest prop_constprop_cross_validated;
          QCheck_alcotest.to_alcotest prop_symexec_cross_validated;
          QCheck_alcotest.to_alcotest prop_chaos_transparent;
          QCheck_alcotest.to_alcotest prop_osr_transparent;
          QCheck_alcotest.to_alcotest prop_microir_transparent;
          QCheck_alcotest.to_alcotest prop_baselines_transparent;
        ] );
    ]
