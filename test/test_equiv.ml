(* Translation validation: the symbolic equivalence checker must accept
   every body the optimizer actually produces and reject each seeded
   miscompilation with its specific TL code — one test per broken
   promise, plus the TL217 re-derivation check owned by Trace_prover. *)

module Instr = Bytecode.Instr
module Diag = Analysis.Diag
module Equiv = Analysis.Equiv
module Sx = Analysis.Symexec

let tc = Alcotest.test_case
let check = Alcotest.check

let codes_of diags = List.map (fun d -> d.Diag.code) diags

let run_equiv ?dead_out original optimized =
  Equiv.check ?dead_out ~trace_id:1 ~original ~optimized ()

let check_codes name expected diags =
  check Alcotest.(list string) name expected (codes_of diags)

(* ------------------------------------------------------------------ *)
(* seeded miscompilations, one per code                                 *)
(* ------------------------------------------------------------------ *)

let test_stack_divergence () =
  (* wrong constant left on the stack *)
  let diags = run_equiv [| Instr.Iconst 1 |] [| Instr.Iconst 2 |] in
  check_codes "TL212" [ "TL212" ] diags;
  check Alcotest.bool "error severity" true
    (List.for_all (fun d -> d.Diag.severity = Diag.Error) diags)

let test_dropped_store () =
  let original = [| Instr.Iconst 5; Instr.Istore 0 |] in
  let optimized = [| Instr.Iconst 5; Instr.Pop |] in
  check_codes "TL213 without license" [ "TL213" ]
    (run_equiv original optimized);
  (* the same drop under a liveness license is a legal trailing
     dead-store elimination *)
  check_codes "licensed drop accepted" []
    (run_equiv ~dead_out:(fun _ -> true) original optimized)

let test_dropped_effect () =
  (* a putfield on a fresh allocation silently deleted; the allocation
     is provably non-null, so no trap noise distracts from the effect *)
  let original =
    [| Instr.New 3; Instr.Iconst 1; Instr.Putfield (3, 0) |]
  in
  let optimized = [| Instr.New 3; Instr.Pop |] in
  check_codes "TL213" [ "TL213" ] (run_equiv original optimized)

let test_reordered_effects () =
  (* two putfields on the same object swapped: identical effect multiset
     and identical trap journal, only the order differs *)
  let original =
    [| Instr.Aload 0; Instr.Iconst 1; Instr.Putfield (0, 0);
       Instr.Aload 0; Instr.Iconst 2; Instr.Putfield (0, 1) |]
  in
  let optimized =
    [| Instr.Aload 0; Instr.Iconst 2; Instr.Putfield (0, 1);
       Instr.Aload 0; Instr.Iconst 1; Instr.Putfield (0, 0) |]
  in
  check_codes "TL214" [ "TL214" ] (run_equiv original optimized)

let test_weakened_trap () =
  (* a possibly-trapping division deleted: its value is dead but its
     div_zero condition is not *)
  let original =
    [| Instr.Iload 0; Instr.Iload 1; Instr.Idiv; Instr.Pop |]
  in
  check_codes "TL215" [ "TL215" ] (run_equiv original [||])

let test_weakened_guard () =
  (* a conditional branch deleted wholesale *)
  let original = [| Instr.Iload 0; Instr.Ifz (Instr.Eq, 5) |] in
  check_codes "TL216" [ "TL216" ] (run_equiv original [||])

let test_incomparable_epochs () =
  (* a call barrier deleted: the effect journal diverges and the epoch
     structure becomes incomparable, which is reported as a warning and
     cuts the store/stack comparison short *)
  let diags = run_equiv [| Instr.Invokestatic 0 |] [||] in
  check Alcotest.bool "TL213 reported" true
    (List.mem "TL213" (codes_of diags));
  check Alcotest.bool "TL218 reported" true
    (List.mem "TL218" (codes_of diags));
  let tl218 = List.find (fun d -> d.Diag.code = "TL218") diags in
  check Alcotest.bool "TL218 is a warning" true
    (tl218.Diag.severity = Diag.Warning)

let test_changed_store_value () =
  (* same slot written, wrong value *)
  let original = [| Instr.Iconst 5; Instr.Istore 0 |] in
  let optimized = [| Instr.Iconst 6; Instr.Istore 0 |] in
  check_codes "TL213" [ "TL213" ] (run_equiv original optimized)

(* ------------------------------------------------------------------ *)
(* real traces: everything the engine installs proves clean            *)
(* ------------------------------------------------------------------ *)

(* a finished compress run whose every trace carries the prover's own
   pruning verdicts, derived after the run *)
let warm_engine () =
  let w = Workloads.Compress.workload in
  let layout = Cfg.Layout.build (w.Workloads.Workload.build ~size:2_000) in
  let r = Tracegen.Engine.run layout in
  let cache = Tracegen.Engine.cache r.Tracegen.Engine.engine in
  Tracegen.Trace_cache.iter_all cache (fun tr ->
      ignore (Tracegen.Trace_prover.prune layout tr));
  (layout, cache)

let test_real_traces_validate () =
  let layout, cache = warm_engine () in
  let n = ref 0 in
  Tracegen.Trace_cache.iter_all cache (fun _ -> incr n);
  check Alcotest.bool "traces installed" true (!n > 0);
  check_codes "every installed trace proves clean" []
    (Tracegen.Trace_prover.check_cache layout cache)

let test_forged_pruning_rejected () =
  (* flip a non-derived pruning verdict to true: the re-derivation must
     reject exactly that claim as TL217 *)
  let layout, cache = warm_engine () in
  let victim = ref None in
  Tracegen.Trace_cache.iter_all cache (fun tr ->
      if !victim = None && Tracegen.Trace.n_blocks tr >= 2 then begin
        let p = tr.Tracegen.Trace.pruned in
        let p =
          if Array.length p > 0 then p
          else Array.make (Tracegen.Trace.n_blocks tr) false
        in
        (* find a position the prover did NOT prune *)
        let pos = ref (-1) in
        Array.iteri (fun i v -> if !pos < 0 && i > 0 && not v then pos := i) p;
        if !pos >= 0 then begin
          p.(!pos) <- true;
          tr.Tracegen.Trace.pruned <- p;
          victim := Some tr
        end
      end);
  match !victim with
  | None -> Alcotest.fail "no trace with an unpruned position found"
  | Some tr ->
      let diags = Tracegen.Trace_prover.check_pruned layout tr in
      check Alcotest.bool "TL217 reported" true
        (List.mem "TL217" (codes_of diags));
      check Alcotest.bool "error severity" true
        (List.for_all (fun d -> d.Diag.severity = Diag.Error) diags);
      (* and the full validator surfaces the same claim *)
      check Alcotest.bool "validate includes the forged claim" true
        (List.mem "TL217" (codes_of (Tracegen.Trace_prover.validate layout tr)))

let test_derived_pruning_rederives () =
  (* every verdict the prover itself derived must re-derive cleanly *)
  let layout, cache = warm_engine () in
  let checked = ref 0 in
  Tracegen.Trace_cache.iter_all cache (fun tr ->
      if Array.length tr.Tracegen.Trace.pruned > 0 then begin
        incr checked;
        check_codes "claims re-derive" []
          (Tracegen.Trace_prover.check_pruned layout tr)
      end);
  check Alcotest.bool "pruned traces exist" true (!checked > 0)

let () =
  Alcotest.run "equiv"
    [
      ( "seeded miscompilations",
        [
          tc "stack divergence is TL212" `Quick test_stack_divergence;
          tc "dropped store is TL213" `Quick test_dropped_store;
          tc "dropped effect is TL213" `Quick test_dropped_effect;
          tc "reordered effects are TL214" `Quick test_reordered_effects;
          tc "weakened trap is TL215" `Quick test_weakened_trap;
          tc "weakened guard is TL216" `Quick test_weakened_guard;
          tc "incomparable epochs are TL218" `Quick test_incomparable_epochs;
          tc "changed store value is TL213" `Quick test_changed_store_value;
        ] );
      ( "proof-carrying traces",
        [
          tc "real traces validate" `Quick test_real_traces_validate;
          tc "forged pruning claim is TL217" `Quick
            test_forged_pruning_rejected;
          tc "derived claims re-derive" `Quick test_derived_pruning_rederives;
        ] );
    ]
