(* The dispatch path allocates nothing in steady state, and the
   interpreter allocates nothing straight into the major heap.

   Under the default configuration (flight recorder armed, decision
   ledger on, no subscriber) and each of the profile and trace
   backends, and the trace backend again with the compiled micro-IR
   tier armed, the minor words an engine run allocates
   beyond the plain interpreter's, divided by the run's block
   dispatches, must stay under one word: the profiler hook, the cache
   probe, trace entry/exit and the recorder's intake are all
   allocation-free, so what remains is one-off setup and the growth of
   the BCG and trace cache, amortised over the run.

   Lowering a trace to micro-IR is one-off setup too, but a large one
   (tens of thousands of words per trace, more than a short run's whole
   dispatch path), so the tier row also leaves out the words lowering
   costs: every trace still compiled at the end of the run is lowered
   again and its words subtracted.  Traces compiled and then demoted or
   evicted are not re-lowered, so the estimate errs low and the gate
   stays strict.

   The plain interpreter itself must not allocate directly into the
   major heap per dispatch: a block larger than the minor heap's
   256-word limit bypasses the minor heap, so a per-call allocation of
   that size (a fixed-size operand stack, say) never shows in the minor
   words above.  Direct major words are the major words that were not
   promoted out of the minor heap. *)

module Config = Tracegen.Config
module Engine = Tracegen.Engine
module Interp = Vm.Interp

let tc = Alcotest.test_case

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* Words lowering the traces an engine holds compiled costs: 0 with the
   tier off. *)
let lowering_words layout engine =
  let compiled = ref [] in
  Tracegen.Trace_cache.iter (Engine.cache engine) (fun tr ->
      if tr.Tracegen.Trace.lowered <> None then compiled := tr :: !compiled);
  snd
    (minor_words (fun () ->
         List.iter
           (fun tr -> ignore (Tracegen.Tier.lower_trace layout tr))
           !compiled))

(* Engine words beyond the plain run and the tier's lowering, per block
   dispatch. *)
let words_per_dispatch (w : Workloads.Workload.t) config backend =
  let layout = Harness.Experiment.layout_for w ~size:w.default_size in
  let plain, plain_words = minor_words (fun () -> Interp.run_plain layout) in
  let run, engine_words =
    minor_words (fun () -> Engine.run ~config ~backend layout)
  in
  Alcotest.(check int)
    "same instructions as plain" plain.Interp.instructions
    run.Engine.vm_result.Interp.instructions;
  let lowering = lowering_words layout run.Engine.engine in
  (engine_words -. plain_words -. lowering)
  /. float_of_int plain.Interp.block_dispatches

let check_under_one_word w (label, config, backend) () =
  let per = words_per_dispatch w config backend in
  if per >= 1.0 then
    Alcotest.failf "%s under %s: %.2f minor words per dispatch (limit 1)"
      w.Workloads.Workload.name label per

(* Words allocated straight into the major heap by [f]. *)
let direct_major_words f =
  let _, p0, j0 = Gc.counters () in
  let r = f () in
  let _, p1, j1 = Gc.counters () in
  (r, j1 -. j0 -. (p1 -. p0))

let check_plain_major (w : Workloads.Workload.t) () =
  let layout = Harness.Experiment.layout_for w ~size:w.default_size in
  let r, words = direct_major_words (fun () -> Interp.run_plain layout) in
  let per = words /. float_of_int r.Interp.block_dispatches in
  if per >= 1.0 then
    Alcotest.failf "%s: %.2f direct major words per dispatch (limit 1)"
      w.Workloads.Workload.name per

let plain_cases =
  List.map
    (fun (w : Workloads.Workload.t) ->
      tc (w.name ^ " run_plain") `Quick (check_plain_major w))
    [ Workloads.Mpegaudio.workload; Workloads.Javacish.workload ]

(* (label, configuration, pinned backend); "microir" is trace dispatch
   with the compiled tier armed *)
let setups =
  [
    ("profile", Config.default, Engine.Profile);
    ("trace", Config.default, Engine.Trace);
    ("microir", Config.make ~tier:true (), Engine.Trace);
  ]

let cases =
  List.concat_map
    (fun (w : Workloads.Workload.t) ->
      List.map
        (fun ((label, _, _) as setup) ->
          tc
            (Printf.sprintf "%s %s" w.name label)
            `Quick
            (check_under_one_word w setup))
        setups)
    [ Workloads.Mpegaudio.workload; Workloads.Compress.workload ]

let () =
  Alcotest.run "alloc"
    [
      ("words per dispatch", cases);
      ("direct major words per dispatch", plain_cases);
    ]
