(* The dispatch path allocates nothing in steady state, and the
   interpreter allocates nothing straight into the major heap.

   Under the default configuration (flight recorder armed, decision
   ledger on, no subscriber) and each of the profile, trace and
   micro-IR backends, the minor words an engine run allocates
   beyond the plain interpreter's, divided by the run's block
   dispatches, must stay under one word: the profiler hook, the cache
   probe, trace entry/exit and the recorder's intake are all
   allocation-free, so what remains is one-off setup and the growth of
   the BCG and trace cache, amortised over the run.

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

(* Engine words beyond the plain run, per block dispatch. *)
let words_per_dispatch (w : Workloads.Workload.t) backend =
  let layout = Harness.Experiment.layout_for w ~size:w.default_size in
  let plain, plain_words = minor_words (fun () -> Interp.run_plain layout) in
  let run, engine_words =
    minor_words (fun () -> Engine.run ~config:Config.default ~backend layout)
  in
  Alcotest.(check int)
    "same instructions as plain" plain.Interp.instructions
    run.Engine.vm_result.Interp.instructions;
  (engine_words -. plain_words) /. float_of_int plain.Interp.block_dispatches

let check_under_one_word w backend () =
  let per = words_per_dispatch w backend in
  if per >= 1.0 then
    Alcotest.failf "%s under %s: %.2f minor words per dispatch (limit 1)"
      w.Workloads.Workload.name
      (Engine.backend_kind_name backend)
      per

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

let cases =
  List.concat_map
    (fun (w : Workloads.Workload.t) ->
      List.map
        (fun backend ->
          tc
            (Printf.sprintf "%s %s" w.name (Engine.backend_kind_name backend))
            `Quick
            (check_under_one_word w backend))
        [ Engine.Profile; Engine.Trace; Engine.Microir ])
    [ Workloads.Mpegaudio.workload; Workloads.Compress.workload ]

let () =
  Alcotest.run "alloc"
    [
      ("words per dispatch", cases);
      ("direct major words per dispatch", plain_cases);
    ]
