(* Tests of the benchmark's own arithmetic: the tail-percentile rule,
   span self time and failure counting. *)

open Perfbench

let samples n = Array.init n (fun i -> float_of_int (n - i))

let tail_rule () =
  let check n expect =
    Alcotest.(check (option (pair int (float 0.0))))
      (Printf.sprintf "%d samples" n) expect
      (Quant.tail (samples n))
  in
  check 100 (Some (90, 90.0));
  check 50 (Some (80, 40.0));
  check 11 (Some (9, 1.0));
  check 10 None;
  (* every reported tail leaves at least ten samples above it *)
  for n = 11 to 300 do
    match Quant.tail (samples n) with
    | None -> Alcotest.failf "no tail for %d samples" n
    | Some (p, v) ->
        let beyond =
          Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 (samples n)
        in
        if beyond < 10 then Alcotest.failf "p%d of %d has %d beyond" p n beyond;
        if p < 99 && n - Quant.rank ~n (p + 1) >= 10 then
          Alcotest.failf "p%d of %d is not the highest" p n
  done

let median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Quant.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Quant.median [| 4.0; 1.0; 3.0; 2.0 |])

(* A clock that returns the scripted instants in order. *)
let scripted times =
  let q = ref times in
  fun () ->
    match !q with
    | t :: rest ->
        q := rest;
        t
    | [] -> Alcotest.fail "clock read too often"

let self_time () =
  (* root [0, 100] with children [10, 30] and [50, 60], and one sampled
     grandchild of weight 4 inside the first child *)
  let sp = Spans.create ~clock:(scripted [ 0; 10; 30; 50; 60; 100 ]) () in
  Spans.with_ sp "root" (fun () ->
      Spans.with_ sp "a" (fun () ->
          Spans.record sp ~weight:4 ~name:"tick" ~start_ns:12 ~stop_ns:14 ());
      Spans.with_ sp "b" (fun () -> ()));
  let tot = Spans.totals (Spans.spans sp) in
  let self name = (tot name).Spans.self_ns in
  Alcotest.(check int) "root self" 70 (self "root");
  Alcotest.(check int) "a self: 20 minus 4 x 2 sampled" 12 (self "a");
  Alcotest.(check int) "b self" 10 (self "b");
  Alcotest.(check int) "tick self" 2 (self "tick");
  Alcotest.(check int) "root duration" 100 (tot "root").Spans.dur_ns;
  (* coverage beyond the parent never makes self time negative *)
  let sp = Spans.create ~clock:(scripted [ 0; 10 ]) () in
  Spans.with_ sp "p" (fun () ->
      Spans.record sp ~weight:100 ~name:"c" ~start_ns:1 ~stop_ns:2 ());
  Alcotest.(check int) "clamped" 0 (Spans.totals (Spans.spans sp) "p").Spans.self_ns

let result ?(instructions = 100) outcome =
  { Vm.Interp.outcome; instructions; block_dispatches = 10 }

let failure_counting () =
  let reference = result (Finished (Some (Vm.Value.Vint 7))) in
  let t = Tally.create () in
  Tally.check t ~where:"w/p/trace" ~reference reference;
  Alcotest.(check int) "match is not a failure" 0 t.Tally.failed;
  Tally.check t ~where:"w/p/trace" ~reference
    (result (Finished (Some (Vm.Value.Vint 8))));
  Alcotest.(check int) "mismatched outcome counts" 1 t.Tally.failed;
  Tally.check t ~where:"w/p/trace" ~reference
    (result ~instructions:101 reference.outcome);
  Alcotest.(check int) "instruction count mismatch counts" 2 t.Tally.failed;
  Tally.check t ~where:"w/p/trace" ~reference (result (Trapped (Null_pointer, "x")));
  Alcotest.(check int) "trap counts" 3 t.Tally.failed;
  Tally.check t
    ~self_check:(function Some (Vm.Value.Vint v) -> v land 1 = 0 | _ -> false)
    ~where:"w/p/trace" ~reference reference;
  Alcotest.(check int) "failed self-check counts" 4 t.Tally.failed;
  Tally.refuse t ~where:"w/p/warm" "restore rejected";
  Alcotest.(check int) "refused restore counts" 5 t.Tally.failed;
  Tally.expect t ~where:"w/all/trace" true "figures differ";
  Alcotest.(check int) "a passed check is not a failure" 5 t.Tally.failed;
  Tally.expect t ~where:"w/all/trace" false "figures differ";
  Alcotest.(check int) "a failed check counts" 6 t.Tally.failed;
  Alcotest.(check int) "attempted" 8 t.Tally.attempted;
  Alcotest.(check (float 1e-9)) "correct_pct" (200.0 /. 8.0) (Tally.correct_pct t);
  Alcotest.(check int) "every failure reported" 6 (List.length (Tally.problems t))

let () =
  Alcotest.run "perfbench"
    [
      ( "quant",
        [
          Alcotest.test_case "tail percentile rule" `Quick tail_rule;
          Alcotest.test_case "median" `Quick median;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick self_time ]);
      ("tally", [ Alcotest.test_case "failure counting" `Quick failure_counting ]);
    ]
