(* Failure accounting: every program run the benchmark makes is checked
   against the plain interpreter's reference result, and every mismatch
   is counted and reported with where it happened. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** newest first *)
}

let create () = { attempted = 0; failed = 0; problems = [] }

let fail t ~where msg =
  t.failed <- t.failed + 1;
  t.problems <- Printf.sprintf "%s: %s" where msg :: t.problems

let outcome_to_string = function
  | Vm.Interp.Finished None -> "finished"
  | Vm.Interp.Finished (Some v) -> "finished " ^ Vm.Value.to_string v
  | Vm.Interp.Trapped (k, msg) ->
      Printf.sprintf "trapped %s (%s)" (Vm.Interp.error_kind_to_string k) msg

(* Why [got] differs from [reference], or [None] when it matches: same
   outcome, same instruction and block-dispatch counts, no trap, and the
   program's own self-check (when it has one) passed. *)
let mismatch ?self_check ~(reference : Vm.Interp.result) (got : Vm.Interp.result)
    =
  let out = outcome_to_string in
  match got.outcome with
  | Trapped _ -> Some (out got.outcome)
  | Finished v ->
      if out got.outcome <> out reference.outcome then
        Some
          (Printf.sprintf "outcome %s, reference %s" (out got.outcome)
             (out reference.outcome))
      else if got.instructions <> reference.instructions then
        Some
          (Printf.sprintf "%d instructions, reference %d" got.instructions
             reference.instructions)
      else if got.block_dispatches <> reference.block_dispatches then
        Some
          (Printf.sprintf "%d block dispatches, reference %d"
             got.block_dispatches reference.block_dispatches)
      else
        match self_check with
        | Some ok when not (ok v) -> Some "self-check failed"
        | _ -> None

(* Count one attempted run and, if it mismatches, one failure. *)
let check t ?self_check ~where ~reference got =
  t.attempted <- t.attempted + 1;
  match mismatch ?self_check ~reference got with
  | Some msg -> fail t ~where msg
  | None -> ()

(* Count one attempted check that is not a run against the reference
   (figures that must repeat from pass to pass), failing unless [ok]. *)
let expect t ~where ok msg =
  t.attempted <- t.attempted + 1;
  if not ok then fail t ~where msg

(* Count one attempted run that could not even start (a rejected
   warm-start snapshot). *)
let refuse t ~where msg = expect t ~where false msg

let correct_pct t =
  if t.attempted = 0 then 0.0
  else 100.0 *. float_of_int (t.attempted - t.failed) /. float_of_int t.attempted

let problems t = List.rev t.problems
