(* A static bytecode verifier in the style of the JVM's: abstract
   interpretation over stack shapes.  For every reachable instruction we
   compute the operand stack as a list of abstract types and check that
   (a) every instruction finds the operands it needs, (b) merge points agree
   on the stack shape, (c) branch targets, field slots and local slots are
   in range, and (d) execution cannot fall off the end of the code.

   The abstract domain distinguishes ints, floats and references — enough to
   catch every operand error the interpreter could trip on. *)

type vty =
  | Vint
  | Vfloat
  | Vref

type error = {
  method_name : string;
  pc : int;
  message : string;
}

exception Invalid of error

let fail mname pc fmt =
  Format.kasprintf
    (fun message -> raise (Invalid { method_name = mname; pc; message }))
    fmt

let vty_to_string = function
  | Vint -> "int"
  | Vfloat -> "float"
  | Vref -> "ref"

let vty_of_return = function
  | Mthd.Rint -> Some Vint
  | Mthd.Rfloat -> Some Vfloat
  | Mthd.Rref -> Some Vref
  | Mthd.Rvoid -> None

let vty_of_field_kind = function
  | Klass.Kint -> Vint
  | Klass.Kfloat -> Vfloat
  | Klass.Kref -> Vref

(* Any class binding the selector gives the shared signature (the front end
   enforces that all bindings agree). *)
let find_selector_target (program : Program.t) slot =
  let n = Array.length program.Program.classes in
  let rec go i =
    if i >= n then None
    else
      match Klass.method_for_selector program.Program.classes.(i) ~slot with
      | Some mid -> Some (Program.method_by_id program mid)
      | None -> go (i + 1)
  in
  go 0

(* The verifier does not track local types flow-sensitively (the builder
   already guarantees consistent slot use); it tracks stack shapes, which is
   where interpreter crashes would come from.

   The collecting variant records every violation instead of stopping at
   the first: each worklist step runs under a guard that catches [Invalid]
   and keeps draining.  Errors found after the first are best-effort (a
   broken merge leaves the earlier stack shape in place), but the first
   recorded error is always the one the raising API reports, because
   execution up to that point is identical. *)
let verify_method_all (program : Program.t) (m : Mthd.t) =
  let errors = ref [] in
  let seen = Hashtbl.create 8 in
  let record (e : error) =
    let key = (e.pc, e.message) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      errors := e :: !errors
    end
  in
  let guard f = try f () with Invalid e -> record e in
  let code = m.Mthd.code in
  let n = Array.length code in
  let mname = m.Mthd.name in
  (* a virtual method's [n_args] counts its receiver, which the
     interpreter finds below the arguments by that count *)
  if m.Mthd.kind = Mthd.Virtual && m.Mthd.n_args < 1 then
    record
      {
        method_name = mname;
        pc = 0;
        message =
          Printf.sprintf "virtual method without a receiver (n_args=%d)"
            m.Mthd.n_args;
      };
  if n = 0 then (
    record { method_name = mname; pc = 0; message = "empty code array" };
    List.rev !errors)
  else begin
  let stack_at : vty list option array = Array.make n None in
  let worklist = Queue.create () in
  let schedule pc stack =
    if pc < 0 || pc >= n then fail mname pc "control flow out of bounds";
    match stack_at.(pc) with
    | None ->
        stack_at.(pc) <- Some stack;
        Queue.add pc worklist
    | Some existing ->
        if existing <> stack then
          fail mname pc "inconsistent stack shapes at merge point (%s vs %s)"
            (String.concat "," (List.map vty_to_string existing))
            (String.concat "," (List.map vty_to_string stack))
  in
  let pop1 pc want stack =
    match stack with
    | t :: rest ->
        if t <> want then
          fail mname pc "expected %s on stack, found %s" (vty_to_string want)
            (vty_to_string t);
        rest
    | [] -> fail mname pc "stack underflow"
  in
  let pop_any pc stack =
    match stack with
    | _ :: rest -> rest
    | [] -> fail mname pc "stack underflow"
  in
  let pop_ref pc stack =
    match stack with
    | Vref :: rest -> rest
    | t :: _ ->
        fail mname pc "expected ref on stack, found %s" (vty_to_string t)
    | [] -> fail mname pc "stack underflow"
  in
  let check_local pc slot =
    if slot < 0 || slot >= m.Mthd.n_locals then
      fail mname pc "local slot %d out of range (n_locals=%d)" slot
        m.Mthd.n_locals
  in
  let check_field pc cid slot =
    if cid < 0 || cid >= Array.length program.Program.classes then
      fail mname pc "field access with invalid class id %d" cid;
    let k = program.Program.classes.(cid) in
    if slot < 0 || slot >= Klass.n_fields k then
      fail mname pc "field slot %d out of range for class %s" slot
        k.Klass.name;
    vty_of_field_kind k.Klass.field_kinds.(slot)
  in
  let rec pop_args pc k stack =
    if k = 0 then stack else pop_args pc (k - 1) (pop_any pc stack)
  in
  let step pc stack =
    let continue stack = schedule (pc + 1) stack in
    match code.(pc) with
    | Instr.Iconst _ -> continue (Vint :: stack)
    | Fconst _ -> continue (Vfloat :: stack)
    | Aconst_null -> continue (Vref :: stack)
    | Iload slot ->
        check_local pc slot;
        continue (Vint :: stack)
    | Fload slot ->
        check_local pc slot;
        continue (Vfloat :: stack)
    | Aload slot ->
        check_local pc slot;
        continue (Vref :: stack)
    | Istore slot ->
        check_local pc slot;
        continue (pop1 pc Vint stack)
    | Fstore slot ->
        check_local pc slot;
        continue (pop1 pc Vfloat stack)
    | Astore slot ->
        check_local pc slot;
        continue (pop_ref pc stack)
    | Iinc (slot, _) ->
        check_local pc slot;
        continue stack
    | Dup -> (
        match stack with
        | t :: _ -> continue (t :: stack)
        | [] -> fail mname pc "dup on empty stack")
    | Pop -> continue (pop_any pc stack)
    | Swap -> (
        match stack with
        | a :: b :: rest -> continue (b :: a :: rest)
        | _ -> fail mname pc "swap needs two operands")
    | Iadd | Isub | Imul | Idiv | Irem | Iand | Ior | Ixor | Ishl | Ishr
    | Iushr ->
        continue (Vint :: pop1 pc Vint (pop1 pc Vint stack))
    | Ineg -> continue (Vint :: pop1 pc Vint stack)
    | Fadd | Fsub | Fmul | Fdiv ->
        continue (Vfloat :: pop1 pc Vfloat (pop1 pc Vfloat stack))
    | Fneg -> continue (Vfloat :: pop1 pc Vfloat stack)
    | F2i -> continue (Vint :: pop1 pc Vfloat stack)
    | I2f -> continue (Vfloat :: pop1 pc Vint stack)
    | Fcmp -> continue (Vint :: pop1 pc Vfloat (pop1 pc Vfloat stack))
    | If_icmp (_, target) ->
        let stack = pop1 pc Vint (pop1 pc Vint stack) in
        schedule target stack;
        continue stack
    | Ifz (_, target) ->
        let stack = pop1 pc Vint stack in
        schedule target stack;
        continue stack
    | Goto target -> schedule target stack
    | Tableswitch { targets; default; _ } ->
        let stack = pop1 pc Vint stack in
        Array.iter (fun t -> schedule t stack) targets;
        schedule default stack
    | Invokestatic mid ->
        if mid < 0 || mid >= Array.length program.Program.methods then
          fail mname pc "invokestatic with invalid method id %d" mid;
        let callee = Program.method_by_id program mid in
        if callee.Mthd.kind <> Mthd.Static then
          fail mname pc "invokestatic on virtual method %s" callee.Mthd.name;
        let stack = pop_args pc callee.Mthd.n_args stack in
        let stack =
          match vty_of_return callee.Mthd.returns with
          | None -> stack
          | Some t -> t :: stack
        in
        continue stack
    | Invokevirtual slot -> (
        if slot < 0 || slot >= Array.length program.Program.selectors then
          fail mname pc "invokevirtual with invalid selector slot %d" slot;
        match find_selector_target program slot with
        | None -> fail mname pc "selector slot %d bound by no class" slot
        | Some callee ->
            (* n_args includes the receiver *)
            let stack = pop_args pc callee.Mthd.n_args stack in
            let stack =
              match vty_of_return callee.Mthd.returns with
              | None -> stack
              | Some t -> t :: stack
            in
            continue stack)
    | Return ->
        if m.Mthd.returns <> Mthd.Rvoid then
          fail mname pc "void return in non-void method"
    | Ireturn ->
        if m.Mthd.returns <> Mthd.Rint then fail mname pc "ireturn mismatch";
        ignore (pop1 pc Vint stack)
    | Freturn ->
        if m.Mthd.returns <> Mthd.Rfloat then
          fail mname pc "freturn mismatch";
        ignore (pop1 pc Vfloat stack)
    | Areturn ->
        if m.Mthd.returns <> Mthd.Rref then fail mname pc "areturn mismatch";
        ignore (pop_ref pc stack)
    | New cid ->
        if cid < 0 || cid >= Array.length program.Program.classes then
          fail mname pc "new with invalid class id %d" cid;
        continue (Vref :: stack)
    | Getfield (cid, slot) ->
        let fty = check_field pc cid slot in
        continue (fty :: pop_ref pc stack)
    | Putfield (cid, slot) ->
        let fty = check_field pc cid slot in
        continue (pop_ref pc (pop1 pc fty stack))
    | Instanceof cid ->
        if cid < 0 || cid >= Array.length program.Program.classes then
          fail mname pc "instanceof with invalid class id %d" cid;
        continue (Vint :: pop_ref pc stack)
    (* stacks are written top-first: the index is above the array ref, and
       a stored value is above the index *)
    | Newarray _ -> continue (Vref :: pop1 pc Vint stack)
    | Iaload -> continue (Vint :: pop_ref pc (pop1 pc Vint stack))
    | Faload -> continue (Vfloat :: pop_ref pc (pop1 pc Vint stack))
    | Aaload -> continue (Vref :: pop_ref pc (pop1 pc Vint stack))
    | Iastore -> continue (pop_ref pc (pop1 pc Vint (pop1 pc Vint stack)))
    | Fastore -> continue (pop_ref pc (pop1 pc Vint (pop1 pc Vfloat stack)))
    | Aastore -> continue (pop_ref pc (pop1 pc Vint (pop_ref pc stack)))
    | Arraylength -> continue (Vint :: pop_ref pc stack)
    | Athrow ->
        (* flow terminates here; the covering handler (if any) is
           scheduled separately with the exception object on the stack *)
        ignore (pop_ref pc stack)
    | Nop -> continue stack
  in
  (* handler sanity + entry states: a handler target starts with exactly
     the exception object on the stack *)
  Array.iter
    (fun h ->
      guard (fun () ->
          if
            h.Mthd.h_from < 0 || h.Mthd.h_to > n
            || h.Mthd.h_from >= h.Mthd.h_to
            || h.Mthd.h_target < 0 || h.Mthd.h_target >= n
          then fail mname h.Mthd.h_target "malformed handler range";
          if
            h.Mthd.h_class < 0
            || h.Mthd.h_class >= Array.length program.Program.classes
          then fail mname h.Mthd.h_target "handler catches unknown class";
          schedule h.Mthd.h_target [ Vref ]))
    m.Mthd.handlers;
  guard (fun () -> schedule 0 []);
  while not (Queue.is_empty worklist) do
    let pc = Queue.pop worklist in
    match stack_at.(pc) with
    | Some stack -> guard (fun () -> step pc stack)
    | None -> assert false
  done;
  List.rev !errors
  end

let verify_method (program : Program.t) (m : Mthd.t) =
  match verify_method_all program m with
  | [] -> ()
  | e :: _ -> raise (Invalid e)

let verify_program_all (program : Program.t) =
  Array.fold_left
    (fun acc m -> acc @ verify_method_all program m)
    [] program.Program.methods

let verify_program (program : Program.t) =
  Array.iter (fun m -> verify_method program m) program.Program.methods
