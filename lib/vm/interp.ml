module Instr = Bytecode.Instr
module Mthd = Bytecode.Mthd
module Klass = Bytecode.Klass
module Program = Bytecode.Program
module Block = Cfg.Block
module Method_cfg = Cfg.Method_cfg
module Layout = Cfg.Layout

(* The interpreter.

   Execution proceeds basic block by basic block, mirroring a
   direct-threaded-inlining interpreter: entering a block is a *dispatch*,
   and the [on_block] observer is invoked with the block's global id at
   every dispatch — this is the hook the paper's profiler attaches to.
   Calls and returns produce dispatches too (caller block -> callee entry
   block -> return-continuation block), so traces can cross method
   boundaries seamlessly, as in the paper.

   Per-instruction "dispatch" counts for the plain-interpreter comparison
   (Figure 1 vs Figure 2) fall out of the instruction counter. *)

type error_kind =
  | Null_pointer
  | Array_bounds
  | Division_by_zero
  | No_such_method
  | Type_confusion
  | Stack_overflow
  | Uncaught_exception
  | Instruction_budget

exception Runtime_error of error_kind * string

let error_kind_to_string = function
  | Null_pointer -> "null pointer"
  | Array_bounds -> "array index out of bounds"
  | Division_by_zero -> "division by zero"
  | No_such_method -> "no such method"
  | Type_confusion -> "type confusion"
  | Stack_overflow -> "call stack overflow"
  | Uncaught_exception -> "uncaught exception"
  | Instruction_budget -> "instruction budget exhausted"

let die kind fmt =
  Format.kasprintf (fun s -> raise (Runtime_error (kind, s))) fmt

(* A call frame: a window [base, sp) of its handle's one shared operand
   stack, as in SableVM and the JVM.  A call opens the callee's window at
   the caller's [sp], so a frame owns no stack storage and a call
   allocates only the frame and its locals.  The verifier bounds stack
   growth statically, so [max_stack] is a generous per-window cap checked
   only on push.  Frames link to their callers; the entry frame is its
   own caller, and the state's [depth], not the link, says where the
   chain ends. *)
type frame = {
  meth : Mthd.t;
  locals : Value.t array;
  base : int; (* the window's first slot in the shared stack *)
  mutable sp : int; (* absolute: one past the window's top operand *)
  mutable pc : int;
  caller : frame;
}

let max_stack = 1024

let max_frames = 4096

type outcome =
  | Finished of Value.t option
  | Trapped of error_kind * string

type result = {
  outcome : outcome;
  instructions : int; (* = per-instruction dispatches, Figure 1 model *)
  block_dispatches : int; (* = per-block dispatches, Figure 2 model *)
}

type state = {
  layout : Layout.t;
  program : Program.t;
  arity : int array; (* selector slot -> argument count, -1 if unbound *)
  mutable stack : Value.t array; (* shared by every frame; doubles when full *)
  mutable top : frame; (* the running frame, while [depth > 0] *)
  mutable depth : int; (* live frames; 0 once the entry method returned *)
  mutable returned : Value.t option;
  mutable instructions : int;
  mutable block_dispatches : int;
  max_instructions : int;
  on_block : Layout.gid -> unit;
  on_block_state : (Layout.gid -> Value.t array -> unit) option;
}

let grow st =
  let n = Array.length st.stack in
  let bigger = Array.make (2 * n) (Value.Vint 0) in
  Array.blit st.stack 0 bigger 0 n;
  st.stack <- bigger

(* The hot path.  Every helper [exec_block] calls per instruction is
   [@inline], so a block's common case compiles to straight-line code, as
   in an inlining interpreter; each trap is raised from an
   [@inline never] raiser below, which keeps the formatting out of the
   inlined bodies.  [scripts/check.sh] fails if the release build's
   [exec_block] calls any of these helpers. *)

let[@inline never] overflow () = die Stack_overflow "operand stack overflow"

let[@inline never] underflow () = die Type_confusion "operand stack underflow"

let[@inline never] expected what v =
  die Type_confusion "expected %s, got %s" what (Value.to_string v)

let[@inline never] null_access what = die Null_pointer "%s access on null" what

let[@inline never] out_of_bounds i n =
  die Array_bounds "index %d, length %d" i n

let[@inline never] over_budget limit =
  die Instruction_budget "exceeded %d instructions" limit

let[@inline] push st fr v =
  let sp = fr.sp in
  if sp - fr.base >= max_stack then overflow ();
  if sp >= Array.length st.stack then grow st;
  st.stack.(sp) <- v;
  fr.sp <- sp + 1

let[@inline] pop st fr =
  if fr.sp <= fr.base then underflow ();
  fr.sp <- fr.sp - 1;
  st.stack.(fr.sp)

let[@inline] pop_int st fr =
  match pop st fr with Value.Vint n -> n | v -> expected "int" v

let[@inline] pop_float st fr =
  match pop st fr with Value.Vfloat f -> f | v -> expected "float" v

let[@inline] pop_obj st fr =
  match pop st fr with
  | Value.Vobj o -> o
  | Value.Vnull -> null_access "field"
  | v -> expected "object" v

let[@inline] pop_arr st fr =
  match pop st fr with
  | Value.Varr a -> a
  | Value.Vnull -> null_access "array"
  | v -> expected "array" v

let[@inline] check_bounds (a : Value.arr) i =
  let n = Array.length a.Value.cells in
  if i < 0 || i >= n then out_of_bounds i n

let fresh_locals (m : Mthd.t) =
  Array.make (Int.max 1 m.Mthd.n_locals) (Value.Vint 0)

(* Invoke: pop n_args values off the caller's stack into the callee's
   leading locals (receiver in local 0 for virtual methods), then open
   the callee's window where the arguments were. *)
let setup_call st (caller : frame) (callee_m : Mthd.t) =
  if st.depth >= max_frames then die Stack_overflow "too many frames";
  let locals = fresh_locals callee_m in
  for i = callee_m.Mthd.n_args - 1 downto 0 do
    locals.(i) <- pop st caller
  done;
  let base = caller.sp in
  st.top <- { meth = callee_m; locals; base; sp = base; pc = 0; caller };
  st.depth <- st.depth + 1

let receiver_class st (caller : frame) n_args =
  (* receiver sits below the arguments, inside the caller's window *)
  let idx = caller.sp - n_args in
  if idx < caller.base then die Type_confusion "missing receiver";
  match st.stack.(idx) with
  | Value.Vobj o -> o.Value.cls
  | Value.Vnull -> die Null_pointer "virtual call on null"
  | v -> die Type_confusion "virtual call on %s" (Value.to_string v)

(* Every class binding a selector gives it the same signature (front-end
   invariant), so a selector's arity is a property of the program: the
   first binding's argument count, tabulated once per handle. *)
let selector_arities (program : Program.t) =
  let classes = program.Program.classes in
  let n =
    Array.fold_left
      (fun n k -> Int.max n (Array.length k.Klass.vtable))
      0 classes
  in
  let arity = Array.make n (-1) in
  Array.iter
    (fun k ->
      Array.iteri
        (fun slot mid ->
          if mid >= 0 && arity.(slot) < 0 then
            arity.(slot) <- (Program.method_by_id program mid).Mthd.n_args)
        k.Klass.vtable)
    classes;
  arity

(* Resolve a virtual call: the arity locates the receiver below the
   arguments, and the receiver's vtable names the method. *)
let resolve_virtual st (caller : frame) slot : Mthd.t =
  let n_args =
    if slot >= 0 && slot < Array.length st.arity then st.arity.(slot) else -1
  in
  if n_args < 0 then
    die No_such_method "selector slot %d bound by no class" slot;
  let k = Program.class_by_id st.program (receiver_class st caller n_args) in
  let vtable = k.Klass.vtable in
  let mid = if slot < Array.length vtable then vtable.(slot) else -1 in
  if mid < 0 then
    die No_such_method "class %s does not understand %s" k.Klass.name
      (Program.selector_name st.program slot);
  Program.method_by_id st.program mid

let[@inline] step_budget st n =
  st.instructions <- st.instructions + n;
  if st.instructions > st.max_instructions then over_budget st.max_instructions

(* Execute exactly one basic block from the current frame/pc: one
   dispatch, the observer hooks, the block's instructions, and its
   terminator.  A no-op once the entry method has returned. *)
let exec_block st =
  if st.depth > 0 then
    let fr = st.top in
    let mid = fr.meth.Mthd.id in
    let cfg = Layout.cfg_of_method st.layout ~method_id:mid in
    let bi = Method_cfg.block_index_at_pc cfg fr.pc in
    let b = cfg.Method_cfg.blocks.(bi) in
    (* block dispatch *)
    st.block_dispatches <- st.block_dispatches + 1;
    let gid = Layout.gid st.layout ~method_id:mid ~block_index:bi in
    st.on_block gid;
    (match st.on_block_state with
    | Some f -> f gid fr.locals
    | None -> ());
    let end_pc = Block.end_pc b in
    step_budget st b.Block.len;
    (* straight-line portion *)
    let pc = ref fr.pc in
    let code = fr.meth.Mthd.code in
    while !pc < end_pc do
      let ins = code.(!pc) in
      (match ins with
      | Instr.Iconst n -> push st fr (Value.Vint n)
      | Instr.Fconst f -> push st fr (Value.Vfloat f)
      | Instr.Aconst_null -> push st fr Value.Vnull
      | Instr.Iload n -> push st fr fr.locals.(n)
      | Instr.Fload n -> push st fr fr.locals.(n)
      | Instr.Aload n -> push st fr fr.locals.(n)
      | Instr.Istore n | Instr.Fstore n | Instr.Astore n ->
          fr.locals.(n) <- pop st fr
      | Instr.Iinc (n, d) -> (
          match fr.locals.(n) with
          | Value.Vint v -> fr.locals.(n) <- Value.Vint (v + d)
          | v -> die Type_confusion "iinc on %s" (Value.to_string v))
      | Instr.Dup ->
          let v = pop st fr in
          push st fr v;
          push st fr v
      | Instr.Pop -> ignore (pop st fr)
      | Instr.Swap ->
          let a = pop st fr in
          let b = pop st fr in
          push st fr a;
          push st fr b
      | Instr.Iadd ->
          let b = pop_int st fr in
          push st fr (Value.Vint (pop_int st fr + b))
      | Instr.Isub ->
          let b = pop_int st fr in
          push st fr (Value.Vint (pop_int st fr - b))
      | Instr.Imul ->
          let b = pop_int st fr in
          push st fr (Value.Vint (pop_int st fr * b))
      | Instr.Idiv ->
          let b = pop_int st fr in
          if b = 0 then die Division_by_zero "idiv";
          push st fr (Value.Vint (pop_int st fr / b))
      | Instr.Irem ->
          let b = pop_int st fr in
          if b = 0 then die Division_by_zero "irem";
          push st fr (Value.Vint (pop_int st fr mod b))
      | Instr.Ineg -> push st fr (Value.Vint (-pop_int st fr))
      | Instr.Iand ->
          let b = pop_int st fr in
          push st fr (Value.Vint (pop_int st fr land b))
      | Instr.Ior ->
          let b = pop_int st fr in
          push st fr (Value.Vint (pop_int st fr lor b))
      | Instr.Ixor ->
          let b = pop_int st fr in
          push st fr (Value.Vint (pop_int st fr lxor b))
      | Instr.Ishl ->
          let b = pop_int st fr in
          push st fr (Value.Vint (pop_int st fr lsl (b land 63)))
      | Instr.Ishr ->
          let b = pop_int st fr in
          push st fr (Value.Vint (pop_int st fr asr (b land 63)))
      | Instr.Iushr ->
          let b = pop_int st fr in
          push st fr (Value.Vint (pop_int st fr lsr (b land 63)))
      | Instr.Fadd ->
          let b = pop_float st fr in
          push st fr (Value.Vfloat (pop_float st fr +. b))
      | Instr.Fsub ->
          let b = pop_float st fr in
          push st fr (Value.Vfloat (pop_float st fr -. b))
      | Instr.Fmul ->
          let b = pop_float st fr in
          push st fr (Value.Vfloat (pop_float st fr *. b))
      | Instr.Fdiv ->
          let b = pop_float st fr in
          push st fr (Value.Vfloat (pop_float st fr /. b))
      | Instr.Fneg -> push st fr (Value.Vfloat (-.pop_float st fr))
      | Instr.F2i ->
          push st fr (Value.Vint (int_of_float (pop_float st fr)))
      | Instr.I2f ->
          push st fr (Value.Vfloat (float_of_int (pop_int st fr)))
      | Instr.Fcmp ->
          let b = pop_float st fr in
          let a = pop_float st fr in
          push st fr (Value.Vint (compare a b))
      | Instr.New cid ->
          let k = Program.class_by_id st.program cid in
          let fields =
            Array.map Value.default_of_field_kind k.Klass.field_kinds
          in
          push st fr (Value.Vobj { Value.cls = cid; fields })
      | Instr.Getfield (_, slot) ->
          let o = pop_obj st fr in
          if slot >= Array.length o.Value.fields then
            die Type_confusion "field slot %d out of range" slot;
          push st fr o.Value.fields.(slot)
      | Instr.Putfield (_, slot) ->
          let v = pop st fr in
          let o = pop_obj st fr in
          if slot >= Array.length o.Value.fields then
            die Type_confusion "field slot %d out of range" slot;
          o.Value.fields.(slot) <- v
      | Instr.Instanceof cid -> (
          match pop st fr with
          | Value.Vobj o ->
              let yes =
                Klass.is_subclass_of st.program.Program.classes
                  ~sub:o.Value.cls ~super:cid
              in
              push st fr (Value.Vint (if yes then 1 else 0))
          | Value.Vnull -> push st fr (Value.Vint 0)
          | v -> die Type_confusion "instanceof on %s" (Value.to_string v))
      | Instr.Newarray kind ->
          let n = pop_int st fr in
          if n < 0 then die Array_bounds "negative array length %d" n;
          push st fr
            (Value.Varr
               {
                 Value.kind;
                 cells = Array.make n (Value.default_of_array_kind kind);
               })
      | Instr.Iaload | Instr.Faload | Instr.Aaload ->
          let i = pop_int st fr in
          let a = pop_arr st fr in
          check_bounds a i;
          push st fr a.Value.cells.(i)
      | Instr.Iastore ->
          let v = pop_int st fr in
          let i = pop_int st fr in
          let a = pop_arr st fr in
          check_bounds a i;
          a.Value.cells.(i) <- Value.Vint v
      | Instr.Fastore ->
          let v = pop_float st fr in
          let i = pop_int st fr in
          let a = pop_arr st fr in
          check_bounds a i;
          a.Value.cells.(i) <- Value.Vfloat v
      | Instr.Aastore ->
          let v = pop st fr in
          let i = pop_int st fr in
          let a = pop_arr st fr in
          check_bounds a i;
          a.Value.cells.(i) <- v
      | Instr.Arraylength ->
          let a = pop_arr st fr in
          push st fr (Value.Vint (Array.length a.Value.cells))
      | Instr.Nop -> ()
      (* terminators are handled below; they are always last in a
         block, so reaching them here just ends the straight-line
         phase *)
      | Instr.If_icmp _ | Instr.Ifz _ | Instr.Goto _
      | Instr.Tableswitch _ | Instr.Invokestatic _
      | Instr.Invokevirtual _ | Instr.Return | Instr.Ireturn
      | Instr.Freturn | Instr.Areturn | Instr.Athrow ->
          ());
      (match ins with
      | Instr.If_icmp (c, target) ->
          let b2 = pop_int st fr in
          let a = pop_int st fr in
          fr.pc <- (if Instr.eval_cond c (compare a b2) then target else !pc + 1);
          pc := end_pc (* leave straight-line loop *)
      | Instr.Ifz (c, target) ->
          let a = pop_int st fr in
          fr.pc <- (if Instr.eval_cond c a then target else !pc + 1);
          pc := end_pc
      | Instr.Goto target ->
          fr.pc <- target;
          pc := end_pc
      | Instr.Tableswitch { low; targets; default } ->
          let v = pop_int st fr in
          let i = v - low in
          fr.pc <-
            (if i >= 0 && i < Array.length targets then targets.(i)
             else default);
          pc := end_pc
      | Instr.Invokestatic mid2 ->
          fr.pc <- !pc + 1;
          let callee_m = Program.method_by_id st.program mid2 in
          setup_call st fr callee_m;
          pc := end_pc
      | Instr.Invokevirtual slot ->
          fr.pc <- !pc + 1;
          let callee_m = resolve_virtual st fr slot in
          setup_call st fr callee_m;
          pc := end_pc
      | Instr.Athrow ->
          (* unwind: find the innermost covering handler, searching the
             current frame at the throw pc and callers at their call
             sites *)
          let exc = pop st fr in
          let cls =
            match exc with
            | Value.Vobj o -> o.Value.cls
            | Value.Vnull -> die Null_pointer "throw of null"
            | v -> die Type_confusion "throw of %s" (Value.to_string v)
          in
          let is_subclass ~sub ~super =
            Klass.is_subclass_of st.program.Program.classes ~sub ~super
          in
          let rec unwind f depth throw_pc =
            match Mthd.handler_for f.meth ~pc:throw_pc ~cls ~is_subclass with
            | Some h ->
                st.top <- f;
                st.depth <- depth;
                f.sp <- f.base;
                push st f exc;
                f.pc <- h.Mthd.h_target
            | None ->
                (* a caller is searched at its call site: the
                   instruction before its stored continuation *)
                if depth > 1 then
                  unwind f.caller (depth - 1) (Int.max 0 (f.caller.pc - 1))
                else
                  die Uncaught_exception "class %s"
                    (Program.class_by_id st.program cls).Klass.name
          in
          unwind fr st.depth !pc;
          pc := end_pc
      | Instr.Return ->
          st.top <- fr.caller;
          st.depth <- st.depth - 1;
          if st.depth = 0 then st.returned <- None;
          pc := end_pc
      | Instr.Ireturn | Instr.Freturn | Instr.Areturn ->
          let v = pop st fr in
          st.top <- fr.caller;
          st.depth <- st.depth - 1;
          if st.depth > 0 then push st fr.caller v
          else st.returned <- Some v;
          pc := end_pc
      | _ ->
          (* ordinary instruction: advance; if this was the last
             instruction of a fallthrough block, fr.pc must follow *)
          incr pc;
          if !pc = end_pc then fr.pc <- end_pc)
    done

(* Resumable execution.  A handle owns the interpreter state and absorbs
   a [Runtime_error] raised mid-step into a pending [Trapped] outcome, so
   interleaved drivers (the [Session] layer) never see the exception. *)
type handle = { h_st : state; mutable h_trap : (error_kind * string) option }

let start ?(max_instructions = max_int) ?on_block_state (layout : Layout.t)
    ~(on_block : Layout.gid -> unit) : handle =
  let program = layout.Layout.program in
  let entry = Program.entry_method program in
  let locals = fresh_locals entry in
  let rec bottom =
    { meth = entry; locals; base = 0; sp = 0; pc = 0; caller = bottom }
  in
  let st =
    {
      layout;
      program;
      arity = selector_arities program;
      stack = Array.make 64 (Value.Vint 0);
      top = bottom;
      depth = 1;
      returned = None;
      instructions = 0;
      block_dispatches = 0;
      max_instructions;
      on_block;
      on_block_state;
    }
  in
  { h_st = st; h_trap = None }

let running h = h.h_trap = None && h.h_st.depth > 0

let step_blocks h n =
  let executed = ref 0 in
  (try
     while !executed < n && running h do
       exec_block h.h_st;
       incr executed
     done
   with Runtime_error (kind, msg) ->
     (* the trapping block was dispatched before it died *)
     incr executed;
     h.h_trap <- Some (kind, msg));
  !executed

let result_of h =
  let outcome =
    match h.h_trap with
    | Some (kind, msg) -> Trapped (kind, msg)
    | None ->
        if h.h_st.depth = 0 then Finished h.h_st.returned
        else invalid_arg "Interp.result_of: program still running"
  in
  {
    outcome;
    instructions = h.h_st.instructions;
    block_dispatches = h.h_st.block_dispatches;
  }

let finish h =
  while running h do
    ignore (step_blocks h max_int)
  done;
  result_of h

(* State materialization (OSR).  A deoptimizing engine must show that
   abandoning a trace mid-flight leaves the interpreter exactly where
   pure block dispatch would be.  [materialize] captures the live
   continuation — every frame's method, pc, locals and operand stack —
   at a block boundary; the dispatch overlay never mutates interpreter
   state, so a mismatch here is a hard invariant violation (TL219). *)

type frame_snapshot = {
  fs_method : int;
  fs_pc : int;
  fs_sp : int;
  fs_locals : Value.t array;
  fs_stack : Value.t array; (* the frame's window: stack.(base .. sp-1) *)
}

type materialized = {
  m_frames : frame_snapshot list; (* innermost first *)
  m_instructions : int;
  m_block : Layout.gid option;
      (* the block the innermost frame's pc resolves to; None once the
         program has stopped (or pc lies outside the method's code) *)
}

(* [fs_sp] and [fs_stack] are frame-relative, so a snapshot does not
   depend on where the frame's window sits in the shared stack. *)
let snapshot_frame st (fr : frame) : frame_snapshot =
  {
    fs_method = fr.meth.Mthd.id;
    fs_pc = fr.pc;
    fs_sp = fr.sp - fr.base;
    fs_locals = Array.copy fr.locals;
    fs_stack = Array.sub st.stack fr.base (fr.sp - fr.base);
  }

let materialize (h : handle) : materialized =
  let st = h.h_st in
  let fr = st.top in
  let m_block =
    if st.depth > 0 && fr.pc >= 0 && fr.pc < Array.length fr.meth.Mthd.code
    then Some (Layout.gid_at_pc st.layout ~method_id:fr.meth.Mthd.id ~pc:fr.pc)
    else None
  in
  let rec frames f depth =
    if depth = 0 then []
    else snapshot_frame st f :: frames f.caller (depth - 1)
  in
  {
    m_frames = frames fr st.depth;
    m_instructions = st.instructions;
    m_block;
  }

(* Cross-run value equality: scalars structurally ([compare] so NaN
   equals itself), references by shape only — two independent runs never
   share heap objects, so identity cannot be compared and deep
   structural comparison could chase cycles. *)
let value_equal (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.Vobj x, Value.Vobj y ->
      x.Value.cls = y.Value.cls
      && Array.length x.Value.fields = Array.length y.Value.fields
  | Value.Varr x, Value.Varr y ->
      x.Value.kind = y.Value.kind
      && Array.length x.Value.cells = Array.length y.Value.cells
  | (Value.Vobj _ | Value.Varr _), _ | _, (Value.Vobj _ | Value.Varr _) ->
      false
  | _ -> compare a b = 0

let frame_snapshot_equal (a : frame_snapshot) (b : frame_snapshot) =
  a.fs_method = b.fs_method && a.fs_pc = b.fs_pc && a.fs_sp = b.fs_sp
  && Array.length a.fs_locals = Array.length b.fs_locals
  && Array.for_all2 value_equal a.fs_locals b.fs_locals
  && Array.length a.fs_stack = Array.length b.fs_stack
  && Array.for_all2 value_equal a.fs_stack b.fs_stack

let materialized_equal (a : materialized) (b : materialized) =
  a.m_instructions = b.m_instructions
  && a.m_block = b.m_block
  && List.length a.m_frames = List.length b.m_frames
  && List.for_all2 frame_snapshot_equal a.m_frames b.m_frames

let run ?max_instructions ?on_block_state (layout : Layout.t)
    ~(on_block : Layout.gid -> unit) : result =
  finish (start ?max_instructions ?on_block_state layout ~on_block)

(* Convenience: run with no observer. *)
let run_plain ?max_instructions layout =
  run ?max_instructions layout ~on_block:(fun _ -> ())

let result_value r =
  match r.outcome with
  | Finished v -> v
  | Trapped (kind, msg) ->
      invalid_arg
        (Printf.sprintf "program trapped: %s (%s)"
           (error_kind_to_string kind)
           msg)
