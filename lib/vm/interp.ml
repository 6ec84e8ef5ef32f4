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

(* A call frame: a window of its handle's one shared stack, as in SableVM
   and the JVM.  The window holds the frame's locals in [lbase, base) and
   its operands in [base, sp).  A call leaves its arguments where the
   caller pushed them, and they become the callee's leading locals, so a
   frame owns no storage.  The verifier bounds stack growth statically,
   so [max_stack] is a generous per-window cap on operands, checked only
   on push.

   Frames are not allocated per call: each handle keeps one frame per
   call depth in [state.frames], and a call overwrites the fields of the
   frame at its depth.  A frame's [caller] is the pooled frame one depth
   below, linked once when the pool grows; the entry frame is its own
   caller, and the state's [depth], not the link, says where the chain
   ends. *)
type frame = {
  mutable meth : Mthd.t;
  mutable lbase : int; (* local 0's slot in the shared stack *)
  mutable base : int; (* the first operand slot: [lbase + max 1 n_locals] *)
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

(* Typed slots.  Slot [i] of the shared stack is the tag byte [tags.[i]]
   and a payload in the array that tag names: an int or a float is kept
   raw, so pushing one neither allocates nor runs the write barrier, and
   only a reference ([Vnull], [Vobj] or [Varr]) sits boxed in [refs].
   The four arrays always have the same length and double together.  A
   payload array's entry under another tag is stale and never read.
   Every slot below a live frame's [sp] is in bounds, which is what lets
   the slot accessors below skip the bounds check.

   The frame pool keeps [frames.(0)] as the entry frame, its own caller,
   and [frames.(k).caller == frames.(k - 1)] above it; while [depth > 0],
   [top == frames.(depth - 1)].  The frames above [top] are free, and
   their fields are stale until a call overwrites them. *)
type state = {
  layout : Layout.t;
  program : Program.t;
  arity : int array; (* selector slot -> argument count, -1 if unbound *)
  mutable tags : Bytes.t;
  mutable ints : int array;
  mutable floats : Float.Array.t;
  mutable refs : Value.t array;
  mutable frames : frame array; (* the pool: [frames.(d - 1)] at depth d *)
  mutable top : frame; (* the running frame, while [depth > 0] *)
  mutable depth : int; (* live frames; 0 once the entry method returned *)
  mutable returned : Value.t option;
  mutable instructions : int;
  mutable block_dispatches : int;
  max_instructions : int;
  on_block : Layout.gid -> unit;
}

let t_int = '\000'

let t_float = '\001'

let t_ref = '\002'

let[@inline never] grow st =
  let n = Bytes.length st.tags in
  let tags = Bytes.make (2 * n) t_int in
  Bytes.blit st.tags 0 tags 0 n;
  let ints = Array.make (2 * n) 0 in
  Array.blit st.ints 0 ints 0 n;
  let floats = Float.Array.make (2 * n) 0.0 in
  Float.Array.blit st.floats 0 floats 0 n;
  let refs = Array.make (2 * n) Value.Vnull in
  Array.blit st.refs 0 refs 0 n;
  st.tags <- tags;
  st.ints <- ints;
  st.floats <- floats;
  st.refs <- refs

(* Grow until slots [0, n) exist. *)
let reserve st n =
  while Bytes.length st.tags < n do
    grow st
  done

(* The value slot [i] holds, boxed: only where a value leaves the stack,
   for an object field or a boxed array cell, a trap message, a
   snapshot, an observer or the entry method's caller. *)
let value_at st i =
  let t = Bytes.unsafe_get st.tags i in
  if t = t_int then Value.Vint (Array.unsafe_get st.ints i)
  else if t = t_float then Value.Vfloat (Float.Array.unsafe_get st.floats i)
  else Array.unsafe_get st.refs i

(* Slots [lo, hi), boxed. *)
let slots st lo hi = Array.init (hi - lo) (fun i -> value_at st (lo + i))

(* Store [v] unboxed in slot [i]: where a value enters the stack. *)
let[@inline] set_value st i (v : Value.t) =
  match v with
  | Value.Vint n ->
      Bytes.unsafe_set st.tags i t_int;
      Array.unsafe_set st.ints i n
  | Value.Vfloat f ->
      Bytes.unsafe_set st.tags i t_float;
      Float.Array.unsafe_set st.floats i f
  | Value.Vnull | Value.Vobj _ | Value.Varr _ ->
      Bytes.unsafe_set st.tags i t_ref;
      Array.unsafe_set st.refs i v

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

let[@inline never] expected_at st what i = expected what (value_at st i)

let[@inline never] null_access what = die Null_pointer "%s access on null" what

let[@inline never] out_of_bounds i n =
  die Array_bounds "index %d, length %d" i n

let[@inline never] over_budget limit =
  die Instruction_budget "exceeded %d instructions" limit

(* What indexing an array out of its bounds raised, where the frame's
   locals and the stack were arrays of their own. *)
let[@inline never] bad_index () = invalid_arg "index out of bounds"

let[@inline never] iinc_on st i =
  die Type_confusion "iinc on %s" (Value.to_string (value_at st i))

(* [Method_cfg.build] makes a block's last instruction its only
   terminator, so this is unreachable. *)
let[@inline never] misplaced_terminator () =
  invalid_arg "Interp.exec_block: a terminator is not last in its block"

(* Copy slot [src] to slot [dst], whatever its tag. *)
let[@inline] copy_slot st src dst =
  let t = Bytes.unsafe_get st.tags src in
  Bytes.unsafe_set st.tags dst t;
  if t = t_int then Array.unsafe_set st.ints dst (Array.unsafe_get st.ints src)
  else if t = t_float then
    Float.Array.unsafe_set st.floats dst (Float.Array.unsafe_get st.floats src)
  else Array.unsafe_set st.refs dst (Array.unsafe_get st.refs src)

(* Claim the next operand slot of [fr]'s window and return it. *)
let[@inline] push_slot st fr =
  let sp = fr.sp in
  if sp - fr.base >= max_stack then overflow ();
  if sp >= Bytes.length st.tags then grow st;
  fr.sp <- sp + 1;
  sp

let[@inline] push_int st fr n =
  let sp = push_slot st fr in
  Bytes.unsafe_set st.tags sp t_int;
  Array.unsafe_set st.ints sp n

let[@inline] push_float st fr f =
  let sp = push_slot st fr in
  Bytes.unsafe_set st.tags sp t_float;
  Float.Array.unsafe_set st.floats sp f

let[@inline] push_ref st fr (v : Value.t) =
  let sp = push_slot st fr in
  Bytes.unsafe_set st.tags sp t_ref;
  Array.unsafe_set st.refs sp v

let[@inline] push_value st fr v = set_value st (push_slot st fr) v

let[@inline] push_copy st fr src = copy_slot st src (push_slot st fr)

(* Release the top operand's slot and return it. *)
let[@inline] pop_slot fr =
  let sp = fr.sp - 1 in
  if sp < fr.base then underflow ();
  fr.sp <- sp;
  sp

let[@inline] pop_int st fr =
  let sp = pop_slot fr in
  if Bytes.unsafe_get st.tags sp <> t_int then expected_at st "int" sp;
  Array.unsafe_get st.ints sp

let[@inline] pop_float st fr =
  let sp = pop_slot fr in
  if Bytes.unsafe_get st.tags sp <> t_float then expected_at st "float" sp;
  Float.Array.unsafe_get st.floats sp

(* The top operand's slot, holding an int or a float: an arithmetic
   instruction writes its result there, over its (left) operand, with
   the checks popping that operand made. *)
let[@inline] top_int st fr =
  let sp = fr.sp - 1 in
  if sp < fr.base then underflow ();
  if Bytes.unsafe_get st.tags sp <> t_int then expected_at st "int" sp;
  sp

let[@inline] top_float st fr =
  let sp = fr.sp - 1 in
  if sp < fr.base then underflow ();
  if Bytes.unsafe_get st.tags sp <> t_float then expected_at st "float" sp;
  sp

let[@inline] pop_value st fr =
  let sp = pop_slot fr in
  if Bytes.unsafe_get st.tags sp = t_ref then Array.unsafe_get st.refs sp
  else value_at st sp

let[@inline] pop_obj st fr =
  match pop_value st fr with
  | Value.Vobj o -> o
  | Value.Vnull -> null_access "field"
  | v -> expected "object" v

let[@inline] pop_arr st fr =
  match pop_value st fr with
  | Value.Varr a -> a
  | Value.Vnull -> null_access "array"
  | v -> expected "array" v

let[@inline] check_bounds (a : Value.arr) i =
  let n = Value.length a in
  if i < 0 || i >= n then out_of_bounds i n

(* An ill-typed array store, which only an unverified program makes: a
   value that is not the raw element type of [a]'s cells, or any store
   into boxed cells but [Aastore]'s reference.  [a]'s cells turn [Boxed]
   for good, holding the same values, and [v] is stored there, as it was
   when every array's cells were boxed. *)
let[@inline never] store_boxed (a : Value.arr) i (v : Value.t) =
  let boxed cells =
    a.Value.cells <- Value.Boxed cells;
    cells
  in
  let cells =
    match a.Value.cells with
    | Value.Boxed c -> c
    | Value.Ints c -> boxed (Array.map (fun n -> Value.Vint n) c)
    | Value.Floats c ->
        boxed
          (Array.init (Float.Array.length c) (fun k ->
               Value.Vfloat (Float.Array.get c k)))
  in
  cells.(i) <- v

(* Local [n]'s slot.  An index outside the method's locals raises what
   indexing the locals array raised, rather than reaching an operand. *)
let[@inline] local fr n =
  if n < 0 || n >= fr.base - fr.lbase then bad_index ();
  fr.lbase + n

(* Double the frame pool, linking each new frame to the one below it. *)
let[@inline never] grow_frames st =
  let n = Array.length st.frames in
  let frames = Array.make (2 * n) st.frames.(0) in
  Array.blit st.frames 0 frames 0 n;
  for k = n to (2 * n) - 1 do
    let below = frames.(k - 1) in
    frames.(k) <- { below with caller = below }
  done;
  st.frames <- frames

(* Invoke: the top [n_args] operands of the caller's window stay where
   they are and become the callee's leading locals (receiver in local 0
   for virtual methods); its other locals are cleared to int 0, and its
   operands start right above them.  With too few operands this traps
   as popping them one by one did, and with more arguments than locals
   it raises what storing past the locals array raised.  The callee runs
   in the pooled frame one depth above [caller], which is [st.top]. *)
let setup_call st (caller : frame) (callee_m : Mthd.t) =
  let depth = st.depth in
  if depth >= max_frames then die Stack_overflow "too many frames";
  let n_args = Int.max 0 callee_m.Mthd.n_args in
  let n_locals = Int.max 1 callee_m.Mthd.n_locals in
  if n_args > n_locals && caller.sp > caller.base then bad_index ();
  if caller.sp - caller.base < n_args then underflow ();
  let lbase = caller.sp - n_args in
  let base = lbase + n_locals in
  if base > Bytes.length st.tags then reserve st base;
  for i = lbase + n_args to base - 1 do
    Bytes.unsafe_set st.tags i t_int;
    Array.unsafe_set st.ints i 0
  done;
  caller.sp <- lbase;
  if depth >= Array.length st.frames then grow_frames st;
  let f = Array.unsafe_get st.frames depth in
  f.meth <- callee_m;
  f.lbase <- lbase;
  f.base <- base;
  f.sp <- base;
  f.pc <- 0;
  st.top <- f;
  st.depth <- depth + 1

let receiver_class st (caller : frame) n_args =
  (* receiver sits below the arguments, inside the caller's window *)
  let idx = caller.sp - n_args in
  if idx < caller.base then die Type_confusion "missing receiver";
  if idx >= Bytes.length st.tags then bad_index ();
  match value_at st idx with
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

(* A block's straight-line instructions: every instruction but the
   terminators.  Top-level rather than local to [exec_block], so that
   inlining it there allocates no closure.  A load or store takes a fast
   path for its verified type and copies any other tag as it is, so an
   unverified program moves whatever the slot holds. *)
let[@inline] exec_ordinary st fr (ins : Instr.t) =
  match ins with
  | Instr.Iconst n -> push_int st fr n
  | Instr.Fconst f -> push_float st fr f
  | Instr.Aconst_null -> push_ref st fr Value.Vnull
  | Instr.Iload n ->
      let l = local fr n in
      if Bytes.unsafe_get st.tags l = t_int then
        push_int st fr (Array.unsafe_get st.ints l)
      else push_copy st fr l
  | Instr.Fload n ->
      let l = local fr n in
      if Bytes.unsafe_get st.tags l = t_float then
        push_float st fr (Float.Array.unsafe_get st.floats l)
      else push_copy st fr l
  | Instr.Aload n -> push_copy st fr (local fr n)
  | Instr.Istore n ->
      let sp = pop_slot fr in
      let l = local fr n in
      if Bytes.unsafe_get st.tags sp = t_int then (
        Bytes.unsafe_set st.tags l t_int;
        Array.unsafe_set st.ints l (Array.unsafe_get st.ints sp))
      else copy_slot st sp l
  | Instr.Fstore n ->
      let sp = pop_slot fr in
      let l = local fr n in
      if Bytes.unsafe_get st.tags sp = t_float then (
        Bytes.unsafe_set st.tags l t_float;
        Float.Array.unsafe_set st.floats l
          (Float.Array.unsafe_get st.floats sp))
      else copy_slot st sp l
  | Instr.Astore n ->
      let sp = pop_slot fr in
      copy_slot st sp (local fr n)
  | Instr.Iinc (n, d) ->
      let l = local fr n in
      if Bytes.unsafe_get st.tags l <> t_int then iinc_on st l;
      Array.unsafe_set st.ints l (Array.unsafe_get st.ints l + d)
  | Instr.Dup ->
      if fr.sp <= fr.base then underflow ();
      push_copy st fr (fr.sp - 1)
  | Instr.Pop -> ignore (pop_slot fr)
  | Instr.Swap ->
      let a = pop_value st fr in
      let b = pop_value st fr in
      push_value st fr a;
      push_value st fr b
  | Instr.Iadd ->
      let b = pop_int st fr in
      let a = top_int st fr in
      Array.unsafe_set st.ints a (Array.unsafe_get st.ints a + b)
  | Instr.Isub ->
      let b = pop_int st fr in
      let a = top_int st fr in
      Array.unsafe_set st.ints a (Array.unsafe_get st.ints a - b)
  | Instr.Imul ->
      let b = pop_int st fr in
      let a = top_int st fr in
      Array.unsafe_set st.ints a (Array.unsafe_get st.ints a * b)
  | Instr.Idiv ->
      let b = pop_int st fr in
      if b = 0 then die Division_by_zero "idiv";
      let a = top_int st fr in
      Array.unsafe_set st.ints a (Array.unsafe_get st.ints a / b)
  | Instr.Irem ->
      let b = pop_int st fr in
      if b = 0 then die Division_by_zero "irem";
      let a = top_int st fr in
      Array.unsafe_set st.ints a (Array.unsafe_get st.ints a mod b)
  | Instr.Ineg ->
      let a = top_int st fr in
      Array.unsafe_set st.ints a (-Array.unsafe_get st.ints a)
  | Instr.Iand ->
      let b = pop_int st fr in
      let a = top_int st fr in
      Array.unsafe_set st.ints a (Array.unsafe_get st.ints a land b)
  | Instr.Ior ->
      let b = pop_int st fr in
      let a = top_int st fr in
      Array.unsafe_set st.ints a (Array.unsafe_get st.ints a lor b)
  | Instr.Ixor ->
      let b = pop_int st fr in
      let a = top_int st fr in
      Array.unsafe_set st.ints a (Array.unsafe_get st.ints a lxor b)
  | Instr.Ishl ->
      let b = pop_int st fr in
      let a = top_int st fr in
      Array.unsafe_set st.ints a (Array.unsafe_get st.ints a lsl (b land 63))
  | Instr.Ishr ->
      let b = pop_int st fr in
      let a = top_int st fr in
      Array.unsafe_set st.ints a (Array.unsafe_get st.ints a asr (b land 63))
  | Instr.Iushr ->
      let b = pop_int st fr in
      let a = top_int st fr in
      Array.unsafe_set st.ints a (Array.unsafe_get st.ints a lsr (b land 63))
  | Instr.Fadd ->
      let b = pop_float st fr in
      let a = top_float st fr in
      Float.Array.unsafe_set st.floats a
        (Float.Array.unsafe_get st.floats a +. b)
  | Instr.Fsub ->
      let b = pop_float st fr in
      let a = top_float st fr in
      Float.Array.unsafe_set st.floats a
        (Float.Array.unsafe_get st.floats a -. b)
  | Instr.Fmul ->
      let b = pop_float st fr in
      let a = top_float st fr in
      Float.Array.unsafe_set st.floats a
        (Float.Array.unsafe_get st.floats a *. b)
  | Instr.Fdiv ->
      let b = pop_float st fr in
      let a = top_float st fr in
      Float.Array.unsafe_set st.floats a
        (Float.Array.unsafe_get st.floats a /. b)
  | Instr.Fneg ->
      let a = top_float st fr in
      Float.Array.unsafe_set st.floats a (-.Float.Array.unsafe_get st.floats a)
  | Instr.F2i -> push_int st fr (int_of_float (pop_float st fr))
  | Instr.I2f -> push_float st fr (float_of_int (pop_int st fr))
  | Instr.Fcmp ->
      let b = pop_float st fr in
      let a = pop_float st fr in
      push_int st fr (compare a b)
  | Instr.New cid ->
      let k = Program.class_by_id st.program cid in
      let fields = Array.map Value.default_of_field_kind k.Klass.field_kinds in
      push_ref st fr (Value.Vobj { Value.cls = cid; fields })
  | Instr.Getfield (_, slot) ->
      let o = pop_obj st fr in
      if slot >= Array.length o.Value.fields then
        die Type_confusion "field slot %d out of range" slot;
      push_value st fr o.Value.fields.(slot)
  | Instr.Putfield (_, slot) ->
      let v = pop_value st fr in
      let o = pop_obj st fr in
      if slot >= Array.length o.Value.fields then
        die Type_confusion "field slot %d out of range" slot;
      o.Value.fields.(slot) <- v
  | Instr.Instanceof cid -> (
      match pop_value st fr with
      | Value.Vobj o ->
          let yes =
            Klass.is_subclass_of st.program.Program.classes
              ~sub:o.Value.cls ~super:cid
          in
          push_int st fr (if yes then 1 else 0)
      | Value.Vnull -> push_int st fr 0
      | v -> die Type_confusion "instanceof on %s" (Value.to_string v))
  | Instr.Newarray kind ->
      let n = pop_int st fr in
      if n < 0 then die Array_bounds "negative array length %d" n;
      let cells =
        match kind with
        | Instr.Int_array -> Value.Ints (Array.make n 0)
        | Instr.Float_array -> Value.Floats (Float.Array.make n 0.0)
        | Instr.Ref_array -> Value.Boxed (Array.make n Value.Vnull)
      in
      push_ref st fr (Value.Varr { Value.kind; cells })
  (* A load pushes what the cell holds, whichever load it is; a store of
     the cells' own type writes it raw, and any other goes through
     [store_boxed]. *)
  | Instr.Iaload | Instr.Faload | Instr.Aaload -> (
      let i = pop_int st fr in
      let a = pop_arr st fr in
      check_bounds a i;
      match a.Value.cells with
      | Value.Ints c -> push_int st fr (Array.unsafe_get c i)
      | Value.Floats c -> push_float st fr (Float.Array.unsafe_get c i)
      | Value.Boxed c -> push_value st fr (Array.unsafe_get c i))
  | Instr.Iastore -> (
      let v = pop_int st fr in
      let i = pop_int st fr in
      let a = pop_arr st fr in
      check_bounds a i;
      match a.Value.cells with
      | Value.Ints c -> Array.unsafe_set c i v
      | _ -> store_boxed a i (Value.Vint v))
  | Instr.Fastore -> (
      let v = pop_float st fr in
      let i = pop_int st fr in
      let a = pop_arr st fr in
      check_bounds a i;
      match a.Value.cells with
      | Value.Floats c -> Float.Array.unsafe_set c i v
      | _ -> store_boxed a i (Value.Vfloat v))
  | Instr.Aastore -> (
      let sp = pop_slot fr in
      let i = pop_int st fr in
      let a = pop_arr st fr in
      check_bounds a i;
      let t = Bytes.unsafe_get st.tags sp in
      match a.Value.cells with
      | Value.Boxed c when t = t_ref ->
          Array.unsafe_set c i (Array.unsafe_get st.refs sp)
      | Value.Ints c when t = t_int ->
          Array.unsafe_set c i (Array.unsafe_get st.ints sp)
      | Value.Floats c when t = t_float ->
          Float.Array.unsafe_set c i (Float.Array.unsafe_get st.floats sp)
      | _ -> store_boxed a i (value_at st sp))
  | Instr.Arraylength ->
      let a = pop_arr st fr in
      push_int st fr (Value.length a)
  | Instr.Nop -> ()
  | Instr.If_icmp _ | Instr.Ifz _ | Instr.Goto _ | Instr.Tableswitch _
  | Instr.Invokestatic _ | Instr.Invokevirtual _ | Instr.Return
  | Instr.Ireturn | Instr.Freturn | Instr.Areturn | Instr.Athrow ->
      misplaced_terminator ()

(* Execute exactly one basic block from the current frame/pc: one
   dispatch, the observer hook, the block's instructions, and its
   terminator.  A no-op once the entry method has returned.  Each
   instruction goes through one match: the straight-line ones through
   [exec_ordinary], then the terminator, if [Block.term] says there is
   one, through the match below. *)
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
    step_budget st b.Block.len;
    let code = fr.meth.Mthd.code in
    let last = Block.last_pc b in
    let falls =
      match b.Block.term with Block.T_fallthrough _ -> true | _ -> false
    in
    for pc = fr.pc to (if falls then last else last - 1) do
      exec_ordinary st fr code.(pc)
    done;
    if falls then fr.pc <- last + 1
    else
      match code.(last) with
      | Instr.If_icmp (c, target) ->
          let b2 = pop_int st fr in
          let n = compare (pop_int st fr) b2 in
          fr.pc <- (if Instr.eval_cond c n then target else last + 1)
      | Instr.Ifz (c, target) ->
          let a = pop_int st fr in
          fr.pc <- (if Instr.eval_cond c a then target else last + 1)
      | Instr.Goto target -> fr.pc <- target
      | Instr.Tableswitch { low; targets; default } ->
          let i = pop_int st fr - low in
          fr.pc <-
            (if i >= 0 && i < Array.length targets then targets.(i)
             else default)
      | Instr.Invokestatic mid2 ->
          fr.pc <- last + 1;
          let callee_m = Program.method_by_id st.program mid2 in
          setup_call st fr callee_m
      | Instr.Invokevirtual slot ->
          fr.pc <- last + 1;
          let callee_m = resolve_virtual st fr slot in
          setup_call st fr callee_m
      | Instr.Athrow ->
          (* unwind: find the innermost covering handler, searching the
             current frame at the throw pc and callers at their call
             sites *)
          let exc = pop_value st fr in
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
                push_ref st f exc;
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
          unwind fr st.depth last
      | Instr.Return ->
          st.top <- fr.caller;
          st.depth <- st.depth - 1;
          if st.depth = 0 then st.returned <- None
      | Instr.Ireturn | Instr.Freturn | Instr.Areturn ->
          let src = pop_slot fr in
          st.top <- fr.caller;
          st.depth <- st.depth - 1;
          if st.depth > 0 then push_copy st fr.caller src
          else st.returned <- Some (value_at st src)
      | _ -> misplaced_terminator ()

(* Resumable execution.  A handle owns the interpreter state and absorbs
   a [Runtime_error] raised mid-step into a pending [Trapped] outcome, so
   interleaved drivers (the [Session] layer) never see the exception. *)
type handle = { h_st : state; mutable h_trap : (error_kind * string) option }

let start ?(max_instructions = max_int) (layout : Layout.t)
    ~(on_block : Layout.gid -> unit) : handle =
  let program = layout.Layout.program in
  let entry = Program.entry_method program in
  (* the entry method takes no arguments: every local starts as int 0 *)
  let base = Int.max 1 entry.Mthd.n_locals in
  let rec bottom =
    { meth = entry; lbase = 0; base; sp = base; pc = 0; caller = bottom }
  in
  let st =
    {
      layout;
      program;
      arity = selector_arities program;
      tags = Bytes.make 64 t_int;
      ints = Array.make 64 0;
      floats = Float.Array.make 64 0.0;
      refs = Array.make 64 Value.Vnull;
      frames = [| bottom |];
      top = bottom;
      depth = 1;
      returned = None;
      instructions = 0;
      block_dispatches = 0;
      max_instructions;
      on_block;
    }
  in
  reserve st base;
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
   at a block boundary.  A deopt compares only the snapshot's block with
   the block dispatch resumes at (TL219 on a mismatch). *)

type frame_snapshot = {
  fs_method : int;
  fs_pc : int;
  fs_sp : int;
  fs_locals : Value.t array; (* slots [lbase, base) *)
  fs_stack : Value.t array; (* the frame's operands: slots [base, sp) *)
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
    fs_locals = slots st fr.lbase fr.base;
    fs_stack = slots st fr.base fr.sp;
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

let run ?max_instructions (layout : Layout.t) ~(on_block : Layout.gid -> unit)
    : result =
  finish (start ?max_instructions layout ~on_block)

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
