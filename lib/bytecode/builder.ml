(* Two-phase program construction.

   Phase one: classes are declared with named fields and (selector, method)
   pairs; methods are assembled from pseudo-instructions carrying symbolic
   labels, method names, class names, selectors and field names.

   Phase two ([link]): names are resolved to identifiers — method ids, class
   ids, global selector slots and field slots (inherited fields laid out
   first) — and labels to absolute instruction indices, producing a
   {!Program.t}. *)

type label = int

type pseudo =
  | P of Instr.t
  | P_if_icmp of Instr.cond * label
  | P_ifz of Instr.cond * label
  | P_goto of label
  | P_tableswitch of int * label array * label
  | P_invokestatic of string
  | P_invokevirtual of string (* selector name *)
  | P_new of string
  | P_getfield of string * string (* class name, field name *)
  | P_putfield of string * string
  | P_instanceof of string

type class_decl = {
  c_name : string;
  c_super : string option;
  c_fields : (string * Klass.field_kind) list;
    (* own fields only; inherited come from super *)
  c_methods : (string * string) list; (* selector, method name *)
}

type handler_decl = {
  hd_from : label;
  hd_to : label;
  hd_target : label;
  hd_class : string;
}

type method_decl = {
  m_name : string;
  m_kind : Mthd.kind;
  m_returns : Mthd.return_type;
  m_n_args : int;
  m_n_locals : int;
  m_code : pseudo array;
  m_label_pcs : int array; (* label id -> resolved pc *)
  m_handlers : handler_decl list; (* innermost first *)
}

type t = {
  mutable classes : class_decl list; (* reverse order *)
  mutable methods : method_decl list; (* reverse order *)
}

type meth = {
  owner : t;
  name : string;
  kind : Mthd.kind;
  returns : Mthd.return_type;
  n_args : int;
  mutable n_locals : int;
  mutable code_rev : pseudo list;
  mutable code_len : int;
  mutable labels : (int * int) list; (* label id, pc; -1 = unplaced *)
  mutable next_label : int;
  mutable handlers_rev : handler_decl list;
}

let create () = { classes = []; methods = [] }

let declare_class t ~name ?super ~fields ~methods () =
  if List.exists (fun c -> String.equal c.c_name name) t.classes then
    invalid_arg (Printf.sprintf "Builder.declare_class: duplicate class %s" name);
  t.classes <-
    { c_name = name; c_super = super; c_fields = fields; c_methods = methods }
    :: t.classes

let begin_method t ~name ?(kind = Mthd.Static) ?(returns = Mthd.Rvoid)
    ~n_args ~n_locals () =
  if n_locals < n_args then
    invalid_arg "Builder.begin_method: n_locals < n_args";
  if kind = Mthd.Virtual && n_args < 1 then
    invalid_arg "Builder.begin_method: a virtual method's n_args < 1";
  if List.exists (fun m -> String.equal m.m_name name) t.methods then
    invalid_arg (Printf.sprintf "Builder.begin_method: duplicate method %s" name);
  {
    owner = t;
    name;
    kind;
    returns;
    n_args;
    n_locals;
    code_rev = [];
    code_len = 0;
    labels = [];
    next_label = 0;
    handlers_rev = [];
  }

let new_label (m : meth) =
  let l = m.next_label in
  m.next_label <- l + 1;
  m.labels <- (l, -1) :: m.labels;
  l

let place (m : meth) (l : label) =
  match List.assoc_opt l m.labels with
  | None -> invalid_arg "Builder.place: unknown label"
  | Some pc when pc >= 0 -> invalid_arg "Builder.place: label placed twice"
  | Some _ ->
      m.labels <-
        List.map (fun (l', pc) -> if l' = l then (l', m.code_len) else (l', pc))
          m.labels

let emit (m : meth) (p : pseudo) =
  m.code_rev <- p :: m.code_rev;
  m.code_len <- m.code_len + 1

(* Common emission helpers so call sites read like assembly. *)
let i m x = emit m (P x)
let iconst m n = i m (Instr.Iconst n)
let fconst m f = i m (Instr.Fconst f)
let iinc m l d = i m (Instr.Iinc (l, d))
let if_icmp m c l = emit m (P_if_icmp (c, l))
let ifz m c l = emit m (P_ifz (c, l))
let goto m l = emit m (P_goto l)
let tableswitch m ~low ~targets ~default =
  emit m (P_tableswitch (low, targets, default))
let invokestatic m name = emit m (P_invokestatic name)
let invokevirtual m selector = emit m (P_invokevirtual selector)
let new_object m cls = emit m (P_new cls)
let getfield m cls fld = emit m (P_getfield (cls, fld))
let putfield m cls fld = emit m (P_putfield (cls, fld))
let instanceof m cls = emit m (P_instanceof cls)
let athrow m = i m Instr.Athrow

(* Register an exception handler: pcs in [from_, to_) protected, control
   transferred to [target] (exception object on the stack) for exceptions
   of class [cls] or a subclass.  Handlers registered first are searched
   first, so register inner regions before outer ones. *)
let add_handler m ~from_ ~to_ ~target ~cls =
  m.handlers_rev <-
    { hd_from = from_; hd_to = to_; hd_target = target; hd_class = cls }
    :: m.handlers_rev

let finish_method (m : meth) =
  let code = Array.of_list (List.rev m.code_rev) in
  let label_pcs = Array.make m.next_label (-1) in
  List.iter
    (fun (l, pc) ->
      if pc < 0 then
        invalid_arg
          (Printf.sprintf "Builder.finish_method(%s): label %d never placed"
             m.name l);
      label_pcs.(l) <- pc)
    m.labels;
  (* Labels placed at the very end of the method would resolve past the
     code array; that is a builder bug surfaced at link time by the
     verifier, but catch the obvious case here. *)
  Array.iter
    (fun pc ->
      if pc > Array.length code then
        invalid_arg
          (Printf.sprintf "Builder.finish_method(%s): label beyond code end"
             m.name))
    label_pcs;
  m.owner.methods <-
    {
      m_name = m.name;
      m_kind = m.kind;
      m_returns = m.returns;
      m_n_args = m.n_args;
      m_n_locals = m.n_locals;
      m_code = code;
      m_label_pcs = label_pcs;
      m_handlers = List.rev m.handlers_rev;
    }
    :: m.owner.methods

(* ------------------------------------------------------------------ *)
(* Linking                                                              *)
(* ------------------------------------------------------------------ *)

let link (t : t) ~entry : Program.t =
  let classes = Array.of_list (List.rev t.classes) in
  let methods = Array.of_list (List.rev t.methods) in
  let method_id name =
    let rec go i =
      if i >= Array.length methods then
        invalid_arg (Printf.sprintf "Builder.link: unknown method %s" name)
      else if String.equal methods.(i).m_name name then i
      else go (i + 1)
    in
    go 0
  in
  let class_id name =
    let rec go i =
      if i >= Array.length classes then
        invalid_arg (Printf.sprintf "Builder.link: unknown class %s" name)
      else if String.equal classes.(i).c_name name then i
      else go (i + 1)
    in
    go 0
  in
  (* Global selector slots: every selector mentioned in any class. *)
  let selector_tbl = Hashtbl.create 16 in
  let selectors_rev = ref [] in
  let selector_slot name =
    match Hashtbl.find_opt selector_tbl name with
    | Some s -> s
    | None ->
        let s = Hashtbl.length selector_tbl in
        Hashtbl.add selector_tbl name s;
        selectors_rev := name :: !selectors_rev;
        s
  in
  Array.iter
    (fun c -> List.iter (fun (sel, _) -> ignore (selector_slot sel)) c.c_methods)
    classes;
  (* Field layouts, superclass fields first, memoized over the hierarchy. *)
  let layouts : (string * Klass.field_kind) array option array =
    Array.make (Array.length classes) None
  in
  let rec layout cid =
    match layouts.(cid) with
    | Some l -> l
    | None ->
        let c = classes.(cid) in
        let inherited =
          match c.c_super with
          | None -> [||]
          | Some s -> layout (class_id s)
        in
        let l = Array.append inherited (Array.of_list c.c_fields) in
        Array.iteri
          (fun i (f, _) ->
            for j = i + 1 to Array.length l - 1 do
              if String.equal (fst l.(j)) f then
                invalid_arg
                  (Printf.sprintf
                     "Builder.link: class %s: duplicate field %s in layout"
                     c.c_name f)
            done)
          l;
        layouts.(cid) <- Some l;
        l
  in
  let n_selectors = Hashtbl.length selector_tbl in
  (* Vtables with inheritance: copy super's, then apply own overrides. *)
  let vtables : int array option array = Array.make (Array.length classes) None in
  let rec vtable cid =
    match vtables.(cid) with
    | Some v -> v
    | None ->
        let c = classes.(cid) in
        let v =
          match c.c_super with
          | None -> Array.make n_selectors (-1)
          | Some s -> Array.copy (vtable (class_id s))
        in
        List.iter
          (fun (sel, mname) ->
            let m = method_id mname in
            if methods.(m).m_kind <> Mthd.Virtual then
              invalid_arg
                (Printf.sprintf
                   "Builder.link: class %s binds selector %s to non-virtual %s"
                   c.c_name sel mname);
            v.(selector_slot sel) <- m)
          c.c_methods;
        vtables.(cid) <- Some v;
        v
  in
  let linked_classes =
    Array.mapi
      (fun cid c ->
        let l = layout cid in
        {
          Klass.id = cid;
          name = c.c_name;
          super = Option.map class_id c.c_super;
          field_names = Array.map fst l;
          field_kinds = Array.map snd l;
          vtable = vtable cid;
        })
      classes
  in
  let resolve_field cname fname =
    let cid = class_id cname in
    match Klass.field_slot linked_classes.(cid) fname with
    | Some slot -> (cid, slot)
    | None ->
        invalid_arg
          (Printf.sprintf "Builder.link: class %s has no field %s" cname fname)
  in
  let link_method (md : method_decl) id : Mthd.t =
    let lbl l =
      let pc = md.m_label_pcs.(l) in
      if pc < 0 || pc >= Array.length md.m_code then
        invalid_arg
          (Printf.sprintf "Builder.link(%s): label resolves outside code"
             md.m_name);
      pc
    in
    let code =
      Array.map
        (function
          | P x -> x
          | P_if_icmp (c, l) -> Instr.If_icmp (c, lbl l)
          | P_ifz (c, l) -> Instr.Ifz (c, lbl l)
          | P_goto l -> Instr.Goto (lbl l)
          | P_tableswitch (low, targets, default) ->
              Instr.Tableswitch
                { low; targets = Array.map lbl targets; default = lbl default }
          | P_invokestatic name -> Instr.Invokestatic (method_id name)
          | P_invokevirtual sel ->
              (match Hashtbl.find_opt selector_tbl sel with
              | Some slot -> Instr.Invokevirtual slot
              | None ->
                  invalid_arg
                    (Printf.sprintf
                       "Builder.link(%s): selector %s bound by no class"
                       md.m_name sel))
          | P_new cname -> Instr.New (class_id cname)
          | P_getfield (c, f) ->
              let cid, slot = resolve_field c f in
              Instr.Getfield (cid, slot)
          | P_putfield (c, f) ->
              let cid, slot = resolve_field c f in
              Instr.Putfield (cid, slot)
          | P_instanceof c -> Instr.Instanceof (class_id c))
        md.m_code
    in
    let resolve_handler_label l =
      let pc = md.m_label_pcs.(l) in
      if pc < 0 || pc > Array.length md.m_code then
        invalid_arg
          (Printf.sprintf "Builder.link(%s): handler label out of range"
             md.m_name);
      pc
    in
    let handlers =
      Array.of_list
        (List.map
           (fun hd ->
             let h_from = resolve_handler_label hd.hd_from in
             let h_to = resolve_handler_label hd.hd_to in
             let h_target = lbl hd.hd_target in
             if h_from >= h_to then
               invalid_arg
                 (Printf.sprintf "Builder.link(%s): empty handler range"
                    md.m_name);
             {
               Mthd.h_from;
               h_to;
               h_target;
               h_class = class_id hd.hd_class;
             })
           md.m_handlers)
    in
    {
      Mthd.id;
      name = md.m_name;
      kind = md.m_kind;
      n_args = md.m_n_args;
      n_locals = md.m_n_locals;
      returns = md.m_returns;
      code;
      handlers;
    }
  in
  let linked_methods = Array.mapi (fun id md -> link_method md id) methods in
  let entry_id = method_id entry in
  let em = linked_methods.(entry_id) in
  if em.Mthd.kind <> Mthd.Static || em.Mthd.n_args <> 0 then
    invalid_arg "Builder.link: entry must be a zero-argument static method";
  let selectors = Array.of_list (List.rev !selectors_rev) in
  {
    Program.methods = linked_methods;
    classes = linked_classes;
    selectors;
    entry = entry_id;
  }
