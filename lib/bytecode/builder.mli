(** Two-phase program construction: a symbolic assembler and linker.

    Phase one declares classes (named fields with kinds, selector/method
    bindings) and assembles methods from instructions whose control and
    reference operands are symbolic — labels, method names, class names,
    selectors, field names.

    Phase two ({!link}) resolves names to identifiers — method ids, class
    ids, global selector slots, field slots with inherited fields laid out
    first — and labels to absolute instruction indices, producing a
    {!Program.t}. *)

type t
(** A program under construction. *)

type meth
(** A method under construction. *)

type label

val create : unit -> t

val declare_class :
  t ->
  name:string ->
  ?super:string ->
  fields:(string * Klass.field_kind) list ->
  methods:(string * string) list ->
  unit ->
  unit
(** [fields] lists the class's own fields only (inherited fields come from
    [super]); [methods] binds selector names to virtual method names. *)

val begin_method :
  t ->
  name:string ->
  ?kind:Mthd.kind ->
  ?returns:Mthd.return_type ->
  n_args:int ->
  n_locals:int ->
  unit ->
  meth
(** A virtual method's [n_args] counts its receiver.
    @raise Invalid_argument if [n_locals < n_args], if a virtual method
    has [n_args < 1], or if [name] is already a method. *)

val new_label : meth -> label

val place : meth -> label -> unit
(** Bind the label to the next emitted instruction's index.
    @raise Invalid_argument if placed twice. *)

(** Emission helpers so call sites read like assembly: *)

val i : meth -> Instr.t -> unit

val iconst : meth -> int -> unit

val fconst : meth -> float -> unit

val iinc : meth -> int -> int -> unit

val if_icmp : meth -> Instr.cond -> label -> unit

val ifz : meth -> Instr.cond -> label -> unit

val goto : meth -> label -> unit

val tableswitch :
  meth -> low:int -> targets:label array -> default:label -> unit

val invokestatic : meth -> string -> unit

val invokevirtual : meth -> string -> unit
(** Argument is a selector name. *)

val new_object : meth -> string -> unit

val getfield : meth -> string -> string -> unit
(** Class name, field name. *)

val putfield : meth -> string -> string -> unit

val instanceof : meth -> string -> unit

val athrow : meth -> unit

val add_handler :
  meth -> from_:label -> to_:label -> target:label -> cls:string -> unit
(** Register an exception handler: pcs in [[from_, to_)] protected,
    control transferred to [target] (exception object as the only stack
    operand) for exceptions of class [cls] or a subclass.  Handlers
    registered first are searched first — register inner regions before
    outer ones. *)

val finish_method : meth -> unit
(** Register the assembled method with its program.
    @raise Invalid_argument on unplaced labels. *)

val link : t -> entry:string -> Program.t
(** Resolve all names and labels.
    @raise Invalid_argument on unknown names, duplicate fields, selector
    misuse, or a non-static / non-nullary entry. *)
