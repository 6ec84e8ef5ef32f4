(** A small structured language compiled to the stack bytecode.

    Workload programs are written against this AST.  The compiler performs
    local type checking (selecting between the int/float/ref instruction
    variants), lowers conditions to branches without materializing
    booleans, lowers loops bottom-tested (the back edge is the taken
    branch, as a Java compiler would emit), and resolves named locals to
    slots.  The language is deliberately Java-shaped: typed locals,
    virtual calls through selectors, fields resolved through a class's
    declared layout. *)

type ty =
  | I
  | F
  | R  (** object reference *)
  | Arr of ty

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Ushr

type cmp =
  | Ceq
  | Cne
  | Clt
  | Cle
  | Cgt
  | Cge

type expr =
  | Cint of int
  | Cflt of float
  | Cnull
  | Var of string
  | Bin of binop * expr * expr
  | Neg of expr
  | I2f_ of expr
  | F2i_ of expr
  | Cmp of cmp * expr * expr  (** int-valued 0/1 when materialized *)
  | Not of expr
  | And_also of expr * expr  (** short-circuit *)
  | Or_else of expr * expr  (** short-circuit *)
  | Call of string * expr list
  | Vcall of string * expr * expr list  (** selector, receiver, args *)
  | New_obj of string
  | Getf of string * string * expr  (** class, field, receiver *)
  | New_arr of ty * expr  (** element type, length *)
  | Idx of expr * expr  (** array, index *)
  | Len of expr
  | Is_instance of string * expr

type stmt =
  | Decl of string * ty * expr
      (** declare-and-initialize; redeclaring a name at the same type
          reuses its slot (flat function scope) *)
  | Set of string * expr
  | Set_idx of expr * expr * expr  (** array, index, value *)
  | Setf of string * string * expr * expr
      (** class, field, receiver, value *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Do_while of stmt list * expr
  | For of string * expr * expr * stmt list
      (** [For (v, lo, hi, body)]: v from lo while v < hi, step 1; v is
          implicitly declared as an int; [Continue] reaches the
          increment *)
  | Switch of expr * (int * stmt list) list * stmt list
      (** compiled to a tableswitch over the compact key range *)
  | Ret of expr option
  | Ignore of expr  (** evaluate for effect; void calls allowed *)
  | Break
  | Continue
  | Throw of expr  (** throw an object; must be a reference *)
  | Try of stmt list * string * string * stmt list
      (** [Try (body, cls, var, catch)]: run [body]; an exception whose
          class is [cls] or a subclass binds to the fresh local [var] and
          runs [catch].  Uncaught exceptions unwind to outer regions and
          callers. *)

type method_sig = {
  sig_args : ty list;  (** receiver excluded for virtual methods *)
  sig_ret : ty option;
}

type t
(** A compilation unit under construction. *)

exception Type_error of string

val create : unit -> t

val def_class :
  t ->
  name:string ->
  ?super:string ->
  fields:(string * ty) list ->
  methods:(string * string) list ->
  unit ->
  unit
(** Own fields only; [methods] binds selectors to virtual method names.
    All methods bound to one selector must share a signature. *)

val def_method :
  t ->
  name:string ->
  ?kind:Mthd.kind ->
  args:(string * ty) list ->
  ?ret:ty ->
  body:stmt list ->
  unit ->
  unit
(** Virtual methods get an implicit first local ["this" : R].  Methods may
    reference classes and methods defined later; everything resolves at
    {!link}. *)

val link : t -> entry:string -> Program.t
(** Type-check and compile every method body, then assemble and link.
    @raise Type_error on any typing violation.
    @raise Invalid_argument on unresolved names. *)
