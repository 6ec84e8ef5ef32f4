(** Method representation.

    Locals [0 .. n_args-1] hold the arguments at entry — for virtual
    methods the receiver is local 0 and counts toward [n_args] — and the
    remaining locals up to [n_locals] start zeroed. *)

type return_type =
  | Rvoid
  | Rint
  | Rfloat
  | Rref

type kind =
  | Static
  | Virtual

(** An exception handler: protects pcs in [[h_from, h_to)] and receives
    exceptions whose class is a subclass of [h_class] at [h_target], with
    the exception object as the only stack operand. *)
type handler = {
  h_from : int;
  h_to : int;  (** exclusive *)
  h_target : int;
  h_class : int;
}

type t = {
  id : int;
  name : string;
  kind : kind;
  n_args : int;  (** argument slots, receiver included for virtual methods *)
  n_locals : int;  (** total local slots, [n_locals >= n_args] *)
  returns : return_type;
  code : Instr.t array;
  handlers : handler array;  (** innermost-first for nested regions *)
}

val handler_for :
  t ->
  pc:int ->
  cls:int ->
  is_subclass:(sub:int -> super:int -> bool) ->
  handler option
(** The innermost handler covering [pc] that catches class [cls]. *)

val pp : Format.formatter -> t -> unit
