(** A linked program: all methods and classes with identifiers resolved, a
    selector-name table for virtual dispatch, and a designated entry
    method (a zero-argument static method). *)

type t = {
  methods : Mthd.t array;
  classes : Klass.t array;
  selectors : string array;  (** slot -> selector name *)
  entry : int;  (** method id *)
}

val method_by_id : t -> int -> Mthd.t
(** @raise Invalid_argument on an unknown id. *)

val class_by_id : t -> int -> Klass.t
(** @raise Invalid_argument on an unknown id. *)

val find_method : t -> string -> Mthd.t option

val selector_name : t -> int -> string

val entry_method : t -> Mthd.t

val total_instructions : t -> int
(** Static code size across all methods. *)

val pp : Format.formatter -> t -> unit
