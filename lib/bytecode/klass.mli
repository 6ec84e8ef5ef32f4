(** Class representation.

    Field layout places inherited fields first, so a field slot valid for
    a class is valid for all its subclasses; each slot carries a kind so
    the VM can initialize fields and the verifier can type field loads.
    Virtual dispatch goes through a selector-indexed vtable: the program
    assigns every distinct selector name a global slot, and each class's
    vtable maps the slot to a method id (or -1 when the class does not
    understand the selector). *)

type field_kind =
  | Kint
  | Kfloat
  | Kref

type t = {
  id : int;
  name : string;
  super : int option;
  field_names : string array;  (** full layout, inherited fields first *)
  field_kinds : field_kind array;  (** same indexing as [field_names] *)
  vtable : int array;  (** selector slot -> method id, -1 if absent *)
}

val n_fields : t -> int

val field_slot : t -> string -> int option

val method_for_selector : t -> slot:int -> int option

val is_subclass_of : t array -> sub:int -> super:int -> bool
(** Follows the superclass chain through the given class table;
    reflexive. *)

val pp : Format.formatter -> t -> unit
