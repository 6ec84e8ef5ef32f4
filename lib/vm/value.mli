(** Runtime values of the VM.

    Objects carry their class id and a flat field array laid out per the
    class's field layout; arrays carry their element kind so the typed
    array instructions can be checked dynamically. *)

type t =
  | Vint of int
  | Vfloat of float
  | Vnull
  | Vobj of obj
  | Varr of arr

and obj = {
  cls : int;
  fields : t array;
}

and arr = {
  kind : Bytecode.Instr.array_kind;
  mutable cells : cells;
      (** [Newarray] makes an int array's cells [Ints] of 0 and a
          float array's [Floats] of 0.0, raw and unboxed, and a
          reference array's [Boxed] of [Vnull].  The interpreter turns an array's cells [Boxed], once
          and for good, when an unverified program stores a value of
          another type into it ([Fastore] into an int array, say); its
          elements keep their values, so only the representation
          changes. *)
}

and cells =
  | Ints of int array
  | Floats of Float.Array.t
  | Boxed of t array

val default_of_field_kind : Bytecode.Klass.field_kind -> t
(** The value a freshly allocated object's field starts with. *)

val length : arr -> int
(** The array's element count, whatever its cells' representation. *)

val to_string : t -> string
