module Instr = Bytecode.Instr

(* Runtime values.  Objects carry their class id and a flat field array laid
   out per the class's field layout; arrays carry their element kind so the
   typed array instructions can be checked dynamically.

   An int or float array keeps its elements raw, as the JVM's int[] and
   float[] do, so a store of the matching type neither allocates nor runs
   the write barrier.  The verifier only knows "reference", so an
   unverified program may store any value into any array: such a store
   turns the array's cells [Boxed] for good (see [Interp]), and from then
   on the array behaves as every array did when all cells were boxed. *)

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
  kind : Instr.array_kind;
  mutable cells : cells;
}

and cells =
  | Ints of int array
  | Floats of Float.Array.t
  | Boxed of t array

let default_of_field_kind = function
  | Bytecode.Klass.Kint -> Vint 0
  | Bytecode.Klass.Kfloat -> Vfloat 0.0
  | Bytecode.Klass.Kref -> Vnull

let[@inline] length a =
  match a.cells with
  | Ints c -> Array.length c
  | Floats c -> Float.Array.length c
  | Boxed c -> Array.length c

let to_string = function
  | Vint n -> string_of_int n
  | Vfloat f -> string_of_float f
  | Vnull -> "null"
  | Vobj o -> Printf.sprintf "obj#%d(%d fields)" o.cls (Array.length o.fields)
  | Varr a ->
      Printf.sprintf "%s[%d]" (Instr.array_kind_to_string a.kind) (length a)
