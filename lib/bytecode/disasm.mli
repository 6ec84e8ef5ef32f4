(** Human-readable listings of methods and programs, with symbolic names
    for method/class/selector/field operands and branch targets marked. *)

val method_to_string : Program.t -> Mthd.t -> string

val program_to_string : Program.t -> string
