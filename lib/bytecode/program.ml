(* A linked program: all methods and classes with identifiers resolved, a
   selector-name table for virtual dispatch, and a designated entry method
   (a static method of zero arguments). *)

type t = {
  methods : Mthd.t array;
  classes : Klass.t array;
  selectors : string array; (* slot -> selector name *)
  entry : int; (* method id *)
}

let method_by_id t id =
  if id < 0 || id >= Array.length t.methods then
    invalid_arg (Printf.sprintf "Program.method_by_id: no method #%d" id);
  t.methods.(id)

let class_by_id t id =
  if id < 0 || id >= Array.length t.classes then
    invalid_arg (Printf.sprintf "Program.class_by_id: no class #%d" id);
  t.classes.(id)

let find_method t name =
  let n = Array.length t.methods in
  let rec go i =
    if i >= n then None
    else if String.equal t.methods.(i).Mthd.name name then Some t.methods.(i)
    else go (i + 1)
  in
  go 0

let selector_name t slot =
  if slot < 0 || slot >= Array.length t.selectors then
    Printf.sprintf "sel#%d" slot
  else t.selectors.(slot)

let entry_method t = t.methods.(t.entry)

let total_instructions t =
  Array.fold_left (fun acc m -> acc + Array.length m.Mthd.code) 0 t.methods

let pp ppf t =
  Format.fprintf ppf "program: %d methods, %d classes, %d selectors, entry=%s"
    (Array.length t.methods) (Array.length t.classes)
    (Array.length t.selectors)
    (entry_method t).Mthd.name
