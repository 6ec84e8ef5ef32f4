(* Diagnostics: the common currency of every linter layer.  Each finding
   carries a stable check code (DESIGN.md §12 lists the catalogue), a
   severity, and a location; the CLI derives its exit status from the
   presence of error-severity findings. *)

type severity =
  | Error
  | Warning
  | Info

type location =
  | Method_loc of {
      method_name : string;
      block : int option;
      pc : int option;
    }
  | Trace_loc of { trace_id : int }
  | Node_loc of { x : int; y : int }
  | Program_loc

type t = {
  code : string;
  severity : severity;
  context : string option;
  loc : location;
  message : string;
}

let make ?context ~code ~severity ~loc message =
  { code; severity; context; loc; message }

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

let location_to_string = function
  | Method_loc { method_name; block; pc } ->
      let b = match block with Some b -> Printf.sprintf ":B%d" b | None -> "" in
      let p = match pc with Some p -> Printf.sprintf "@%d" p | None -> "" in
      method_name ^ b ^ p
  | Trace_loc { trace_id } -> Printf.sprintf "trace#%d" trace_id
  | Node_loc { x; y } -> Printf.sprintf "N(%d->%d)" x y
  | Program_loc -> "program"

let to_string d =
  let ctx = match d.context with Some c -> c ^ ": " | None -> "" in
  Printf.sprintf "%s%s: %s %s: %s" ctx
    (location_to_string d.loc)
    (severity_to_string d.severity)
    d.code d.message

(* Errors first; within a severity keep a stable, readable order. *)
let compare a b =
  let c = Int.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = String.compare a.code b.code in
    if c <> 0 then c
    else
      String.compare (location_to_string a.loc) (location_to_string b.loc)

let has_errors diags = List.exists (fun d -> d.severity = Error) diags

let count sev diags =
  List.fold_left (fun n d -> if d.severity = sev then n + 1 else n) 0 diags
