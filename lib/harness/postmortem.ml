(* Post-mortem dump plumbing: arm an engine's flight recorder with a
   file sink, and pretty-print a dump back for humans
   (`repro_cli postmortem <file>`).

   The recorder itself ([Tracegen.Flightrec]) performs no I/O; this
   module is the harness half that serializes the surviving ring window
   through [Codec] when a trigger fires and hands it to the caller's
   writer.  One file per reason, latest dump wins — a crashing run's
   last dump is the interesting one. *)

module Flightrec = Tracegen.Flightrec
module Engine = Tracegen.Engine

let dump_filename reason =
  Printf.sprintf "flightrec_%s.jsonl" (Flightrec.reason_to_string reason)

let arm ~dir ~write (engine : Engine.t) =
  match Engine.flightrec engine with
  | None -> ()
  | Some fr ->
      Flightrec.set_on_dump fr (fun reason ->
          write
            (Filename.concat dir (dump_filename reason))
            (Codec.postmortem_jsonl ~reason:(Flightrec.reason_to_string reason)
               fr))

(* ------------------------------------------------------------------ *)
(* Pretty-printing a dump                                              *)
(* ------------------------------------------------------------------ *)

let str_field kvs name =
  match List.assoc_opt name kvs with
  | Some (Codec.J_string s) -> Some s
  | _ -> None

let int_field kvs name =
  match List.assoc_opt name kvs with
  | Some (Codec.J_int i) -> Some i
  | _ -> None

let ifd kvs name = match int_field kvs name with Some i -> i | None -> -1

(* Render any remaining fields generically, so new payload fields show
   up in postmortem output without this printer learning about them. *)
let rest_fields kvs ~skip =
  List.filter_map
    (fun (k, v) ->
      if List.mem k skip then None
      else
        Some
          (match v with
          | Codec.J_int i -> Printf.sprintf "%s=%d" k i
          | Codec.J_float f -> Printf.sprintf "%s=%g" k f
          | Codec.J_string s -> Printf.sprintf "%s=%s" k s
          | Codec.J_bool b -> Printf.sprintf "%s=%b" k b
          | Codec.J_null -> Printf.sprintf "%s=null" k
          | Codec.J_obj _ | Codec.J_list _ -> Printf.sprintf "%s=..." k))
    kvs

(* One parsed dump line as a human-readable description.  Unknown [rec]
   shapes degrade to a generic field listing rather than failing. *)
let describe_json (j : Codec.json) : (string, string) result =
  match j with
  | Codec.J_obj kvs -> (
      match str_field kvs "rec" with
      | Some "postmortem" ->
          Ok
            (Printf.sprintf
               "post-mortem dump: reason=%s (ring capacity %d, %d recorded, \
                %d dropped by wrap-around)"
               (match str_field kvs "reason" with Some r -> r | None -> "?")
               (ifd kvs "capacity") (ifd kvs "recorded") (ifd kvs "dropped"))
      | Some "event" ->
          let kind =
            match str_field kvs "event" with Some k -> k | None -> "?"
          in
          Ok
            (Printf.sprintf "%6d  t=%-8d event  %-18s %s" (ifd kvs "seq")
               (ifd kvs "time") kind
               (String.concat " "
                  (rest_fields kvs
                     ~skip:
                       [ "schema_version"; "rec"; "seq"; "time"; "event" ])))
      | Some "metric" ->
          let delta = ifd kvs "delta" in
          Ok
            (Printf.sprintf "%6d  t=%-8d metric %s %+d -> %d" (ifd kvs "seq")
               (ifd kvs "time")
               (match str_field kvs "name" with Some n -> n | None -> "?")
               delta (ifd kvs "total"))
      | Some other -> Error (Printf.sprintf "unknown rec kind %S" other)
      | None -> Error "record has no \"rec\" field")
  | _ -> Error "dump line is not an object"

(* Parse and describe a whole dump.  Returns the rendered lines, or the
   first parse/shape error with its line number. *)
let describe_dump (contents : string) : (string list, string) result =
  let lines =
    String.split_on_char '\n' contents
    |> List.filter (fun l -> String.trim l <> "")
  in
  if lines = [] then Error "empty dump"
  else
    let rec go i acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
          match Codec.parse line with
          | Error e -> Error (Printf.sprintf "line %d: parse error: %s" i e)
          | Ok j -> (
              match describe_json j with
              | Error e -> Error (Printf.sprintf "line %d: %s" i e)
              | Ok d -> go (i + 1) (d :: acc) rest))
    in
    go 1 [] lines
