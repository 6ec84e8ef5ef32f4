(* Machine-readable counter baselines.

   The bench harness emits one [run] per bench invocation as a single
   JSON document (BENCH_<label>.json): an environment stamp plus the
   per-section metrics, each carrying its unit.  [diff] compares two
   such documents exactly, so `repro_cli bench-diff OLD NEW` can gate
   CI without a human reading the tables.  All serialization goes
   through [Codec] (schema_version discipline, round-trip-able by
   [Codec.parse]). *)

type metric = { name : string; value : float; unit_ : string }
type section = { label : string; metrics : metric list }

type run = { bench : string; env : (string * string) list; sections : section list }

(* The environment stamp: enough to tell two baselines were produced by
   comparable builds without recording anything machine-unique beyond
   the toolchain. *)
let env_stamp ~scale =
  [
    ("ocaml", Sys.ocaml_version);
    ("word_size", string_of_int Sys.word_size);
    ("os", Sys.os_type);
    ("scale", Printf.sprintf "%g" scale);
  ]

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let metric_json (m : metric) : Codec.json =
  Codec.J_obj
    [
      ("name", Codec.J_string m.name);
      ("value", Codec.J_float m.value);
      ("unit", Codec.J_string m.unit_);
    ]

let section_json (s : section) : Codec.json =
  Codec.J_obj
    [
      ("section", Codec.J_string s.label);
      ("metrics", Codec.J_list (List.map metric_json s.metrics));
    ]

let run_json (r : run) : Codec.json =
  Codec.J_obj
    (Codec.versioned
       [
         ("bench", Codec.J_string r.bench);
         ( "env",
           Codec.J_obj (List.map (fun (k, v) -> (k, Codec.J_string v)) r.env)
         );
         ("sections", Codec.J_list (List.map section_json r.sections));
       ])

let to_string (r : run) : string = Codec.to_string (run_json r)

(* ------------------------------------------------------------------ *)
(* Parsing (the inverse, over Codec.parse output)                      *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field obj name =
  match obj with
  | Codec.J_obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" name))
  | _ -> Error "expected an object"

let as_string = function
  | Codec.J_string s -> Ok s
  | _ -> Error "expected a string"

let as_number = function
  | Codec.J_float f -> Ok f
  | Codec.J_int i -> Ok (float_of_int i)
  | _ -> Error "expected a number"

let as_list = function
  | Codec.J_list l -> Ok l
  | _ -> Error "expected a list"

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
      let* y = f x in
      let* ys = map_result f rest in
      Ok (y :: ys)

let metric_of_json j =
  let* name = field j "name" in
  let* name = as_string name in
  let* value = field j "value" in
  let* value = as_number value in
  let* unit_ = field j "unit" in
  let* unit_ = as_string unit_ in
  Ok { name; value; unit_ }

let section_of_json j =
  let* label = field j "section" in
  let* label = as_string label in
  let* metrics = field j "metrics" in
  let* metrics = as_list metrics in
  let* metrics = map_result metric_of_json metrics in
  Ok { label; metrics }

let run_of_json (j : Codec.json) : (run, string) result =
  let* bench = field j "bench" in
  let* bench = as_string bench in
  let* env = field j "env" in
  let* env =
    match env with
    | Codec.J_obj kvs ->
        map_result
          (fun (k, v) ->
            let* v = as_string v in
            Ok (k, v))
          kvs
    | _ -> Error "expected env to be an object"
  in
  let* sections = field j "sections" in
  let* sections = as_list sections in
  let* sections = map_result section_of_json sections in
  Ok { bench; env; sections }

type error =
  | Version_mismatch of { got : int; expected : int }
  | Malformed of string

let error_to_string = function
  | Version_mismatch { got; expected } ->
      Printf.sprintf "schema version %d, expected %d" got expected
  | Malformed msg -> msg

(* The version is checked before anything else is read: a document of
   another version may spell the same metrics differently. *)
let of_string (s : string) : (run, error) result =
  let malformed r = Result.map_error (fun msg -> Malformed msg) r in
  let* j = malformed (Codec.parse s) in
  let* version = malformed (field j "schema_version") in
  match version with
  | Codec.J_int v when v = Codec.schema_version -> malformed (run_of_json j)
  | Codec.J_int got ->
      Error (Version_mismatch { got; expected = Codec.schema_version })
  | _ -> Error (Malformed "expected schema_version to be an integer")

(* ------------------------------------------------------------------ *)
(* Exact diff                                                          *)
(* ------------------------------------------------------------------ *)

type change = {
  c_section : string;
  c_name : string;
  c_unit : string;
  c_old : float;
  c_new : float;
}

type diff = {
  changed : change list;
  missing : (string * string) list;
  added : (string * string) list;
}

(* Every metric is a deterministic count or ratio of counts, so any
   move is a behaviour change, whichever way it points. *)
let diff ~(baseline : run) ~(candidate : run) : diff =
  let index r =
    List.concat_map
      (fun s -> List.map (fun m -> ((s.label, m.name), m)) s.metrics)
      r.sections
  in
  let old_idx = index baseline and new_idx = index candidate in
  let changed =
    List.filter_map
      (fun ((c_section, c_name), (om : metric)) ->
        match List.assoc_opt (c_section, c_name) new_idx with
        | Some nm when not (Float.equal om.value nm.value) ->
            Some
              {
                c_section;
                c_name;
                c_unit = om.unit_;
                c_old = om.value;
                c_new = nm.value;
              }
        | _ -> None)
      old_idx
  in
  let only_in idx other =
    List.filter_map
      (fun (key, _) -> if List.mem_assoc key other then None else Some key)
      idx
  in
  {
    changed;
    missing = only_in old_idx new_idx;
    added = only_in new_idx old_idx;
  }

let clean d = d.changed = [] && d.missing = [] && d.added = []
