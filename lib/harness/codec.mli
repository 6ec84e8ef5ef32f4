(** The JSON codec.

    Every JSONL record the harness writes — events (the engine's phase
    snapshots ride in [phase_snapshot] events), lint diagnostics,
    flight-recorder dumps of events — is built here and leads with the
    one {!schema_version}; {!parse} reads dumps and bench baselines
    back.  The binary warm-start snapshot has its own codec,
    [Tracegen.Persist]. *)

(** {2 JSON values} *)

type json =
  | J_int of int
  | J_float of float
  | J_string of string
  | J_bool of bool
  | J_null
  | J_obj of (string * json) list
  | J_list of json list

val to_string : json -> string

val parse : string -> (json, string) result
(** A minimal JSON parser — the inverse of {!to_string}, used to read
    flight-recorder dumps and bench baselines back.  Integral numbers
    parse as {!J_int}, everything else numeric as {!J_float}, and a
    literal that overflows a float ([1e400]) is an error; non-ASCII
    [\u] escapes are replaced (the emitter never produces them).  Any
    malformed input is an [Error], never an exception. *)

val schema_version : int
(** Every top-level JSONL record ({!event_json}, {!diags_jsonl},
    {!flightrec_entry_json}, [Export.run_json]) leads with a ["schema_version"]
    field carrying this value, so downstream consumers can detect
    format drift.  Bumped on any breaking change to the record field
    sets — version 12 dropped the flight recorder's ["metric"]
    entries. *)

val versioned : (string * json) list -> (string * json) list
(** Prepend the [schema_version] field — how every JSONL writer here
    stamps its records. *)

(** {2 JSONL record writers} *)

val event_json : Tracegen.Events.event -> json
(** One event as a flat object: [{"event": <kind>, "time": <dispatch>,
    …payload fields}].  The [event] tag is {!Tracegen.Events.kind}. *)

val diags_jsonl : Analysis.Diag.t list -> string
(** A diagnostic list, one flat object per line, in list order — the
    [repro_cli lint --json] schema: [{"context": …, "code": …,
    "severity": …, "location": …, "message": …}] (context omitted when
    absent). *)

(** {2 Flight recorder (post-mortem)} *)

val flightrec_entry_json : Tracegen.Flightrec.entry -> json
(** One ring entry as a flat object: [rec] = ["event"] and [seq], then
    the {!event_json} fields. *)

val postmortem_jsonl : reason:string -> Tracegen.Flightrec.t -> string
(** A complete post-mortem dump: the header line ([{"rec":
    "postmortem", "reason": …, "capacity": …, "recorded": …,
    "dropped": …}]) followed by the surviving ring window oldest-first,
    one object per line. *)
