(** Post-mortem dump plumbing.

    [Tracegen.Flightrec] performs no I/O; this module is the harness
    half that serializes the surviving ring window through {!Codec}
    when a trigger fires, and pretty-prints a dump back for humans
    ([repro_cli postmortem <file>]).  The caller owns the file I/O. *)

val arm :
  dir:string -> write:(string -> string -> unit) -> Tracegen.Engine.t -> unit
(** Install the file sink on the engine's flight recorder (no-op when
    the recorder is disabled).  Each trigger calls [write path
    contents]: [path] is [dir/flightrec_<reason>.jsonl], so there is
    one file per reason and the latest dump wins, and [contents] is the
    {!Codec.postmortem_jsonl} dump. *)

val describe_json : Codec.json -> (string, string) result
(** One parsed dump line as a human-readable description. *)

val describe_dump : string -> (string list, string) result
(** Parse and describe a whole dump (JSONL contents).  Returns the
    rendered lines, or the first parse/shape error with its line
    number. *)
