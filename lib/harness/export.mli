(** Machine-readable results: JSON for single runs, JSON-lines and CSV
    for the parameter sweeps.  The JSON value type, writer/parser pair
    and every per-record serializer live in {!Codec}. *)

val stats_json :
  ?extra:(string * Codec.json) list -> Tracegen.Stats.t -> Codec.json
(** One flat object: [extra], then every {!Tracegen.Stats.counters}
    entry under its own name, then the derived values and
    [wall_seconds]. *)

val run_json : Experiment.run -> Codec.json
(** {!stats_json} with the run's key (workload, size, parameters) and
    checksum prepended. *)

val sweep_jsonl : ?scale:float -> unit -> string
(** The threshold and delay grids, one JSON object per line. *)

val sweep_csv : ?scale:float -> unit -> string
(** The threshold sweep as CSV with a header row. *)
