(** Machine-readable perf baselines.

    The bench harness emits one {!run} per invocation as a single JSON
    document ([BENCH_<label>.json]): an environment stamp plus the
    per-section metrics, each carrying its unit and direction-of-better.
    {!diff} compares two such documents direction-aware, which is what
    [repro_cli bench-diff OLD NEW --max-regress PCT] gates CI on. *)

type direction = Higher | Lower  (** Which way "better" points. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;  (** e.g. ["ns/instr"], ["ratio"], ["count"] *)
  better : direction;
}

type section = { label : string; metrics : metric list }

type run = {
  bench : string;  (** the bench label, e.g. ["smoke"] *)
  env : (string * string) list;  (** the environment stamp *)
  sections : section list;
}

val metric :
  name:string -> value:float -> unit_:string -> better:direction -> metric

val env_stamp : scale:float -> (string * string) list
(** Toolchain + workload-scale stamp: OCaml version, word size, OS
    type, and the bench scale factor. *)

val run_json : run -> Codec.json
(** The whole run as one [schema_version]-stamped object. *)

val to_string : run -> string

val of_string : string -> (run, string) result
(** Parse a baseline document (the inverse of {!to_string}, via
    [Codec.parse]). *)

(** {2 Direction-aware diff} *)

type delta = {
  d_section : string;
  d_name : string;
  d_unit : string;
  d_better : direction;
  d_old : float;
  d_new : float;
  d_regress_pct : float;
      (** percent change in the {e worse} direction — positive means
          the candidate regressed, negative means it improved. *)
}

type diff = {
  deltas : delta list;  (** metrics present in both runs *)
  missing : (string * string) list;
      (** (section, metric) pairs present in the baseline but absent in
          the candidate — treated as failures by {!ok}, since a deleted
          metric can hide a regression. *)
  added : (string * string) list;
      (** present in the candidate only — informational. *)
}

val regress_pct :
  better:direction -> old_v:float -> new_v:float -> float
(** The signed regression percentage for one metric pair.  A zero
    baseline with a nonzero worse-direction movement reports 100%. *)

val diff : baseline:run -> candidate:run -> diff

val regressions : max_regress:float -> diff -> delta list
(** The deltas whose regression exceeds the tolerance (percent). *)

val ok : max_regress:float -> diff -> bool
(** True when nothing regressed past [max_regress] and no baseline
    metric is missing from the candidate. *)
