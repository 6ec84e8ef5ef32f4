(** Machine-readable counter baselines.

    The bench harness emits one {!run} per invocation as a single JSON
    document ([BENCH_<label>.json]): an environment stamp plus the
    per-section metrics, each carrying its unit.  Every metric is a
    deterministic count or ratio of counts, so {!diff} compares two
    documents exactly: a metric that moved either way, one that is
    missing and one that was added all make the diff unclean, and
    [repro_cli bench-diff OLD NEW] exits 1 on any of them. *)

type metric = {
  name : string;
  value : float;
  unit_ : string;  (** e.g. ["ops/position"], ["pct"], ["count"] *)
}

type section = { label : string; metrics : metric list }

type run = {
  bench : string;  (** the bench label, e.g. ["smoke"] *)
  env : (string * string) list;  (** the environment stamp *)
  sections : section list;
}

val env_stamp : scale:float -> (string * string) list
(** Toolchain + workload-scale stamp: OCaml version, word size, OS
    type, and the bench scale factor. *)

val to_string : run -> string
(** The whole run as one [schema_version]-stamped JSON object. *)

type error =
  | Version_mismatch of { got : int; expected : int }
      (** written under another [Codec.schema_version] *)
  | Malformed of string
      (** not JSON, not the shape {!to_string} writes, or a (section,
          metric) pair named twice *)

val error_to_string : error -> string

val of_string : string -> (run, error) result
(** Parse a baseline document (the inverse of {!to_string}, via
    [Codec.parse]).  A document of any other schema version is an
    error, never a partial read. *)

(** {2 Exact diff} *)

type change = {
  c_section : string;
  c_name : string;
  c_unit : string;
  c_old : float;
  c_new : float;
}

type diff = {
  changed : change list;  (** in both runs, with different values *)
  missing : (string * string) list;
      (** (section, metric) pairs in the baseline only *)
  added : (string * string) list;  (** in the candidate only *)
}

val diff : baseline:run -> candidate:run -> diff

val clean : diff -> bool
(** True when all three lists of the diff are empty. *)
