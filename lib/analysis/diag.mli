(** Diagnostics: the common currency of every linter layer.

    A diagnostic carries a stable check code (the [TL...] catalogue in
    DESIGN.md §12), a severity, a location inside a program / trace /
    BCG, and a human message.  The program linter ({!Lint}) and the
    trace/BCG invariant checker ([Tracegen.Invariants]) both produce
    values of this type; the CLI renders them as text or JSON lines and
    derives its exit status from {!has_errors}. *)

type severity =
  | Error  (** a real violation: lint exits non-zero *)
  | Warning  (** suspicious but not proof of breakage *)
  | Info  (** structural observations (loop shape, merge notes) *)

type location =
  | Method_loc of {
      method_name : string;
      block : int option;  (** block index within the method *)
      pc : int option;
    }
  | Trace_loc of { trace_id : int }
  | Node_loc of { x : int; y : int }  (** a BCG node [N_XY], by gids *)
  | Program_loc  (** the program (or run) as a whole *)

type t = {
  code : string;  (** stable check code, e.g. ["TL101"] *)
  severity : severity;
  context : string option;  (** workload / program name, when known *)
  loc : location;
  message : string;
}

val make :
  ?context:string -> code:string -> severity:severity -> loc:location ->
  string -> t

val severity_to_string : severity -> string

val location_to_string : location -> string

val to_string : t -> string
(** ["context: location: severity TLnnn: message"] — one line. *)

val compare : t -> t -> int
(** Errors first, then warnings, then infos; ties by code and location. *)

val has_errors : t list -> bool

val count : severity -> t list -> int
