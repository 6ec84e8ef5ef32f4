(** The one encode/decode module.

    Every serialized artifact the system produces goes through here:
    JSONL records (events, metric snapshots, histograms, spans, lint
    diagnostics), the Chrome [trace_event] timeline, and — via the
    {!Snapshot} re-export — the binary warm-start snapshot.  Keeping
    the writers, the parser and the version registry in one module
    gives all formats the same discipline: one version bump site per
    format ({!version}), checksums where the format is binary, and a
    {!round_trip} oracle where it is textual. *)

(** The binary warm-start snapshot codec ([Tracegen.Persist]),
    re-exported so [Codec] is the single front door to every format. *)
module Snapshot = Tracegen.Persist

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

val json_escape : string -> string

val parse : string -> (json, string) result
(** A minimal JSON parser — the inverse of {!to_string}, used by the
    timeline round-trip oracle.  Integral numbers parse as {!J_int},
    everything else numeric as {!J_float}; non-ASCII [\u] escapes are
    replaced (the emitter never produces them). *)

val round_trip : json -> (json, string) result
(** The round-trip oracle: render with {!to_string}, re-{!parse}, and
    check the result is the same value (an integral [J_float]
    legitimately re-parses as [J_int]; that one normalisation is
    allowed).  [Error] carries the parse error or a fixpoint-failure
    message. *)

(** {2 The version registry} *)

type format =
  | Jsonl  (** every top-level JSONL record below *)
  | Chrome_trace  (** {!chrome_trace} — an externally defined format *)
  | Binary_snapshot  (** the {!Snapshot} binary warm-start format *)

val format_name : format -> string
(** ["jsonl"] / ["chrome-trace"] / ["snapshot"]. *)

val version : format -> int
(** The version this build writes for each format — the registry's
    single lookup point.  [Jsonl] is {!schema_version};
    [Binary_snapshot] is [Snapshot.snapshot_version]. *)

val schema_version : int
(** Every top-level JSONL record ({!event_json}, {!snapshot_json},
    {!diag_json}, [Export.run_json]) leads with a ["schema_version"]
    field carrying this value, so downstream consumers can detect
    format drift.  Bumped on any breaking change to the record field
    sets — version 4 added the [cache_restored] / [snapshot_rejected]
    event kinds and the ["footprint"] eviction reason. *)

val versioned : (string * json) list -> (string * json) list
(** Prepend the [schema_version] field — how every JSONL writer here
    stamps its records. *)

(** {2 JSONL record writers} *)

val snapshot_json : Tracegen.Metrics.snapshot -> json
(** One metrics snapshot as a flat object: [{"at": <dispatch>,
    "<source>": <value>, …}]. *)

val snapshots_jsonl : Tracegen.Metrics.snapshot list -> string
(** A snapshot series, one object per line, chronological. *)

val event_json : Tracegen.Events.event -> json
(** One event as a flat object: [{"event": <kind>, "time": <dispatch>,
    …payload fields}].  The [event] tag is {!Tracegen.Events.kind}. *)

val events_jsonl : Tracegen.Events.event list -> string
(** An event timeline, one object per line, in list order. *)

val hist_json : Tracegen.Metrics.histogram -> json
(** One histogram: count/sum/mean/min/max, the p50/p90/p99 summary and
    the non-empty buckets (the overflow bucket's open upper bound
    renders as [-1]). *)

val span_json : Tracegen.Spans.span -> json
(** One span as a flat object ([end] is [-1] while open). *)

val spans_jsonl : Tracegen.Spans.span list -> string

val diag_json : Analysis.Diag.t -> json
(** One lint diagnostic as a flat object: [{"context": …, "code": …,
    "severity": …, "location": …, "message": …}] (context omitted when
    absent). *)

val diags_jsonl : Analysis.Diag.t list -> string
(** A diagnostic list, one object per line, in list order — the
    [repro_cli lint --json] schema. *)

(** {2 Flight recorder (post-mortem)} *)

val flightrec_entry_json : Tracegen.Flightrec.entry -> json
(** One ring entry as a flat object discriminated by [rec]: ["event"]
    entries carry the {!event_json} payload fields plus [seq];
    ["span"] and ["metric"] entries are flat records of their own. *)

val postmortem_header_json :
  reason:string -> Tracegen.Flightrec.t -> json
(** The dump header: [{"rec": "postmortem", "reason": …, "capacity": …,
    "recorded": …, "dropped": …}]. *)

val postmortem_jsonl : reason:string -> Tracegen.Flightrec.t -> string
(** A complete post-mortem dump: the header line followed by the
    surviving ring window oldest-first, one object per line. *)

(** {2 Chrome trace_event} *)

val chrome_trace : Tracegen.Spans.span list -> json
(** The span list as Chrome [trace_event] JSON, loadable in Perfetto or
    [about://tracing].  Dispatch ticks are reported as microseconds.
    Stack-disciplined spans (trace builds, heal sweeps, member turns)
    become [B]/[E] duration events on one thread track; quarantine
    episodes, which overlap freely, become [ph:"X"] complete events on a
    second.  Events are emitted in monotone timestamp order and every
    [E] closes the [B] it follows.  Open spans are skipped — run
    [Spans.end_all] first. *)

val chrome_trace_events : Tracegen.Spans.span list -> json
(** Just the sorted [traceEvents] array of {!chrome_trace}. *)
