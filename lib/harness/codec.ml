(* The JSON codec: every JSONL record the harness writes (events,
   phase snapshots among them, lint diagnostics, flight-recorder dumps) is built
   here and stamped with the one schema version, and the parser that
   reads dumps and bench baselines back lives here too.  The project
   takes no JSON dependency, so a minimal escaper-and-printer and its
   inverse parser are written out below.  The binary warm-start
   snapshot has its own codec, [Tracegen.Persist]. *)

module Events = Tracegen.Events
module Metrics = Tracegen.Metrics
module Flightrec = Tracegen.Flightrec

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

type json =
  | J_int of int
  | J_float of float
  | J_string of string
  | J_bool of bool
  | J_null
  | J_obj of (string * json) list
  | J_list of json list

let rec render_json buf = function
  | J_int n -> Buffer.add_string buf (string_of_int n)
  | J_null -> Buffer.add_string buf "null"
  | J_float f ->
      (* JSON has no NaN/inf; clamp to null-ish zero *)
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "0"
  | J_string s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (json_escape s);
      Buffer.add_char buf '"'
  | J_bool b -> Buffer.add_string buf (string_of_bool b)
  | J_obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun k (name, v) ->
          if k > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (json_escape name);
          Buffer.add_string buf "\":";
          render_json buf v)
        fields;
      Buffer.add_char buf '}'
  | J_list items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun k v ->
          if k > 0 then Buffer.add_char buf ',';
          render_json buf v)
        items;
      Buffer.add_char buf ']'

let to_string j =
  let buf = Buffer.create 256 in
  render_json buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* The JSONL schema version                                             *)
(* ------------------------------------------------------------------ *)

(* Every top-level JSONL record (event, snapshot, lint diagnostic, sweep
   run) leads with this so downstream consumers can detect format
   drift.  Bump on any breaking change to the field sets below.
   Version 2: added it, plus the eviction [reason] field.
   Version 3: snapshots carry flattened histogram fields
   ([name.count] / [name.sum] / [name.p50] / [name.p90] / [name.p99] /
   [name.max]); span records added.
   Version 4: [cache_restored] / [snapshot_rejected] event kinds and the
   ["footprint"] eviction reason (warm-start snapshots, footprint-aware
   eviction).
   Version 5: [guards_pruned] event kind (guard-implication pruning).
   Version 6: [deopt_entered] / [osr_promoted] event kinds (on-stack
   replacement).
   Version 7: [trace_compiled] / [tier_demoted] event kinds (the
   compiled micro-IR tier).
   Version 8: flight-recorder postmortem records ([rec] = "postmortem"
   header / "event" / "span" / "metric"), decision-ledger records
   ([action] + attribution fields), and the bench baseline JSON
   ([Perf]).
   Version 9: the decision ledger keeps events, so its own records are
   gone, and the attribution they alone carried moved into the events:
   [trace_evicted] gains [footprint] / [heat] / [stamp],
   [trace_compiled] gains [heat], [tier_demoted] gains [winner_heat].
   Version 10: guard pruning left the engine — the [guards_pruned] event
   kind is gone, and so are the [guards_elided] / [guards_pruned]
   counters and the hot-report's [pruned] column.
   Version 11: the span recorder is gone — no span records, and no
   ["span"] entries in postmortem dumps.
   Version 12: the flight recorder records events only — no ["metric"]
   entries in postmortem dumps — and a phase snapshot's
   [flightrec_recorded] counts events alone.
   Version 13: the engine keeps no histograms — snapshots lose their
   [name.count] … [name.max] fields, and with [trace_dispatches] gone
   (it repeated [traces_entered]) snapshots and [export] JSON lose that
   key; [side_exit] loses [matched_blocks] (it repeated [at_block]);
   the [path_walked] event kind is added.
   Version 14: [trace_constructed] carries the trace body, [blocks] (a
   list of gids), in place of its length [n_blocks], so the hot report
   folds per-block counts from the stream alone.
   Version 15: a bench baseline's metrics lose [better] (baselines are
   compared exactly), and [Perf.of_string] refuses any other version. *)
let schema_version = 15

let versioned fields = ("schema_version", J_int schema_version) :: fields

(* ------------------------------------------------------------------ *)
(* Event timelines and phase snapshots                                  *)
(* ------------------------------------------------------------------ *)

(* One phase snapshot: the dispatch it was taken in plus every sampled
   value, flattened into the object. *)
let snapshot_fields (s : Metrics.snapshot) =
  ("at", J_int s.Metrics.at)
  :: Array.to_list
       (Array.map (fun (name, v) -> (name, J_int v)) s.Metrics.values)

(* One event as a flat object: {"event": <kind>, "time": <dispatch>, ...}
   with the payload's fields spliced in.  This is the JSONL schema
   documented in DESIGN.md — field names are stable. *)
let event_payload_fields (payload : Events.payload) : (string * json) list =
  match payload with
    | Events.Signal_raised { x; y; old_state; new_state; best_changed } ->
        [
          ("x", J_int x);
          ("y", J_int y);
          ("old_state", J_string (Tracegen.State.to_string old_state));
          ("new_state", J_string (Tracegen.State.to_string new_state));
          ("best_changed", J_bool best_changed);
        ]
    | Events.Trace_constructed { trace_id; first; blocks; n_instrs; prob; reused }
      ->
        [
          ("trace_id", J_int trace_id);
          ("first", J_int first);
          ( "blocks",
            J_list (Array.to_list (Array.map (fun g -> J_int g) blocks)) );
          ("n_instrs", J_int n_instrs);
          ("prob", J_float prob);
          ("reused", J_bool reused);
        ]
    | Events.Trace_replaced { first; head; trace_id } ->
        [ ("first", J_int first); ("head", J_int head); ("trace_id", J_int trace_id) ]
    | Events.Trace_entered { trace_id; chained } ->
        [ ("trace_id", J_int trace_id); ("chained", J_bool chained) ]
    | Events.Side_exit { trace_id; at_block; matched_instrs } ->
        [
          ("trace_id", J_int trace_id);
          ("at_block", J_int at_block);
          ("matched_instrs", J_int matched_instrs);
        ]
    | Events.Trace_completed { trace_id; n_blocks; n_instrs } ->
        [
          ("trace_id", J_int trace_id);
          ("n_blocks", J_int n_blocks);
          ("n_instrs", J_int n_instrs);
        ]
    | Events.Decay_pass { decays } -> [ ("decays", J_int decays) ]
    | Events.Path_walked { transitions } ->
        [ ("transitions", J_int transitions) ]
    | Events.Phase_snapshot s ->
        (* nested object: the enclosing event record carries the version *)
        [ ("snapshot", J_obj (snapshot_fields s)) ]
    | Events.Invariant_violation { code; severity; message } ->
        [
          ("code", J_string code);
          ("severity", J_string severity);
          ("message", J_string message);
        ]
    | Events.Fault_injected { code; detail } ->
        [ ("code", J_string code); ("detail", J_string detail) ]
    | Events.Trace_quarantined { trace_id; first; head; code; attempts; until }
      ->
        [
          ("trace_id", J_int trace_id);
          ("first", J_int first);
          ("head", J_int head);
          ("code", J_string code);
          ("attempts", J_int attempts);
          (* max_int = permanently blacklisted; JSON-friendly sentinel *)
          ("until", J_int (if until = max_int then -1 else until));
        ]
    | Events.Trace_evicted
        { trace_id; first; head; n_live; reason; footprint; heat; stamp } ->
        [
          ("trace_id", J_int trace_id);
          ("first", J_int first);
          ("head", J_int head);
          ("n_live", J_int n_live);
          ("reason", J_string (Events.evict_reason_to_string reason));
          ("footprint", J_int footprint);
          ("heat", J_int heat);
          ("stamp", J_int stamp);
        ]
    | Events.Mode_degraded { from_level; to_level } ->
        [
          ("from", J_string (Tracegen.Health.level_to_string from_level));
          ("to", J_string (Tracegen.Health.level_to_string to_level));
        ]
    | Events.Mode_recovered { from_level; to_level } ->
        [
          ("from", J_string (Tracegen.Health.level_to_string from_level));
          ("to", J_string (Tracegen.Health.level_to_string to_level));
        ]
    | Events.Cache_restored { traces; cache_blocks; bcg_nodes; bcg_edges } ->
        [
          ("traces", J_int traces);
          ("cache_blocks", J_int cache_blocks);
          ("bcg_nodes", J_int bcg_nodes);
          ("bcg_edges", J_int bcg_edges);
        ]
    | Events.Snapshot_rejected { reason } -> [ ("reason", J_string reason) ]
    | Events.Deopt_entered
        { trace_id; at_block; resume_block; residue_blocks; reason } ->
        [
          ("trace_id", J_int trace_id);
          ("at_block", J_int at_block);
          ("resume_block", J_int resume_block);
          ("residue_blocks", J_int residue_blocks);
          ("reason", J_string reason);
        ]
    | Events.Osr_promoted { trace_id; header; latch; hotness } ->
        [
          ("trace_id", J_int trace_id);
          ("header", J_int header);
          ("latch", J_int latch);
          ("hotness", J_int hotness);
        ]
    | Events.Trace_compiled { trace_id; ops; fused; src_instrs; heat } ->
        [
          ("trace_id", J_int trace_id);
          ("ops", J_int ops);
          ("fused", J_int fused);
          ("src_instrs", J_int src_instrs);
          ("heat", J_int heat);
        ]
    | Events.Tier_demoted { trace_id; uses; winner_heat } ->
        [
          ("trace_id", J_int trace_id);
          ("uses", J_int uses);
          ("winner_heat", J_int winner_heat);
        ]

let event_json (e : Events.event) : json =
  J_obj
    (versioned
       (("event", J_string (Events.kind e.Events.payload))
       :: ("time", J_int e.Events.time)
       :: event_payload_fields e.Events.payload))

(* One lint diagnostic as a flat object — the `repro_cli lint --json`
   line schema. *)
let diag_json (d : Analysis.Diag.t) : json =
  let base =
    [
      ("code", J_string d.Analysis.Diag.code);
      ( "severity",
        J_string (Analysis.Diag.severity_to_string d.Analysis.Diag.severity) );
      ( "location",
        J_string (Analysis.Diag.location_to_string d.Analysis.Diag.loc) );
      ("message", J_string d.Analysis.Diag.message);
    ]
  in
  match d.Analysis.Diag.context with
  | Some c -> J_obj (versioned (("context", J_string c) :: base))
  | None -> J_obj (versioned base)

let diags_jsonl (diags : Analysis.Diag.t list) : string =
  let buf = Buffer.create 1024 in
  List.iter
    (fun d ->
      Buffer.add_string buf (to_string (diag_json d));
      Buffer.add_char buf '\n')
    diags;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Flight recorder (post-mortem)                                       *)
(* ------------------------------------------------------------------ *)

(* One flight-recorder ring entry as a flat object: the live-stream
   event schema verbatim plus [rec]/[seq], so a post-mortem line for an
   event is its [event_json] line with the two recorder fields. *)
let flightrec_entry_json ({ seq; time; payload } : Flightrec.entry) : json =
  J_obj
    (versioned
       (("rec", J_string "event")
       :: ("seq", J_int seq)
       :: ("event", J_string (Events.kind payload))
       :: ("time", J_int time)
       :: event_payload_fields payload))

(* The post-mortem dump header — first line of a flightrec JSONL file. *)
let postmortem_header_json ~(reason : string) (fr : Flightrec.t) : json =
  J_obj
    (versioned
       [
         ("rec", J_string "postmortem");
         ("reason", J_string reason);
         ("capacity", J_int (Flightrec.capacity fr));
         ("recorded", J_int (Flightrec.recorded fr));
         ("dropped", J_int (Flightrec.dropped fr));
       ])

(* The whole dump: header line, then the surviving window oldest-first. *)
let postmortem_jsonl ~(reason : string) (fr : Flightrec.t) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (to_string (postmortem_header_json ~reason fr));
  Buffer.add_char buf '\n';
  List.iter
    (fun e ->
      Buffer.add_string buf (to_string (flightrec_entry_json e));
      Buffer.add_char buf '\n')
    (Flightrec.to_list fr);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* A minimal JSON parser — the inverse of [to_string]                  *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse (input : string) : (json, string) result =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = pos := !pos + 1 in
  let skip_ws () =
    while
      !pos < n
      && match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub input !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let closed = ref false in
    while not !closed do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          advance ();
          closed := true
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c -> (
              advance ();
              match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  if !pos + 4 > n then fail "truncated \\u escape";
                  let hex = String.sub input !pos 4 in
                  pos := !pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with _ -> fail "bad \\u escape"
                  in
                  (* ASCII passes through; anything above is replaced —
                     the emitter never produces non-ASCII escapes *)
                  if code < 0x80 then Buffer.add_char buf (Char.chr code)
                  else Buffer.add_char buf '?'
              | _ -> fail "bad escape"))
      | Some c ->
          advance ();
          Buffer.add_char buf c
    done;
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char input.[!pos] do
      advance ()
    done;
    let s = String.sub input start (!pos - start) in
    match int_of_string_opt s with
    | Some i -> J_int i
    | None -> (
        (* the writer never renders a non-finite float, so a literal
           that overflows to one is no document it wrote *)
        match float_of_string_opt s with
        | Some f when Float.is_finite f -> J_float f
        | _ -> fail ("bad number " ^ s))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          J_obj []
        end
        else begin
          let fields = ref [] in
          let more = ref true in
          while !more do
            skip_ws ();
            let name = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (name, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some '}' ->
                advance ();
                more := false
            | _ -> fail "expected ',' or '}'"
          done;
          J_obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          J_list []
        end
        else begin
          let items = ref [] in
          let more = ref true in
          while !more do
            let v = parse_value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some ']' ->
                advance ();
                more := false
            | _ -> fail "expected ',' or ']'"
          done;
          J_list (List.rev !items)
        end
    | Some '"' -> J_string (parse_string ())
    | Some 't' -> literal "true" (J_bool true)
    | Some 'f' -> literal "false" (J_bool false)
    | Some 'n' -> literal "null" J_null
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg
