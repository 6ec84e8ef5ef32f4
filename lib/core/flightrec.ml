(* Flight recorder: an always-on bounded ring buffer of the most recent
   events — the engine's black box.  Recording is
   O(1) and retention is bounded by the ring capacity, so the recorder
   can stay armed on every run.  It never writes anything
   itself: when a trigger condition fires (invariant violation, chaos
   divergence, snapshot rejection, degradation to interp-only) it calls
   the [on_dump] hook installed by the harness, which serializes the
   ring through the codec into a postmortem artifact. *)

type entry = { seq : int; time : int; payload : Events.payload }

type dump_reason =
  | Invariant
  | Divergence
  | Snapshot_rejected
  | Degraded
  | Manual

let reason_to_string = function
  | Invariant -> "invariant_violation"
  | Divergence -> "chaos_divergence"
  | Snapshot_rejected -> "snapshot_rejected"
  | Degraded -> "degraded_interp_only"
  | Manual -> "manual"

(* The ring itself belongs to the event stream ([Events.ring]): the
   engine's stream holds it and writes the hot kinds into it directly,
   as scalars, so the per-dispatch path makes no closure call.  The
   recorder owns the ring's dump triggers and reads its window back. *)
type t = {
  ring : Events.ring;
  mutable dumps : int;
  mutable on_dump : (dump_reason -> unit) option;
}

let create ~capacity =
  { ring = Events.ring ~capacity; dumps = 0; on_dump = None }

let capacity t = Events.ring_capacity t.ring
let recorded t = Events.ring_recorded t.ring
let dropped t = Int.max 0 (recorded t - capacity t)
let dumps t = t.dumps
let set_on_dump t f = t.on_dump <- Some f
let ring t = t.ring
(* Oldest-first reconstruction of the surviving window. *)
let to_list t =
  List.map
    (fun (seq, (ev : Events.event)) ->
      { seq; time = ev.Events.time; payload = ev.Events.payload })
    (Events.ring_window t.ring)

let trigger t reason =
  t.dumps <- t.dumps + 1;
  match t.on_dump with Some f -> f reason | None -> ()
