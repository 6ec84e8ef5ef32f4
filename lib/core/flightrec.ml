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

let reason_of_string = function
  | "invariant_violation" -> Some Invariant
  | "chaos_divergence" -> Some Divergence
  | "snapshot_rejected" -> Some Snapshot_rejected
  | "degraded_interp_only" -> Some Degraded
  | "manual" -> Some Manual
  | _ -> None

(* Slot storage is tuned so the hot path — one event per engine
   emission, tens of thousands per run — costs a handful of int stores
   plus the cursor bump, and allocates nothing.  No per-slot sequence
   number is written: writes are strictly sequential, so the slot for
   sequence number [seq] is [seq mod cap].

   The high-frequency event kinds — trace entry/exit/completion and
   decay ticks, the per-dispatch chatter that dominates the stream —
   arrive as scalars in the stream's hot-kind encoding (the intake is an
   [Events.sink]) and are copied into [scalars], a flat unboxed int
   array: no payload is ever built for them, there is no write barrier,
   and the recorder holds no pointer into the young generation, so the
   minor GC never promotes anything on their account.  Rare,
   richly-typed events keep the pointer path. *)
let scalar_width = 5 (* kind code; time; the kind's 3 int fields *)

let k_pointer = 0 (* not a hot kind: the event lives in [evs] *)

type t = {
  cap : int;
  mutable evs : Events.event array;
      (* [[||]] until the first pointer-path event: [Events.event] has
         no nullary value to fill with, so the first recorded event
         seeds the array *)
  scalars : int array;  (* [scalar_width] ints per slot *)
  mutable pos : int;  (* next write index; invariant pos = next_seq mod cap *)
  mutable next_seq : int;
  mutable dumps : int;
  mutable on_dump : (dump_reason -> unit) option;
  sink : Events.sink;  (* the intake, closures built once *)
}

(* Advance the cursor; branch instead of [mod] keeps an integer
   division off the per-event path. *)
let advance t i =
  t.next_seq <- t.next_seq + 1;
  t.pos <- (let p = i + 1 in if p = t.cap then 0 else p)

let record_hot t kind time a b c =
  let i = t.pos in
  let s = i * scalar_width in
  t.scalars.(s) <- kind;
  t.scalars.(s + 1) <- time;
  t.scalars.(s + 2) <- a;
  t.scalars.(s + 3) <- b;
  t.scalars.(s + 4) <- c;
  advance t i

let record_cold t (ev : Events.event) =
  let i = t.pos in
  if Array.length t.evs = 0 then t.evs <- Array.make t.cap ev;
  t.scalars.(i * scalar_width) <- k_pointer;
  t.evs.(i) <- ev;
  advance t i

let create ~capacity =
  let cap = max 2 capacity in
  let rec t =
    {
      cap;
      evs = [||];
      scalars = Array.make (cap * scalar_width) 0;
      pos = 0;
      next_seq = 0;
      dumps = 0;
      on_dump = None;
      sink =
        {
          Events.hot = (fun k time a b c -> record_hot t k time a b c);
          cold = (fun ev -> record_cold t ev);
        };
    }
  in
  t

let capacity t = t.cap
let recorded t = t.next_seq
let dropped t = max 0 (t.next_seq - t.cap)
let dumps t = t.dumps
let set_on_dump t f = t.on_dump <- Some f
let sink t = t.sink
let record_event t ev = Events.route t.sink ev

(* Rebuild one entry from its slot (dump path only).  Every slot the
   window walk visits was written, and a pointer-path write seeds
   [evs], so a [k_pointer] slot always has its event. *)
let entry_at t ~seq i : entry =
  let s = i * scalar_width in
  let k = t.scalars.(s) in
  if k = k_pointer then
    let ev = t.evs.(i) in
    { seq; time = ev.Events.time; payload = ev.Events.payload }
  else
    let payload =
      Events.hot_payload ~kind:k t.scalars.(s + 2) t.scalars.(s + 3)
        t.scalars.(s + 4)
    in
    { seq; time = t.scalars.(s + 1); payload }

(* Oldest-first reconstruction of the surviving window. *)
let to_list t =
  let first = max 0 (t.next_seq - t.cap) in
  let acc = ref [] in
  for seq = t.next_seq - 1 downto first do
    acc := entry_at t ~seq (seq mod t.cap) :: !acc
  done;
  !acc

let trigger t reason =
  t.dumps <- t.dumps + 1;
  match t.on_dump with Some f -> f reason | None -> ()
