(* The typed event stream.

   A stream is a list of subscribers kept in subscription order, an
   optional tap (the flight recorder's ring and a cold-event observer)
   and a logical clock (the engine's dispatch index).  Emission is
   synchronous; the disabled stream (no subscribers, no tap) is a no-op,
   and emission sites guard payload construction behind [enabled].

   The four per-dispatch kinds — trace entry, side exit, completion and
   decay ticks — travel as scalars instead: a kind code and up to three
   int fields.  The stream writes them straight into the ring it holds,
   and their payload record is built only for subscribers, so an armed
   recorder with no subscriber costs no allocation and no closure call
   on the dispatch path. *)

type evict_reason = Capacity | Pressure | Quarantine | Footprint

let evict_reason_to_string = function
  | Capacity -> "capacity"
  | Pressure -> "pressure"
  | Quarantine -> "quarantine"
  | Footprint -> "footprint"

type payload =
  | Signal_raised of {
      x : Cfg.Layout.gid;
      y : Cfg.Layout.gid;
      old_state : State.t;
      new_state : State.t;
      best_changed : bool;
    }
  | Trace_constructed of {
      trace_id : int;
      first : Cfg.Layout.gid;
      blocks : Cfg.Layout.gid array;
      n_instrs : int;
      prob : float;
      reused : bool;
    }
  | Trace_replaced of {
      first : Cfg.Layout.gid;
      head : Cfg.Layout.gid;
      trace_id : int;
    }
  | Trace_entered of { trace_id : int; chained : bool }
  | Side_exit of { trace_id : int; at_block : int; matched_instrs : int }
  | Trace_completed of { trace_id : int; n_blocks : int; n_instrs : int }
  | Decay_pass of { decays : int }
  | Path_walked of { transitions : int }
  | Phase_snapshot of Metrics.snapshot
  | Invariant_violation of {
      code : string;
      severity : string;
      message : string;
    }
  | Fault_injected of { code : string; detail : string }
  | Trace_quarantined of {
      trace_id : int;
      first : Cfg.Layout.gid;
      head : Cfg.Layout.gid;
      code : string;
      attempts : int;
      until : int;
    }
  | Trace_evicted of {
      trace_id : int;
      first : Cfg.Layout.gid;
      head : Cfg.Layout.gid;
      n_live : int;
      reason : evict_reason;
      footprint : int; (* estimated i-cache bytes of the victim *)
      heat : int; (* entry uses when it left *)
      stamp : int; (* LRU stamp of its last use *)
    }
  | Mode_degraded of { from_level : Health.level; to_level : Health.level }
  | Mode_recovered of { from_level : Health.level; to_level : Health.level }
  | Cache_restored of {
      traces : int;
      cache_blocks : int;
      bcg_nodes : int;
      bcg_edges : int;
    }
  | Snapshot_rejected of { reason : string }
  | Deopt_entered of {
      trace_id : int;
      at_block : int; (* trace position of the failed/abandoned guard *)
      resume_block : int; (* gid block dispatch resumes at; -1 unknown *)
      residue_blocks : int; (* trace positions abandoned past at_block *)
      reason : string; (* "guard-failure" | "guard-flip" | "condemned" *)
    }
  | Osr_promoted of {
      trace_id : int;
      header : Cfg.Layout.gid;
      latch : Cfg.Layout.gid;
      hotness : int;
    }
  | Trace_compiled of {
      trace_id : int;
      ops : int; (* micro-ops in the lowered body *)
      fused : int; (* superinstructions formed *)
      src_instrs : int; (* source bytecode instructions lowered *)
      heat : int; (* cache heat that crossed compile_after *)
    }
  | Tier_demoted of {
      trace_id : int;
      uses : int; (* cache heat at demotion — the losing bid *)
      winner_heat : int; (* heat of the trace that took the slot *)
    }

type event = { time : int; payload : payload }

(* The hot-kind encoding: the only place that knows which int field
   carries what.  Code 0 is reserved for "not a hot kind". *)
let hot_entered = 1 (* trace_id, chained *)
let hot_side_exit = 2 (* trace_id, at_block, matched_instrs *)
let hot_completed = 3 (* trace_id, n_blocks, n_instrs *)
let hot_decay = 4 (* decays *)

let hot_payload ~kind a b c =
  if kind = hot_entered then Trace_entered { trace_id = a; chained = b <> 0 }
  else if kind = hot_side_exit then
    Side_exit { trace_id = a; at_block = b; matched_instrs = c }
  else if kind = hot_completed then
    Trace_completed { trace_id = a; n_blocks = b; n_instrs = c }
  else if kind = hot_decay then Decay_pass { decays = a }
  else invalid_arg "Events.hot_payload: not a hot kind"

let is_hot = function
  | Trace_entered _ | Side_exit _ | Trace_completed _ | Decay_pass _ -> true
  | _ -> false

(* The flight recorder's ring: the most recent events, in emission
   order.  Slot storage is tuned so the hot path — one event per engine
   emission, tens of thousands per run — costs a handful of int stores
   plus the cursor bump, and allocates nothing.  No per-slot sequence
   number is written: writes are strictly sequential, so the slot for
   sequence number [seq] is [seq mod cap].

   The hot kinds arrive as scalars and are copied into [scalars], a flat
   unboxed int array: no payload is ever built for them, there is no
   write barrier, and the ring holds no pointer into the young
   generation, so the minor GC never promotes anything on their account.
   Rare, richly-typed events keep the pointer path. *)
let scalar_width = 5 (* kind code; time; the kind's 3 int fields *)

let k_pointer = 0 (* not a hot kind: the event lives in [evs] *)

type ring = {
  cap : int;
  mutable evs : event array;
      (* [[||]] until the first pointer-path event: [event] has no
         nullary value to fill with, so the first recorded event seeds
         the array *)
  scalars : int array; (* [scalar_width] ints per slot *)
  mutable pos : int; (* next write index; invariant pos = next_seq mod cap *)
  mutable next_seq : int;
}

let ring ~capacity =
  let cap = Int.max 2 capacity in
  {
    cap;
    evs = [||];
    scalars = Array.make (cap * scalar_width) 0;
    pos = 0;
    next_seq = 0;
  }

let ring_capacity r = r.cap

let ring_recorded r = r.next_seq

(* Advance the cursor; branch instead of [mod] keeps an integer
   division off the per-event path. *)
let[@inline] advance r i =
  r.next_seq <- r.next_seq + 1;
  r.pos <- (let p = i + 1 in if p = r.cap then 0 else p)

(* One hot event into the next slot: one bounds check covers the
   slot's five stores. *)
let[@inline] record_hot r kind time a b c =
  let i = r.pos in
  let s = i * scalar_width in
  let sc = r.scalars in
  if s + scalar_width > Array.length sc then invalid_arg "Events.record_hot";
  Array.unsafe_set sc s kind;
  Array.unsafe_set sc (s + 1) time;
  Array.unsafe_set sc (s + 2) a;
  Array.unsafe_set sc (s + 3) b;
  Array.unsafe_set sc (s + 4) c;
  advance r i

let record_cold r (ev : event) =
  let i = r.pos in
  if Array.length r.evs = 0 then r.evs <- Array.make r.cap ev;
  r.scalars.(i * scalar_width) <- k_pointer;
  r.evs.(i) <- ev;
  advance r i

let ring_record r (ev : event) =
  match ev.payload with
  | Trace_entered { trace_id; chained } ->
      record_hot r hot_entered ev.time trace_id (Bool.to_int chained) 0
  | Side_exit { trace_id; at_block; matched_instrs } ->
      record_hot r hot_side_exit ev.time trace_id at_block matched_instrs
  | Trace_completed { trace_id; n_blocks; n_instrs } ->
      record_hot r hot_completed ev.time trace_id n_blocks n_instrs
  | Decay_pass { decays } -> record_hot r hot_decay ev.time decays 0 0
  | _ -> record_cold r ev

(* Rebuild one event from its slot (dump path only).  Every slot the
   window walk visits was written, and a pointer-path write seeds
   [evs], so a [k_pointer] slot always has its event. *)
let event_at r i : event =
  let s = i * scalar_width in
  let k = r.scalars.(s) in
  if k = k_pointer then r.evs.(i)
  else
    {
      time = r.scalars.(s + 1);
      payload =
        hot_payload ~kind:k r.scalars.(s + 2) r.scalars.(s + 3)
          r.scalars.(s + 4);
    }

(* Oldest-first reconstruction of the surviving window. *)
let ring_window r =
  let first = Int.max 0 (r.next_seq - r.cap) in
  let acc = ref [] in
  for seq = r.next_seq - 1 downto first do
    acc := (seq, event_at r (seq mod r.cap)) :: !acc
  done;
  !acc

type t = {
  mutable subs : (event -> unit) list; (* in subscription order *)
  mutable now : int;
  mutable emitted : int;
  (* the tap: out-of-band observers (the flight recorder's ring, the
     decision ledger) that see every event but do not count as
     subscribers — [emitted] is unaffected, so a tapped stream with no
     subscriber still reports itself quiet to user code *)
  mutable ring : ring option;
  mutable cold : (event -> unit) option; (* every non-hot event *)
}

let create () =
  { subs = []; now = 0; emitted = 0; ring = None; cold = None }

let enabled t = t.subs <> [] || t.ring <> None || t.cold <> None

let subscribe t f = t.subs <- t.subs @ [ f ]

let set_tap t ~ring ~cold =
  t.ring <- ring;
  t.cold <- Some cold

let set_now t n = t.now <- n

let deliver t ev =
  t.emitted <- t.emitted + 1;
  List.iter (fun f -> f ev) t.subs

let emit t payload =
  if enabled t then begin
    let ev = { time = t.now; payload } in
    (match t.ring with Some r -> ring_record r ev | None -> ());
    (match t.cold with
    | Some f when not (is_hot payload) -> f ev
    | Some _ | None -> ());
    if t.subs <> [] then deliver t ev
  end

(* The hot kinds' emission: scalars into the ring, a payload only when a
   subscriber will read it. *)
let emit_hot t kind a b c =
  (match t.ring with Some r -> record_hot r kind t.now a b c | None -> ());
  if t.subs <> [] then
    deliver t { time = t.now; payload = hot_payload ~kind a b c }

let emit_trace_entered t ~trace_id ~chained =
  emit_hot t hot_entered trace_id (Bool.to_int chained) 0

let emit_side_exit t ~trace_id ~at_block ~matched_instrs =
  emit_hot t hot_side_exit trace_id at_block matched_instrs

let emit_trace_completed t ~trace_id ~n_blocks ~n_instrs =
  emit_hot t hot_completed trace_id n_blocks n_instrs

let emit_decay_pass t ~decays = emit_hot t hot_decay decays 0 0

let emitted t = t.emitted

let kind = function
  | Signal_raised _ -> "signal_raised"
  | Trace_constructed _ -> "trace_constructed"
  | Trace_replaced _ -> "trace_replaced"
  | Trace_entered _ -> "trace_entered"
  | Side_exit _ -> "side_exit"
  | Trace_completed _ -> "trace_completed"
  | Decay_pass _ -> "decay_pass"
  | Path_walked _ -> "path_walked"
  | Phase_snapshot _ -> "phase_snapshot"
  | Invariant_violation _ -> "invariant_violation"
  | Fault_injected _ -> "fault_injected"
  | Trace_quarantined _ -> "trace_quarantined"
  | Trace_evicted _ -> "trace_evicted"
  | Mode_degraded _ -> "mode_degraded"
  | Mode_recovered _ -> "mode_recovered"
  | Cache_restored _ -> "cache_restored"
  | Snapshot_rejected _ -> "snapshot_rejected"
  | Deopt_entered _ -> "deopt_entered"
  | Osr_promoted _ -> "osr_promoted"
  | Trace_compiled _ -> "trace_compiled"
  | Tier_demoted _ -> "tier_demoted"
