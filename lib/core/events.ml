(* The typed event stream.

   A stream is a list of subscribers kept in subscription order, an
   optional tap (the flight recorder's intake) and a logical clock (the
   engine's dispatch index).  Emission is synchronous; the disabled
   stream (no subscribers, no tap) is a no-op, and emission sites guard
   payload construction behind [enabled].

   The four per-dispatch kinds — trace entry, side exit, completion and
   decay ticks — travel as scalars instead: a kind code and up to four
   int fields.  The tap always receives them that way, and their payload
   record is built only for subscribers, so an armed recorder with no
   subscriber costs no allocation on the dispatch path. *)

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
      n_blocks : int;
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
  | Side_exit of {
      trace_id : int;
      at_block : int;
      matched_blocks : int;
      matched_instrs : int;
    }
  | Trace_completed of { trace_id : int; n_blocks : int; n_instrs : int }
  | Decay_pass of { decays : int }
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
let hot_side_exit = 2 (* trace_id, at_block, matched_blocks, matched_instrs *)
let hot_completed = 3 (* trace_id, n_blocks, n_instrs *)
let hot_decay = 4 (* decays *)

let hot_payload ~kind a b c d =
  if kind = hot_entered then Trace_entered { trace_id = a; chained = b <> 0 }
  else if kind = hot_side_exit then
    Side_exit
      { trace_id = a; at_block = b; matched_blocks = c; matched_instrs = d }
  else if kind = hot_completed then
    Trace_completed { trace_id = a; n_blocks = b; n_instrs = c }
  else if kind = hot_decay then Decay_pass { decays = a }
  else invalid_arg "Events.hot_payload: not a hot kind"

type sink = {
  hot : int -> int -> int -> int -> int -> int -> unit;
      (* kind, time, then the kind's four int fields (unused ones 0) *)
  cold : event -> unit;
}

let route sink (ev : event) =
  match ev.payload with
  | Trace_entered { trace_id; chained } ->
      sink.hot hot_entered ev.time trace_id (Bool.to_int chained) 0 0
  | Side_exit { trace_id; at_block; matched_blocks; matched_instrs } ->
      sink.hot hot_side_exit ev.time trace_id at_block matched_blocks
        matched_instrs
  | Trace_completed { trace_id; n_blocks; n_instrs } ->
      sink.hot hot_completed ev.time trace_id n_blocks n_instrs 0
  | Decay_pass { decays } -> sink.hot hot_decay ev.time decays 0 0 0
  | _ -> sink.cold ev

type subscription = int

type t = {
  mutable subs : (subscription * (event -> unit)) list;
      (* in subscription order *)
  mutable next_sub : subscription;
  mutable now : int;
  mutable emitted : int;
  mutable tap : sink option;
      (* out-of-band observer (the flight recorder): sees every event
         but does not count as a subscriber — [emitted] and
         [n_subscribers] are unaffected, so a tapped-but-unsubscribed
         stream still reports itself quiet to user code *)
}

let create () = { subs = []; next_sub = 0; now = 0; emitted = 0; tap = None }

let enabled t = t.subs <> [] || t.tap <> None

let subscribe t f =
  let id = t.next_sub in
  t.next_sub <- id + 1;
  t.subs <- t.subs @ [ (id, f) ];
  id

let unsubscribe t id = t.subs <- List.filter (fun (i, _) -> i <> id) t.subs

let n_subscribers t = List.length t.subs

let set_tap t sink = t.tap <- Some sink

let set_now t n = t.now <- n

let now t = t.now

let deliver t ev =
  t.emitted <- t.emitted + 1;
  List.iter (fun (_, f) -> f ev) t.subs

let emit t payload =
  match (t.subs, t.tap) with
  | [], None -> ()
  | subs, tap ->
      let ev = { time = t.now; payload } in
      (match tap with Some sink -> route sink ev | None -> ());
      if subs <> [] then deliver t ev

(* The hot kinds' emission: scalars to the tap, a payload only when a
   subscriber will read it. *)
let emit_hot t kind a b c d =
  (match t.tap with Some sink -> sink.hot kind t.now a b c d | None -> ());
  if t.subs <> [] then
    deliver t { time = t.now; payload = hot_payload ~kind a b c d }

let emit_trace_entered t ~trace_id ~chained =
  emit_hot t hot_entered trace_id (Bool.to_int chained) 0 0

let emit_side_exit t ~trace_id ~at_block ~matched_blocks ~matched_instrs =
  emit_hot t hot_side_exit trace_id at_block matched_blocks matched_instrs

let emit_trace_completed t ~trace_id ~n_blocks ~n_instrs =
  emit_hot t hot_completed trace_id n_blocks n_instrs 0

let emit_decay_pass t ~decays = emit_hot t hot_decay decays 0 0 0

let emitted t = t.emitted

let kind = function
  | Signal_raised _ -> "signal_raised"
  | Trace_constructed _ -> "trace_constructed"
  | Trace_replaced _ -> "trace_replaced"
  | Trace_entered _ -> "trace_entered"
  | Side_exit _ -> "side_exit"
  | Trace_completed _ -> "trace_completed"
  | Decay_pass _ -> "decay_pass"
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
