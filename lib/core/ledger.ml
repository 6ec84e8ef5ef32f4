(* Decision ledger: the decision-kind events of one engine's stream.
   The engine's event tap feeds it (cold side only: no hot kind is a
   decision), so the ledger holds the same events the stream delivered,
   never a second copy of their fields.  Storage is a doubling array
   seeded with [Events.filler], never with the event being recorded:
   past 256 records the array outgrows [Max_young_wosize], and seeding
   it with a young event would force a minor collection.  Only the
   first [n] entries are read. *)

let kinds =
  [
    "trace_constructed";
    "trace_replaced";
    "trace_quarantined";
    "trace_evicted";
    "trace_compiled";
    "tier_demoted";
    "osr_promoted";
    "deopt_entered";
  ]

(* The same set as [kinds], decided by constructor; exhaustive, so a new
   payload must be classified. *)
let is_decision : Events.payload -> bool = function
  | Events.Trace_constructed _ | Events.Trace_replaced _
  | Events.Trace_quarantined _ | Events.Trace_evicted _
  | Events.Trace_compiled _ | Events.Tier_demoted _ | Events.Osr_promoted _
  | Events.Deopt_entered _ ->
      true
  | Events.Signal_raised _ | Events.Trace_entered _ | Events.Side_exit _
  | Events.Trace_completed _ | Events.Decay_pass _ | Events.Path_walked _
  | Events.Phase_snapshot _ | Events.Invariant_violation _
  | Events.Fault_injected _ | Events.Mode_degraded _ | Events.Mode_recovered _
  | Events.Cache_restored _ | Events.Snapshot_rejected _ ->
      false

type t = { mutable store : Events.event array; mutable n : int }

let create () = { store = [||]; n = 0 }

let length t = t.n

let observe t (e : Events.event) =
  if is_decision e.Events.payload then begin
    if t.n = Array.length t.store then begin
      let store = Array.make (Int.max 64 (2 * t.n)) Events.filler in
      Array.blit t.store 0 store 0 t.n;
      t.store <- store
    end;
    t.store.(t.n) <- e;
    t.n <- t.n + 1
  end

let iter f t =
  for i = 0 to t.n - 1 do
    f t.store.(i)
  done

let to_list t = List.init t.n (fun i -> t.store.(i))
