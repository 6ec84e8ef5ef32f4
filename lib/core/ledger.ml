(* Decision ledger: the decision-kind events of one engine's stream,
   each with the span open when it arrived.  The engine's event tap
   feeds it (cold side only: no hot kind is a decision), so the ledger
   holds the same payloads the stream delivered, never a second copy of
   their fields.  Storage is a doubling array. *)

let kinds =
  [
    "trace_constructed";
    "trace_replaced";
    "guards_pruned";
    "trace_quarantined";
    "trace_evicted";
    "trace_compiled";
    "tier_demoted";
    "osr_promoted";
    "deopt_entered";
  ]

type entry = { span : int; event : Events.event }

type t = { mutable store : entry array; mutable n : int }

let create () = { store = [||]; n = 0 }

let length t = t.n

let observe t ~span (event : Events.event) =
  if List.mem (Events.kind event.Events.payload) kinds then begin
    let e = { span; event } in
    if t.n = Array.length t.store then begin
      let store = Array.make (max 64 (2 * t.n)) e in
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
