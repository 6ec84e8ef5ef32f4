module Layout = Cfg.Layout

(* The trace cache (paper §4.2): a hash table of traces, indexed two ways —
   by entry transition for dispatch, and by full block sequence for
   hash-consing (an identical reconstructed trace is retrieved and relinked
   rather than rebuilt).  Replacing the trace installed at an entry key
   counts as an instability event.

   On top of the paper's design the cache is bounded and self-healing:

   - a capacity cap ([max_traces], 0 = unbounded) evicts a victim
     under pressure instead of growing without bound — the least
     recently dispatched entry under the default Lru policy, or the entry
     with the worst estimated-bytes-per-use ratio under Footprint_aware
     (paper §3.3: the cache should hold as little rarely executed code as
     possible, and a large cold trace wastes more i-cache than a small
     one);
   - a quarantine table blacklists entry transitions whose trace was
     condemned (by a TL2xx check or an injected fault), with exponential
     backoff in cache-clock units and permanent blacklisting after
     [Config.heal_max_rebuilds] condemnations;
   - [install], the one way traces enter the cache, is fallible: it
     refuses quarantined entries and consumes the installing engine's
     injected installation failures, so the builder degrades gracefully
     instead of reinstalling a known-bad trace.

   The cache owns no event stream and keeps no count of its decisions:
   each operation that makes one takes the stream and counters of the
   engine performing it ([~events], [~counts]).  It keeps only its state
   and the totals over every engine using it. *)

type qentry = {
  mutable attempts : int; (* condemnations of this entry so far *)
  mutable until : int; (* cache clock before a rebuild may be attempted *)
}

(* One live entry binding.  Everything a dispatch touches sits in this
   one record: the trace, its LRU stamp and its heat.  [b_first] is the
   context block of the binding's entry key [b_key] (its head is the
   [by_head] slot holding it).  [b_hit] is [Some b_trace], built once
   when the trace is bound, so a lookup hit returns it without
   allocating.  The bindings entered at one head form a chain through
   [b_next], so unbinding one relinks a field instead of copying a
   list. *)
type binding = {
  b_key : int;
  b_first : Layout.gid;
  mutable b_trace : Trace.t;
  mutable b_hit : Trace.t option;
  mutable b_stamp : int; (* LRU use stamp *)
  mutable b_uses : int; (* dispatches entering this entry (heat) *)
  mutable b_next : binding; (* same head; [no_binding] ends the chain *)
}

(* The chain terminator and "no binding" answer; never linked or
   mutated. *)
let rec no_binding =
  {
    b_key = -1;
    b_first = -1;
    b_trace = Trace.none;
    b_hit = None;
    b_stamp = 0;
    b_uses = 0;
    b_next = no_binding;
  }

(* Scratch space the trace builder reuses on every construction through
   this cache, so a construction allocates only what it keeps.  [busy]
   is the builder's re-entrancy guard.  The arrays grow on demand and
   are never shrunk. *)
type scratch = {
  mutable busy : bool;
  mutable path : Bcg.node array;
  mutable corrs : float array;
  mutable roots : Bcg.node array;
  mutable n_roots : int;
  blocks : Layout.gid array;
  mutable n_built : int; (* the construction's outcome so far *)
  mutable n_reused : int;
}

type t = {
  layout : Layout.t;
  by_entry : binding Int_table.t; (* key = first * n_blocks + head *)
  by_head : binding array; (* head -> chain of live bindings entered at it *)
  mutable by_seq : Trace.t array;
      (* the hash-cons index: open addressing on [Trace.seq_hash] with
         linear probing; [Trace.none] is an empty slot, [seq_gone] a
         purged one *)
  mutable seq_live : int; (* traces in [by_seq] *)
  mutable seq_used : int; (* slots that are not empty: live or purged *)
  scratch : scratch;
  max_traces : int; (* live-trace cap; 0 = unbounded *)
  policy : Config.Cache.eviction_policy; (* victim selection under pressure *)
  quarantine : (int, qentry) Hashtbl.t; (* entry key -> blacklist record *)
  mutable stamp : int; (* monotone use counter for LRU *)
  mutable clock : int; (* engine dispatch count, drives backoff *)
  mutable session : int; (* id of the session currently dispatching; 0 solo *)
  mutable live_blocks : int; (* sum of block counts over by_entry *)
  mutable next_id : int;
  mutable constructed : int; (* traces newly built, by any engine *)
  mutable evicted : int; (* capacity and pressure evictions, by any engine *)
  mutable demote_refusals : int;
      (* tier demotions refused because the compiled trace was pinned *)
  mutable cross_installs : int;
      (* hash-cons hits where the cached trace was built by another
         session — a construction this session never had to pay for *)
  mutable cross_entries : int;
      (* dispatch lookups entering a trace built by another session *)
}

let seq_initial = 256

let create ?(max_traces = 0) ?(eviction_policy = Config.Cache.Lru)
    (layout : Layout.t) =
  if max_traces < 0 then invalid_arg "Trace_cache.create: max_traces < 0";
  {
    layout;
    by_entry = Int_table.create 256;
    by_head = Array.make layout.Layout.n_blocks no_binding;
    by_seq = Array.make seq_initial Trace.none;
    seq_live = 0;
    seq_used = 0;
    scratch =
      {
        busy = false;
        path = [||];
        corrs = [||];
        roots = [||];
        n_roots = 0;
        blocks = Array.make Config.max_trace_blocks 0;
        n_built = 0;
        n_reused = 0;
      };
    max_traces;
    policy = eviction_policy;
    quarantine = Hashtbl.create 16;
    stamp = 0;
    clock = 0;
    session = 0;
    live_blocks = 0;
    next_id = 0;
    constructed = 0;
    evicted = 0;
    demote_refusals = 0;
    cross_installs = 0;
    cross_entries = 0;
  }

let layout t = t.layout

let entry_key_int t ~first ~head = (first * t.layout.Layout.n_blocks) + head

let scratch t = t.scratch

let set_clock t now = t.clock <- now

(* A shared cache serves several sessions in turn; the [Session] layer
   announces whose dispatches follow so cross-session reuse can be
   attributed.  Solo engines leave this at 0 and pay nothing. *)
let set_session t id = t.session <- id

let touch t b =
  t.stamp <- t.stamp + 1;
  b.b_stamp <- t.stamp;
  b.b_uses <- b.b_uses + 1

(* The [by_head] slot and context block of an entry key: floor
   division, so every key (even one built from an out-of-range [first])
   maps back to exactly one (first, head) pair. *)
let slot_of_key t ekey =
  let h = ekey mod t.layout.Layout.n_blocks in
  if h < 0 then h + t.layout.Layout.n_blocks else h

let first_of_key t ekey = (ekey - slot_of_key t ekey) / t.layout.Layout.n_blocks

let rec find_in first b =
  if b == no_binding || b.b_first = first then b else find_in first b.b_next

(* The binding at [ekey], or [no_binding]. *)
let binding t ekey = find_in (first_of_key t ekey) t.by_head.(slot_of_key t ekey)

(* Execution pins.  The dispatch loop pins a trace for as long as it is
   being followed; eviction ([pick_victim]) and condemnation
   ([quarantine]) must never pull a trace out from under a running
   dispatch — before pinning existed nothing guarded this, and OSR makes
   the window live (a deopt needs the trace it is abandoning intact).
   The refcount lives on the trace ([Trace.pins]), so a pin is two field
   writes; the cache only counts how many traces are pinned. *)

let pin _t (tr : Trace.t) = tr.Trace.pins <- tr.Trace.pins + 1

(* an unbalanced unpin is a no-op *)
let unpin _t (tr : Trace.t) =
  if tr.Trace.pins > 0 then tr.Trace.pins <- tr.Trace.pins - 1

let is_pinned _t (tr : Trace.t) = tr.Trace.pins > 0

let n_demote_refusals t = t.demote_refusals

(* The compiled tier's view of the live cache.  A pin also protects the
   lowered body: demoting a trace out from under the dispatch loop that
   is following its micro-IR would leave the loop's accounting pointing
   at freed state, so [demote_lowered] refuses exactly like
   [quarantine] does. *)

let trace_uses t (tr : Trace.t) =
  (binding t (entry_key_int t ~first:tr.Trace.first ~head:tr.Trace.blocks.(0)))
    .b_uses

let n_compiled t =
  Int_table.fold
    (fun _ b acc -> if b.b_trace.Trace.lowered <> None then acc + 1 else acc)
    t.by_entry 0

let demote_lowered t (tr : Trace.t) =
  if tr.Trace.lowered = None then false
  else if is_pinned t tr then begin
    t.demote_refusals <- t.demote_refusals + 1;
    false
  end
  else begin
    tr.Trace.lowered <- None;
    true
  end

let coldest_compiled t ~(excluding : Trace.t option) : Trace.t option =
  let best = ref None in
  Int_table.iter
    (fun _ { b_trace = tr; _ } ->
      if
        tr.Trace.lowered <> None
        && (not (is_pinned t tr))
        && not
             (match excluding with Some e -> e == tr | None -> false)
      then
        let uses = trace_uses t tr in
        match !best with
        | Some (_, b) when b <= uses -> ()
        | _ -> best := Some (tr, uses))
    t.by_entry;
  match !best with Some (tr, _) -> Some tr | None -> None

let in_layout t g = g >= 0 && g < t.layout.Layout.n_blocks

(* Dispatch lookup: is there a trace entered by the transition
   (prev, cur)?  A scan of [cur]'s slot; a hit is a touch of the
   binding's fields and returns its prebuilt option. *)
let rec enter_in t prev b =
  if b == no_binding then None
  else if b.b_first = prev then begin
    touch t b;
    if b.b_trace.Trace.owner <> t.session then
      t.cross_entries <- t.cross_entries + 1;
    b.b_hit
  end
  else enter_in t prev b.b_next

let lookup t ~prev ~cur : Trace.t option =
  if prev < 0 || not (in_layout t cur) then None
  else enter_in t prev t.by_head.(cur)

(* Non-dispatch lookup: same binding, but no LRU touch and no
   cross-session accounting — tests use this to inspect a binding
   without heating it. *)
let peek t ~first ~head : Trace.t option =
  if first < 0 || not (in_layout t head) then None
  else (find_in first t.by_head.(head)).b_hit

(* The hash-cons index.  A probe compares the candidate slice with the
   body of each trace filed under the same hash, so nothing is copied to
   look a sequence up.  Every trace in the index still has the body it
   was filed under: [set_block] takes a trace out before a fault
   corrupts it. *)

(* A purged slot: probes continue past it, inserts reuse it. *)
let seq_gone = { Trace.none with Trace.id = -2 }

let rec seq_probe slots mask i ~hash ~first blocks ~len =
  let tr = Array.unsafe_get slots i in
  if tr == Trace.none then tr
  else if
    tr != seq_gone && tr.Trace.seq_hash = hash
    && Trace.has_sequence tr ~first blocks ~len
  then tr
  else seq_probe slots mask ((i + 1) land mask) ~hash ~first blocks ~len

(* The cached trace with sequence [first, blocks.(0 .. len-1)], or
   [Trace.none]. *)
let seq_find t ~hash ~first blocks ~len =
  let mask = Array.length t.by_seq - 1 in
  seq_probe t.by_seq mask (hash land mask) ~hash ~first blocks ~len

let rec free_slot slots mask i =
  let tr = Array.unsafe_get slots i in
  if tr == Trace.none || tr == seq_gone then i
  else free_slot slots mask ((i + 1) land mask)

let seq_insert slots (tr : Trace.t) =
  let mask = Array.length slots - 1 in
  let i = free_slot slots mask (tr.Trace.seq_hash land mask) in
  let fresh = slots.(i) == Trace.none in
  slots.(i) <- tr;
  fresh

(* File a new trace, first rebuilding the index without its purged
   slots when it would be more than half full: growth, the only time
   the index allocates. *)
let seq_add t (tr : Trace.t) =
  if 2 * (t.seq_used + 1) > Array.length t.by_seq then begin
    let size = ref seq_initial in
    while 4 * (t.seq_live + 1) > !size do
      size := 2 * !size
    done;
    let slots = Array.make !size Trace.none in
    Array.iter
      (fun tr ->
        if tr != Trace.none && tr != seq_gone then ignore (seq_insert slots tr))
      t.by_seq;
    t.by_seq <- slots;
    t.seq_used <- t.seq_live
  end;
  if seq_insert t.by_seq tr then t.seq_used <- t.seq_used + 1;
  t.seq_live <- t.seq_live + 1

let rec slot_of slots mask i (tr : Trace.t) =
  let s = Array.unsafe_get slots i in
  if s == tr then i
  else if s == Trace.none then -1
  else slot_of slots mask ((i + 1) land mask) tr

(* Take this exact trace out of the hash-cons index, so a condemned or
   evicted trace is never resurrected by hash-consing: one probe
   sequence from the hash it was filed under. *)
let purge_seq t (tr : Trace.t) =
  let mask = Array.length t.by_seq - 1 in
  let i = slot_of t.by_seq mask (tr.Trace.seq_hash land mask) tr in
  if i >= 0 then begin
    t.by_seq.(i) <- seq_gone;
    t.seq_live <- t.seq_live - 1
  end

(* FT001's write: overwrite position [i] of [tr]'s body with [g].  The
   trace leaves the hash-cons index first, so rebuilding its sequence
   constructs a clean trace; it stays bound to its entry until a check
   catches it (its later unbind finds nothing left to purge). *)
let set_block t (tr : Trace.t) i g =
  purge_seq t tr;
  tr.Trace.blocks.(i) <- g

(* Take [b] out of its head's chain. *)
let unlink t b =
  let h = slot_of_key t b.b_key in
  let p = t.by_head.(h) in
  if p == b then t.by_head.(h) <- b.b_next
  else begin
    let p = ref p in
    while !p != no_binding && (!p).b_next != b do
      p := (!p).b_next
    done;
    if !p != no_binding then (!p).b_next <- b.b_next
  end;
  b.b_next <- no_binding

(* Unbind one live entry: the displaced trace also leaves the hash-cons
   table, so rebuilding it later constructs (and re-validates) it afresh. *)
let unbind t b =
  let tr = b.b_trace in
  Int_table.remove t.by_entry b.b_key;
  unlink t b;
  t.live_blocks <- t.live_blocks - Array.length tr.Trace.blocks;
  (* leaving the cache frees the compiled-tier slot too (no Tier_demoted
     event: the eviction/quarantine event already covers the removal) *)
  tr.Trace.lowered <- None;
  purge_seq t tr

let n_live t = Int_table.length t.by_entry

(* Called after [unbind], with the victim's binding for its scoring
   inputs. *)
let emit_evicted t ~events b ~reason =
  if Events.enabled events then begin
    let n = t.layout.Layout.n_blocks and ekey = b.b_key in
    Events.emit events
      (Events.Trace_evicted
         {
           trace_id = b.b_trace.Trace.id;
           first = ekey / n;
           head = ekey mod n;
           n_live = n_live t;
           reason;
           footprint = Footprint_model.trace_bytes b.b_trace;
           heat = b.b_uses;
           stamp = b.b_stamp;
         })
  end

(* Estimated i-cache bytes this entry pays per use — the footprint/heat
   ratio (shared byte model: [Footprint_model]).  A large rarely-entered
   trace scores high (bad); a hot trace of any size scores low. *)
let[@inline] footprint_score b =
  float_of_int (Footprint_model.trace_bytes b.b_trace)
  /. float_of_int (1 + b.b_uses)

(* Pick the victim the configured policy condemns (never [keep], the
   entry just installed, and never a pinned trace): the smallest LRU
   stamp under [Lru], the worst footprint/heat ratio (ties broken by
   older stamp) under [Footprint_aware].  Stamps are unique, so the
   victim does not depend on the order the bindings are visited in.
   Returns [no_binding] when nothing is evictable. *)
let pick_victim t ~keep =
  let victim = ref no_binding in
  let best_score = ref neg_infinity in
  let footprint = t.policy = Config.Cache.Footprint_aware in
  for h = 0 to Array.length t.by_head - 1 do
    let b = ref t.by_head.(h) in
    while !b != no_binding do
      let c = !b in
      if c.b_key <> keep && not (is_pinned t c.b_trace) then begin
        if footprint then begin
          let score = footprint_score c in
          if
            score > !best_score
            || score = !best_score
               && (!victim == no_binding || c.b_stamp < !victim.b_stamp)
          then begin
            best_score := score;
            victim := c
          end
        end
        else if !victim == no_binding || c.b_stamp < !victim.b_stamp then
          victim := c
      end;
      b := c.b_next
    done
  done;
  !victim

(* Evict one live entry chosen by the policy.  [reason] says who asked —
   capacity caps or an injected pressure fault.  Returns false when
   nothing is evictable. *)
let evict_one t ~events ~(counts : Stats.t) ~keep ~reason =
  let b = pick_victim t ~keep in
  b != no_binding
  && begin
       unbind t b;
       t.evicted <- t.evicted + 1;
       counts.Stats.traces_evicted <- counts.Stats.traces_evicted + 1;
       emit_evicted t ~events b ~reason;
       true
     end

let over_capacity t = t.max_traces > 0 && n_live t > t.max_traces

let rec enforce_caps t ~events ~counts ~keep =
  if
    over_capacity t
    && evict_one t ~events ~counts ~keep ~reason:Events.Capacity
  then enforce_caps t ~events ~counts ~keep

(* Bind [tr] at [ekey] and count the binding as used.  Rebinding an
   entry to another trace keeps its stamp and heat, which belong to the
   entry. *)
let bind t ekey (tr : Trace.t) =
  let b = binding t ekey in
  let b =
    if b != no_binding then begin
      if b.b_trace != tr then begin
        t.live_blocks <-
          t.live_blocks
          - Array.length b.b_trace.Trace.blocks
          + Array.length tr.Trace.blocks;
        b.b_trace <- tr;
        b.b_hit <- Some tr
      end;
      b
    end
    else begin
      t.live_blocks <- t.live_blocks + Array.length tr.Trace.blocks;
      let h = slot_of_key t ekey in
      let b =
        {
          b_key = ekey;
          b_first = first_of_key t ekey;
          b_trace = tr;
          b_hit = Some tr;
          b_stamp = 0;
          b_uses = 0;
          b_next = t.by_head.(h);
        }
      in
      Int_table.replace t.by_entry ekey b;
      t.by_head.(h) <- b;
      b
    end
  in
  touch t b;
  b

(* Quarantine bookkeeping *)

let is_quarantined t ~first ~head =
  match Hashtbl.find_opt t.quarantine (entry_key_int t ~first ~head) with
  | Some q -> q.until > t.clock
  | None -> false

let n_quarantine_active t =
  Hashtbl.fold (fun _ q acc -> if q.until > t.clock then acc + 1 else acc)
    t.quarantine 0

let quarantine t ~events ~(counts : Stats.t) ~first ~head ~code :
    Trace.t option =
  let ekey = entry_key_int t ~first ~head in
  let bound = binding t ekey in
  if bound != no_binding && is_pinned t bound.b_trace then begin
    (* Refuse wholly: no unbind, no blacklist record — the trace is
       being executed right now.  Under OSR the caller deopts (and
       unpins) first and retries; without OSR a later sweep or
       dispatch validation re-detects the fault once the trace has
       exited.  The refusal is counted, not silently dropped. *)
    counts.Stats.pin_refusals <- counts.Stats.pin_refusals + 1;
    None
  end
  else
  let removed =
    if bound != no_binding then begin
      unbind t bound;
      (* not counted in [evicted] (that is capacity accounting) but
         visible in the timeline with its own reason *)
      emit_evicted t ~events bound ~reason:Events.Quarantine;
      bound.b_hit
    end
    else None
  in
  let q =
    match Hashtbl.find_opt t.quarantine ekey with
    | Some q -> q
    | None ->
        let q = { attempts = 0; until = 0 } in
        Hashtbl.replace t.quarantine ekey q;
        q
  in
  q.attempts <- q.attempts + 1;
  counts.Stats.traces_quarantined <- counts.Stats.traces_quarantined + 1;
  if q.attempts > Config.heal_max_rebuilds then begin
    if q.until <> max_int then
      counts.Stats.traces_blacklisted <- counts.Stats.traces_blacklisted + 1;
    q.until <- max_int
  end
  else
    (* exponential backoff: backoff * 2^(attempts-1) clock units *)
    q.until <-
      t.clock + (Config.heal_backoff * (1 lsl Int.min (q.attempts - 1) 20));
  if Events.enabled events then
    Events.emit events
      (Events.Trace_quarantined
         {
           trace_id = (match removed with Some tr -> tr.Trace.id | None -> -1);
           first;
           head;
           code;
           attempts = q.attempts;
           until = q.until;
         });
  removed

let remove t ~first ~head : Trace.t option =
  let b = binding t (entry_key_int t ~first ~head) in
  if b == no_binding then None
  else begin
    unbind t b;
    b.b_hit
  end

(* A rebound entry is an instability event. *)
let replaced ~events ~(counts : Stats.t) ~first ~head (tr : Trace.t) =
  counts.Stats.traces_replaced <- counts.Stats.traces_replaced + 1;
  if Events.enabled events then
    Events.emit events
      (Events.Trace_replaced { first; head; trace_id = tr.Trace.id })

(* Install the candidate [first, blocks.(0 .. len-1)], unless its entry
   is quarantined or the installing engine has an injected failure
   pending ([fail] consumes one).  If an identical trace is already
   cached we keep it (hash-cons hit); otherwise a new trace is
   constructed from a copy of the slice and bound to its entry
   transition, displacing any previous binding.  Returns the installed
   trace, or [Trace.none] when refused; only a new trace allocates. *)
let[@inline] install ?fail t ~events ~(counts : Stats.t) ~first
    ~(blocks : Layout.gid array) ~len ~prob : Trace.t =
  if len = 0 || is_quarantined t ~first ~head:blocks.(0) then Trace.none
  else if match fail with Some f -> f () | None -> false then begin
    counts.Stats.failed_installs <- counts.Stats.failed_installs + 1;
    Trace.none
  end
  else begin
    let head = blocks.(0) in
    let ekey = entry_key_int t ~first ~head in
    let hash = Trace.hash_seq ~first blocks ~len in
    let existing = seq_find t ~hash ~first blocks ~len in
    let tr =
      if existing != Trace.none then begin
        if existing.Trace.owner <> t.session then
          t.cross_installs <- t.cross_installs + 1;
        (* make sure it is (still) the trace bound to its entry *)
        let b = binding t ekey in
        if b != no_binding && b.b_trace != existing then
          replaced ~events ~counts ~first ~head existing;
        existing
      end
      else begin
        let id = t.next_id in
        t.next_id <- id + 1;
        let tr =
          Trace.make ~id ~layout:t.layout ~first
            ~blocks:(Array.sub blocks 0 len) ~prob
        in
        tr.Trace.owner <- t.session;
        t.constructed <- t.constructed + 1;
        seq_add t tr;
        if binding t ekey != no_binding then
          replaced ~events ~counts ~first ~head tr;
        tr
      end
    in
    ignore (bind t ekey tr);
    enforce_caps t ~events ~counts ~keep:ekey;
    tr
  end

let pressure_evict t ~events ~counts ~down_to =
  let down_to = Int.max 0 down_to in
  (* the reason tag records which policy chose the victim, so the
     timeline can distinguish an LRU pressure eviction from a
     footprint-scored one *)
  let reason =
    match t.policy with
    | Config.Cache.Lru -> Events.Pressure
    | Config.Cache.Footprint_aware -> Events.Footprint
  in
  let rec go n =
    if n_live t > down_to && evict_one t ~events ~counts ~keep:min_int ~reason
    then go (n + 1)
    else n
  in
  go 0

(* Warm-start snapshots.  A snapshot captures the live cache — entry
   bindings, completion probabilities and per-entry heat — in canonical
   (entry-key) order, so snapshotting, restoring and snapshotting again
   yields the same value bit for bit.  Counters, quarantine records and
   LRU stamps are runtime state, not cache contents, and are not
   captured. *)

type entry_snap = {
  snap_first : Layout.gid;
  snap_blocks : Layout.gid array;
  snap_prob : float;
  snap_heat : int; (* use count, so footprint-aware eviction stays warm *)
}

let snapshot t : entry_snap list =
  let entries = ref [] in
  Int_table.iter
    (fun ekey { b_trace = tr; b_uses; _ } ->
      entries :=
        ( ekey,
          {
            snap_first = tr.Trace.first;
            snap_blocks = Array.copy tr.Trace.blocks;
            snap_prob = tr.Trace.prob;
            snap_heat = b_uses;
          } )
        :: !entries)
    t.by_entry;
  List.sort (fun (a, _) (b, _) -> compare a b) !entries |> List.map snd

let restore ?promoted_below t ~events ~counts (snaps : entry_snap list) : int =
  List.iter
    (fun snap ->
      if Array.length snap.snap_blocks = 0 then
        invalid_arg "Trace_cache.restore: empty block sequence";
      let first = snap.snap_first and blocks = snap.snap_blocks in
      let len = Array.length blocks in
      let ekey = entry_key_int t ~first ~head:blocks.(0) in
      let existing =
        seq_find t ~hash:(Trace.hash_seq ~first blocks ~len) ~first blocks ~len
      in
      let tr =
        if existing != Trace.none then existing
        else begin
            let id = t.next_id in
            t.next_id <- id + 1;
            let tr =
              Trace.make ~id ~layout:t.layout ~first ~blocks
                ~prob:snap.snap_prob
            in
            tr.Trace.owner <- t.session;
            (* the cutter never commits below the threshold, so a
               sub-threshold snapshot can only be a promoted loop trace *)
            (match promoted_below with
            | Some threshold when snap.snap_prob < threshold ->
                tr.Trace.promoted <- true
            | _ -> ());
            seq_add t tr;
            tr
          end
      in
      let b = bind t ekey tr in
      (* the snapshot's heat replaces the single use [bind] just stamped *)
      b.b_uses <- snap.snap_heat;
      enforce_caps t ~events ~counts ~keep:ekey)
    snaps;
  List.length snaps

let iter t f = Int_table.iter (fun _ b -> f b.b_trace) t.by_entry

(* Decode the packed entry key so checkers can compare the binding against
   the trace's own entry transition. *)
let iter_entries t f =
  let n = t.layout.Layout.n_blocks in
  Int_table.iter
    (fun key b -> f ~first:(key / n) ~head:(key mod n) b.b_trace)
    t.by_entry

(* The traces still reachable, oldest first: the index (displaced
   traces included) plus the bound traces a fault took out of it.  A
   trace in both is visited once (ids are unique within a cache). *)
let iter_all t f =
  let indexed =
    Array.fold_left
      (fun acc tr ->
        if tr == Trace.none || tr == seq_gone then acc else tr :: acc)
      [] t.by_seq
  in
  let all =
    Array.of_list
      (Int_table.fold (fun _ b acc -> b.b_trace :: acc) t.by_entry indexed)
  in
  Array.sort (fun (a : Trace.t) b -> Int.compare a.Trace.id b.Trace.id) all;
  Array.iteri
    (fun i (tr : Trace.t) ->
      if i = 0 || all.(i - 1).Trace.id <> tr.Trace.id then f tr)
    all

let n_constructed t = t.constructed

let footprint_bytes t =
  Int_table.fold
    (fun _ b acc -> acc + Footprint_model.trace_bytes b.b_trace)
    t.by_entry 0

let live_blocks t = t.live_blocks

let n_evicted t = t.evicted

let n_cross_installs t = t.cross_installs

let n_cross_entries t = t.cross_entries

