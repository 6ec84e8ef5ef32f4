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
   - [try_install] is the fallible front door the trace builder uses: it
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
   context block of the binding's entry key (its head is the [by_head]
   slot holding it).  [b_hit] is [Some b_trace], built once when the
   trace is bound, so a lookup hit returns it without allocating. *)
type binding = {
  b_first : Layout.gid;
  mutable b_trace : Trace.t;
  mutable b_hit : Trace.t option;
  mutable b_stamp : int; (* LRU use stamp *)
  mutable b_uses : int; (* dispatches entering this entry (heat) *)
}

type t = {
  layout : Layout.t;
  by_entry : binding Int_table.t; (* key = first * n_blocks + head *)
  by_head : binding list array; (* head -> live bindings entered at it *)
  by_seq : (string, Trace.t) Hashtbl.t; (* structural key *)
  max_traces : int; (* live-trace cap; 0 = unbounded *)
  policy : Config.Cache.eviction_policy; (* victim selection under pressure *)
  quarantine : (int, qentry) Hashtbl.t; (* entry key -> blacklist record *)
  mutable n_pinned : int; (* traces with [pins > 0] *)
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

let create ?(max_traces = 0) ?(eviction_policy = Config.Cache.Lru)
    (layout : Layout.t) =
  if max_traces < 0 then invalid_arg "Trace_cache.create: max_traces < 0";
  {
    layout;
    by_entry = Int_table.create 256;
    by_head = Array.make layout.Layout.n_blocks [];
    by_seq = Hashtbl.create 256;
    max_traces;
    policy = eviction_policy;
    quarantine = Hashtbl.create 16;
    n_pinned = 0;
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

let seq_key ~first ~(blocks : Layout.gid array) =
  let buf = Buffer.create (4 * (Array.length blocks + 1)) in
  Buffer.add_string buf (string_of_int first);
  Array.iter
    (fun g ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int g))
    blocks;
  Buffer.contents buf

let set_clock t now = t.clock <- now

(* A shared cache serves several sessions in turn; the [Session] layer
   announces whose dispatches follow so cross-session reuse can be
   attributed.  Solo engines leave this at 0 and pay nothing. *)
let set_session t id = t.session <- id

let session t = t.session

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

let rec find_in first = function
  | [] -> None
  | b :: rest -> if b.b_first = first then Some b else find_in first rest

let binding t ekey = find_in (first_of_key t ekey) t.by_head.(slot_of_key t ekey)

(* Execution pins.  The dispatch loop pins a trace for as long as it is
   being followed; eviction ([pick_victim]) and condemnation
   ([quarantine]) must never pull a trace out from under a running
   dispatch — before pinning existed nothing guarded this, and OSR makes
   the window live (a deopt needs the trace it is abandoning intact).
   The refcount lives on the trace ([Trace.pins]), so a pin is two field
   writes; the cache only counts how many traces are pinned. *)

let pin t (tr : Trace.t) =
  if tr.Trace.pins = 0 then t.n_pinned <- t.n_pinned + 1;
  tr.Trace.pins <- tr.Trace.pins + 1

let unpin t (tr : Trace.t) =
  (* an unbalanced unpin is a no-op *)
  if tr.Trace.pins > 0 then begin
    tr.Trace.pins <- tr.Trace.pins - 1;
    if tr.Trace.pins = 0 then t.n_pinned <- t.n_pinned - 1
  end

let is_pinned _t (tr : Trace.t) = tr.Trace.pins > 0

let n_pinned t = t.n_pinned

let n_demote_refusals t = t.demote_refusals

(* The compiled tier's view of the live cache.  A pin also protects the
   lowered body: demoting a trace out from under the dispatch loop that
   is following its micro-IR would leave the loop's accounting pointing
   at freed state, so [demote_lowered] refuses exactly like
   [quarantine] does. *)

let trace_uses t (tr : Trace.t) =
  match
    binding t (entry_key_int t ~first:tr.Trace.first ~head:tr.Trace.blocks.(0))
  with
  | Some b -> b.b_uses
  | None -> 0

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
let rec enter_in t prev = function
  | [] -> None
  | b :: rest ->
      if b.b_first = prev then begin
        touch t b;
        if b.b_trace.Trace.owner <> t.session then
          t.cross_entries <- t.cross_entries + 1;
        b.b_hit
      end
      else enter_in t prev rest

let lookup t ~prev ~cur : Trace.t option =
  if prev < 0 || not (in_layout t cur) then None
  else enter_in t prev t.by_head.(cur)

(* Non-dispatch lookup: same binding, but no LRU touch and no
   cross-session accounting — tests use this to inspect a binding
   without heating it. *)
let rec hit_in first = function
  | [] -> None
  | b :: rest -> if b.b_first = first then b.b_hit else hit_in first rest

let peek t ~first ~head : Trace.t option =
  if first < 0 || not (in_layout t head) then None
  else hit_in first t.by_head.(head)

(* Purge every by_seq binding of this exact trace.  A corrupted trace's
   sequence key is stale (the blocks changed under it), so a key lookup
   cannot be trusted — a physical-equality scan can.  Purging prevents a
   condemned or evicted trace from being resurrected by hash-consing. *)
let purge_seq t (tr : Trace.t) =
  let stale = ref [] in
  Hashtbl.iter (fun k v -> if v == tr then stale := k :: !stale) t.by_seq;
  List.iter (Hashtbl.remove t.by_seq) !stale

(* Unbind one live entry: the displaced trace also leaves the hash-cons
   table, so rebuilding it later constructs (and re-validates) it afresh. *)
let unbind t ekey (tr : Trace.t) =
  Int_table.remove t.by_entry ekey;
  let h = slot_of_key t ekey and first = first_of_key t ekey in
  t.by_head.(h) <- List.filter (fun b -> b.b_first <> first) t.by_head.(h);
  t.live_blocks <- t.live_blocks - Array.length tr.Trace.blocks;
  (* leaving the cache frees the compiled-tier slot too (no Tier_demoted
     event: the eviction/quarantine event already covers the removal) *)
  tr.Trace.lowered <- None;
  purge_seq t tr

let n_live t = Int_table.length t.by_entry

(* Called after [unbind], with the victim's binding for its scoring
   inputs. *)
let emit_evicted t ~events ~ekey b ~reason =
  if Events.enabled events then begin
    let n = t.layout.Layout.n_blocks in
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
let footprint_score b =
  float_of_int (Footprint_model.trace_bytes b.b_trace)
  /. float_of_int (1 + b.b_uses)

(* Pick the victim the configured policy condemns (never [keep], the
   entry just installed, and never a pinned trace): the smallest LRU
   stamp under [Lru], the worst footprint/heat ratio (ties broken by
   older stamp) under [Footprint_aware].  Returns [None] when nothing is
   evictable. *)
let pick_victim t ~keep =
  let victim = ref None in
  (match t.policy with
  | Config.Cache.Lru ->
      Int_table.iter
        (fun ekey b ->
          if ekey <> keep && not (is_pinned t b.b_trace) then
            match !victim with
            | Some (_, best) when best.b_stamp <= b.b_stamp -> ()
            | _ -> victim := Some (ekey, b))
        t.by_entry
  | Config.Cache.Footprint_aware ->
      let best_score = ref neg_infinity in
      Int_table.iter
        (fun ekey b ->
          if ekey <> keep && not (is_pinned t b.b_trace) then begin
            let score = footprint_score b in
            let better =
              score > !best_score
              || score = !best_score
                 &&
                 match !victim with
                 | Some (_, best) -> b.b_stamp < best.b_stamp
                 | None -> true
            in
            if better then begin
              best_score := score;
              victim := Some (ekey, b)
            end
          end)
        t.by_entry);
  !victim

(* Evict one live entry chosen by the policy.  [reason] says who asked —
   capacity caps or an injected pressure fault.  Returns false when
   nothing is evictable. *)
let evict_one t ~events ~(counts : Stats.t) ~keep ~reason =
  match pick_victim t ~keep with
  | None -> false
  | Some (ekey, b) ->
      unbind t ekey b.b_trace;
      t.evicted <- t.evicted + 1;
      counts.Stats.traces_evicted <- counts.Stats.traces_evicted + 1;
      emit_evicted t ~events ~ekey b ~reason;
      true

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
  let b =
    match binding t ekey with
    | Some b ->
        if b.b_trace != tr then begin
          t.live_blocks <-
            t.live_blocks
            - Array.length b.b_trace.Trace.blocks
            + Array.length tr.Trace.blocks;
          b.b_trace <- tr;
          b.b_hit <- Some tr
        end;
        b
    | None ->
        t.live_blocks <- t.live_blocks + Array.length tr.Trace.blocks;
        let b =
          {
            b_first = first_of_key t ekey;
            b_trace = tr;
            b_hit = Some tr;
            b_stamp = 0;
            b_uses = 0;
          }
        in
        Int_table.replace t.by_entry ekey b;
        let h = slot_of_key t ekey in
        t.by_head.(h) <- b :: t.by_head.(h);
        b
  in
  touch t b;
  b

(* Quarantine bookkeeping *)

let is_quarantined t ~first ~head =
  match Hashtbl.find_opt t.quarantine (entry_key_int t ~first ~head) with
  | Some q -> q.until > t.clock
  | None -> false

let quarantine_attempts t ~first ~head =
  match Hashtbl.find_opt t.quarantine (entry_key_int t ~first ~head) with
  | Some q -> q.attempts
  | None -> 0

let n_quarantine_active t =
  Hashtbl.fold (fun _ q acc -> if q.until > t.clock then acc + 1 else acc)
    t.quarantine 0

let quarantine t ~events ~(counts : Stats.t) ~first ~head ~code :
    Trace.t option =
  let ekey = entry_key_int t ~first ~head in
  match binding t ekey with
  | Some { b_trace = tr; _ } when is_pinned t tr ->
      (* Refuse wholly: no unbind, no blacklist record — the trace is
         being executed right now.  Under OSR the caller deopts (and
         unpins) first and retries; without OSR a later sweep or
         dispatch validation re-detects the fault once the trace has
         exited.  The refusal is counted, not silently dropped. *)
      counts.Stats.pin_refusals <- counts.Stats.pin_refusals + 1;
      None
  | bound ->
  let removed =
    match bound with
    | Some ({ b_trace = tr; _ } as b) ->
        unbind t ekey tr;
        (* not counted in [evicted] (that is capacity accounting) but
           visible in the timeline with its own reason *)
        emit_evicted t ~events ~ekey b ~reason:Events.Quarantine;
        Some tr
    | None -> None
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
  let ekey = entry_key_int t ~first ~head in
  match binding t ekey with
  | None -> None
  | Some b ->
      unbind t ekey b.b_trace;
      b.b_hit

type installed = Built of Trace.t | Reused of Trace.t | Refused

(* Install a candidate trace, unless its entry is quarantined or the
   installing engine has an injected failure pending ([fail] consumes
   one).  If an identical trace is already cached we keep it (hash-cons
   hit); otherwise a new trace is constructed and bound to its entry
   transition, displacing any previous binding. *)
let try_install ?(fail = fun () -> false) t ~events ~(counts : Stats.t)
    ~first ~(blocks : Layout.gid array) ~prob : installed =
  if Array.length blocks = 0 || is_quarantined t ~first ~head:blocks.(0) then
    Refused
  else if fail () then begin
    counts.Stats.failed_installs <- counts.Stats.failed_installs + 1;
    Refused
  end
  else begin
    let skey = seq_key ~first ~blocks in
    let head = blocks.(0) in
    let ekey = entry_key_int t ~first ~head in
    let replaced (tr : Trace.t) =
      counts.Stats.traces_replaced <- counts.Stats.traces_replaced + 1;
      if Events.enabled events then
        Events.emit events
          (Events.Trace_replaced { first; head; trace_id = tr.Trace.id })
    in
    let result =
      match Hashtbl.find_opt t.by_seq skey with
      | Some existing ->
          if existing.Trace.owner <> t.session then
            t.cross_installs <- t.cross_installs + 1;
          (* make sure it is (still) the trace bound to its entry *)
          (match binding t ekey with
          | Some b when b.b_trace == existing -> ()
          | Some _ -> replaced existing
          | None -> ());
          ignore (bind t ekey existing);
          Reused existing
      | None ->
          let id = t.next_id in
          t.next_id <- id + 1;
          let tr = Trace.make ~id ~layout:t.layout ~first ~blocks ~prob in
          tr.Trace.owner <- t.session;
          t.constructed <- t.constructed + 1;
          Hashtbl.replace t.by_seq skey tr;
          if binding t ekey <> None then replaced tr;
          ignore (bind t ekey tr);
          Built tr
    in
    enforce_caps t ~events ~counts ~keep:ekey;
    result
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
      let skey = seq_key ~first ~blocks in
      let ekey = entry_key_int t ~first ~head:blocks.(0) in
      let tr =
        match Hashtbl.find_opt t.by_seq skey with
        | Some existing -> existing
        | None ->
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
            Hashtbl.replace t.by_seq skey tr;
            tr
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

(* All traces ever constructed (including displaced ones). *)
let iter_all t f = Hashtbl.iter (fun _ tr -> f tr) t.by_seq

let n_constructed t = t.constructed

let footprint_bytes t =
  Int_table.fold
    (fun _ b acc -> acc + Footprint_model.trace_bytes b.b_trace)
    t.by_entry 0

let live_blocks t = t.live_blocks

let n_evicted t = t.evicted

let n_cross_installs t = t.cross_installs

let n_cross_entries t = t.cross_entries

(* Pins survive a flush: they belong to the dispatch loops still
   following the flushed traces, whose unpins balance them. *)
let flush t =
  Int_table.reset t.by_entry;
  Array.fill t.by_head 0 (Array.length t.by_head) [];
  Hashtbl.reset t.by_seq;
  Hashtbl.reset t.quarantine;
  t.live_blocks <- 0
