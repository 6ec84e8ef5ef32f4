(* Deterministic fault injection for the self-healing engine.

   A fault schedule is a comma/whitespace-separated list of arms:

     kind@prob    fire with probability [prob] at every dispatch
     kind!tick    fire once, at the first dispatch >= [tick]
     budget=K     cap the total number of injected faults

   Kinds (the FT0xx catalogue) target the structures the TL2xx invariant
   checks guard, so every injected fault is detectable by the existing
   linter: corrupt-trace trips TL210, corrupt-instrs TL211, zero-counter
   and saturate-counter TL204, drop-best TL205.  fail-install and
   alloc-pressure exercise the cache's failure paths directly.

   All randomness comes from a seeded xorshift64 PRNG, so a schedule is a
   pure function of (spec, seed, dispatch stream) — chaos runs replay
   bit-identically. *)

type kind =
  | Corrupt_trace (* FT001: negate one block gid of an installed trace *)
  | Corrupt_instrs (* FT002: skew one per-block instruction count *)
  | Zero_counter (* FT003: zero one BCG edge weight *)
  | Saturate_counter (* FT004: push one edge weight past saturation *)
  | Drop_best (* FT005: clear a node's cached most-likely successor *)
  | Fail_install (* FT006: fail the next trace installation *)
  | Alloc_pressure (* FT007: evict half of the live trace cache *)
  | Guard_flip
    (* FT008: force a guard failure at a chosen position of the next
       followed trace, exercising the side-exit/deoptimization path *)

let all_kinds =
  [
    Corrupt_trace;
    Corrupt_instrs;
    Zero_counter;
    Saturate_counter;
    Drop_best;
    Fail_install;
    Alloc_pressure;
    Guard_flip;
  ]

let kind_name = function
  | Corrupt_trace -> "corrupt-trace"
  | Corrupt_instrs -> "corrupt-instrs"
  | Zero_counter -> "zero-counter"
  | Saturate_counter -> "saturate-counter"
  | Drop_best -> "drop-best"
  | Fail_install -> "fail-install"
  | Alloc_pressure -> "alloc-pressure"
  | Guard_flip -> "guard-flip"

let code = function
  | Corrupt_trace -> "FT001"
  | Corrupt_instrs -> "FT002"
  | Zero_counter -> "FT003"
  | Saturate_counter -> "FT004"
  | Drop_best -> "FT005"
  | Fail_install -> "FT006"
  | Alloc_pressure -> "FT007"
  | Guard_flip -> "FT008"

(* Specs written with underscores (guard_flip@0.05) are accepted too. *)
let kind_of_name s =
  let s = String.map (fun c -> if c = '_' then '-' else c) s in
  List.find_opt (fun k -> kind_name k = s) all_kinds

(* The FT catalogue mirrors Analysis.Diag's TL code table: FT0xx are
   injectable faults (with the TL check that detects them), FT9xx are the
   chaos gate's own verdicts. *)
let catalogue =
  [
    ( "FT001",
      "corrupt-trace: negate one block gid of an installed trace (detected \
       by TL210)" );
    ( "FT002",
      "corrupt-instrs: skew one per-block instruction count of an installed \
       trace (detected by TL211)" );
    ("FT003", "zero-counter: zero one BCG edge weight (detected by TL204)");
    ( "FT004",
      "saturate-counter: push one BCG edge weight past the saturation bound \
       (detected by TL204)" );
    ( "FT005",
      "drop-best: clear the cached most-likely successor of a node that has \
       edges (detected by TL205)" );
    ( "FT006",
      "fail-install: make the next trace installation fail (surfaces as a \
       builder outcome, not a corruption)" );
    ( "FT007",
      "alloc-pressure: evict half of the live trace cache (surfaces as \
       capacity evictions)" );
    ( "FT008",
      "guard-flip: force a guard failure at a chosen position of the next \
       followed trace (exercises the side-exit / OSR deoptimization path; \
       transparent by construction, so the chaos gate must stay \
       bit-identical)" );
    ("FT901", "chaos gate: VM result diverged from the no-tracing baseline");
    ( "FT902",
      "chaos gate: the engine did not recover to full tracing by the end of \
       the run" );
  ]

type trigger = Prob of float | At of int

type arm = { a_kind : kind; a_trigger : trigger; mutable a_fired : bool }

type t = {
  arms : arm list;
  mutable budget : int; (* remaining injections; max_int = unbounded *)
  mutable state : int64; (* xorshift64 *)
  mutable pending_flip : int option;
      (* armed FT008: requested guard position of the next followed
         trace (clamped to its length at consumption) *)
  mutable pending_fail : int;
      (* armed FT006: installations this engine will fail.  Held here,
         not in the trace cache, so a shared cache's other members never
         consume them *)
}

(* DSL parsing *)

let parse_arm item =
  let split c =
    match String.index_opt item c with
    | Some i ->
        Some
          ( String.sub item 0 i,
            String.sub item (i + 1) (String.length item - i - 1) )
    | None -> None
  in
  match split '=' with
  | Some ("budget", v) -> (
      match int_of_string_opt v with
      | Some k when k >= 0 -> `Budget k
      | _ -> invalid_arg ("Faults.parse: bad budget: " ^ item))
  | Some _ -> invalid_arg ("Faults.parse: unknown setting: " ^ item)
  | None -> (
      let kind name =
        match kind_of_name name with
        | Some k -> k
        | None -> invalid_arg ("Faults.parse: unknown fault kind: " ^ item)
      in
      match split '@' with
      | Some (name, p) -> (
          match float_of_string_opt p with
          | Some p when p >= 0.0 && p <= 1.0 ->
              `Arm { a_kind = kind name; a_trigger = Prob p; a_fired = false }
          | _ -> invalid_arg ("Faults.parse: bad probability: " ^ item))
      | None -> (
          match split '!' with
          | Some (name, n) -> (
              match int_of_string_opt n with
              | Some n when n >= 0 ->
                  `Arm { a_kind = kind name; a_trigger = At n; a_fired = false }
              | _ -> invalid_arg ("Faults.parse: bad tick: " ^ item))
          | None -> invalid_arg ("Faults.parse: bad item: " ^ item)))

let parse spec =
  let items =
    String.split_on_char ',' spec
    |> List.concat_map (String.split_on_char ' ')
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let budget = ref max_int in
  let arms = ref [] in
  List.iter
    (fun item ->
      match parse_arm item with
      | `Budget k -> budget := k
      | `Arm a -> arms := a :: !arms)
    items;
  (List.rev !arms, !budget)

let create ~seed spec =
  let arms, budget = parse spec in
  let state =
    let s = Int64.of_int seed in
    if Int64.equal s 0L then 0x2545F4914F6CDD1DL else s
  in
  { arms; budget; state; pending_flip = None; pending_fail = 0 }

let is_active t = t.arms <> [] && t.budget > 0

(* xorshift64: fast, full-period, and trivially reseedable *)
let next t =
  let x = t.state in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  t.state <- x;
  x

let float01 t =
  Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

let pick t bound =
  if bound <= 0 then 0
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1)
                       (Int64.of_int bound))

(* Victim selection.  A currently dispatching trace is never a victim:
   corrupting it mid-flight would make the fault indistinguishable from an
   interpreter bug.  Both this engine's [active] trace and any trace the
   shared cache has pinned (another session member may be executing it)
   are excluded. *)

let live_victims cache ~active =
  let acc = ref [] in
  Trace_cache.iter cache (fun tr ->
      let executing =
        (match active with Some a -> a == tr | None -> false)
        || Trace_cache.is_pinned cache tr
      in
      if not executing then acc := tr :: !acc);
  !acc

let node_victims bcg ~need_best =
  let acc = ref [] in
  Bcg.iter_nodes bcg (fun n ->
      if n.Bcg.edges <> [] && ((not need_best) || n.Bcg.best <> None) then
        acc := n :: !acc);
  !acc

let nth l i = List.nth l i

(* Apply one fault; [None] = no eligible victim, nothing was injected. *)
let apply t kind ~(bcg : Bcg.t) ~(cache : Trace_cache.t) ~events ~counts
    ~(active : Trace.t option) : string option =
  match kind with
  | Corrupt_trace -> (
      match live_victims cache ~active with
      | [] -> None
      | victims ->
          let tr = nth victims (pick t (List.length victims)) in
          let i = pick t (Array.length tr.Trace.blocks) in
          Trace_cache.set_block cache tr i (-1 - tr.Trace.blocks.(i));
          Some
            (Printf.sprintf "trace %d: block %d negated to %d" tr.Trace.id i
               tr.Trace.blocks.(i)))
  | Corrupt_instrs -> (
      match live_victims cache ~active with
      | [] -> None
      | victims ->
          let tr = nth victims (pick t (List.length victims)) in
          let i = pick t (Array.length tr.Trace.instr_len) in
          tr.Trace.instr_len.(i) <- tr.Trace.instr_len.(i) + 13;
          Some
            (Printf.sprintf "trace %d: instr_len.(%d) skewed to %d" tr.Trace.id
               i tr.Trace.instr_len.(i)))
  | Zero_counter -> (
      match node_victims bcg ~need_best:false with
      | [] -> None
      | nodes ->
          let n = nth nodes (pick t (List.length nodes)) in
          let edges = n.Bcg.edges in
          let e = nth edges (pick t (List.length edges)) in
          e.Bcg.weight <- 0;
          Some
            (Printf.sprintf "node (%d->%d): edge to %d zeroed" n.Bcg.n_x
               n.Bcg.n_y e.Bcg.e_z))
  | Saturate_counter -> (
      match node_victims bcg ~need_best:false with
      | [] -> None
      | nodes ->
          let n = nth nodes (pick t (List.length nodes)) in
          let edges = n.Bcg.edges in
          let e = nth edges (pick t (List.length edges)) in
          let w = (2 * Config.counter_max) + 1 in
          e.Bcg.weight <- w;
          Some
            (Printf.sprintf "node (%d->%d): edge to %d saturated to %d"
               n.Bcg.n_x n.Bcg.n_y e.Bcg.e_z w))
  | Drop_best -> (
      match node_victims bcg ~need_best:true with
      | [] -> None
      | nodes ->
          let n = nth nodes (pick t (List.length nodes)) in
          n.Bcg.best <- None;
          Some
            (Printf.sprintf "node (%d->%d): best successor dropped" n.Bcg.n_x
               n.Bcg.n_y))
  | Fail_install ->
      t.pending_fail <- t.pending_fail + 1;
      Some "next trace installation will fail"
  | Alloc_pressure ->
      let live = Trace_cache.n_live cache in
      if live < 2 then None
      else begin
        let evicted =
          Trace_cache.pressure_evict cache ~events ~counts ~down_to:(live / 2)
        in
        if evicted = 0 then None
        else Some (Printf.sprintf "pressure-evicted %d of %d traces" evicted
                     live)
      end
  | Guard_flip ->
      (* Arm at most one flip at a time: re-arming before consumption
         would silently waste budget without changing behaviour. *)
      if t.pending_flip <> None then None
      else begin
        let pos = 1 + pick t 8 in
        t.pending_flip <- Some pos;
        Some
          (Printf.sprintf
             "next followed trace: guard at position %d (clamped) will flip"
             pos)
      end

(* FT008 consumption.  [tick] runs in the dispatch prologue, outside any
   trace, so the flip cannot fire there; it is armed as [pending_flip]
   and consumed by the dispatch loop's guard comparison ([flip_now]) at
   the first followed trace reaching the armed position. *)

let take_flip t p ~pos ~n_blocks =
  let target = Int.max 1 (Int.min p (n_blocks - 1)) in
  if pos = target then begin
    t.pending_flip <- None;
    true
  end
  else false

(* Asked at every followed position: nothing but the [None] test is
   inlined into the dispatch loop. *)
let[@inline] flip_now t ~pos ~n_blocks =
  match t.pending_flip with
  | None -> false
  | Some p -> take_flip t p ~pos ~n_blocks

(* FT006 consumption: the engine's trace installations ask this after
   the cache's quarantine check. *)
let take_install_failure t =
  t.pending_fail > 0
  && begin
       t.pending_fail <- t.pending_fail - 1;
       true
     end

let tick t ~now ~bcg ~cache ~events ~counts ~active : (string * string) list =
  if t.budget <= 0 || t.arms = [] then []
  else begin
    let applied = ref [] in
    List.iter
      (fun arm ->
        if t.budget > 0 then begin
          let fire =
            match arm.a_trigger with
            | Prob p -> float01 t < p
            | At n ->
                if (not arm.a_fired) && now >= n then begin
                  arm.a_fired <- true;
                  true
                end
                else false
          in
          if fire then
            match apply t arm.a_kind ~bcg ~cache ~events ~counts ~active with
            | Some detail ->
                t.budget <- t.budget - 1;
                applied := (code arm.a_kind, detail) :: !applied
            | None -> ()
        end)
      t.arms;
    List.rev !applied
  end
