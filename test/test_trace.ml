(* Traces and the trace cache: keys, hash-consing, replacement
   accounting. *)

open Workloads.Dsl
module S = Bytecode.Structured
module Trace = Tracegen.Trace
module Trace_cache = Tracegen.Trace_cache
module Layout = Cfg.Layout
module Config = Tracegen.Config
module Events = Tracegen.Events
module Stats = Tracegen.Stats

(* The stream and counters of the engine a cache decision is made for;
   these tests drive the cache directly, so a fresh pair stands in. *)
let decider () = (Events.create (), Stats.zero ())

(* A trace the cache must accept. *)
let accept ~events ~counts cache ~first ~blocks ~prob =
  match Trace_cache.try_install cache ~events ~counts ~first ~blocks ~prob with
  | Trace_cache.Built tr | Trace_cache.Reused tr -> tr
  | Trace_cache.Refused -> Alcotest.fail "installation refused"

let install cache =
  let events, counts = decider () in
  accept ~events ~counts cache

let tc = Alcotest.test_case
let check = Alcotest.check

(* any layout will do for cache tests; use a small real program *)
let layout =
  lazy
    (let p = S.create () in
     S.def_method p ~name:"main" ~args:[] ~ret:S.I
       ~body:
         [
           decl_i "s" (i 0);
           for_ "k" (i 0) (i 5)
             [ if_ ((v "k" &! i 1) =! i 0) [ set "s" (v "s" +! v "k") ] [] ];
           ret (v "s");
         ]
       ();
     Layout.build (S.link p ~entry:"main"))

let some_gids n =
  let l = Lazy.force layout in
  List.init n (fun k -> k mod l.Layout.n_blocks)

let test_trace_make () =
  let l = Lazy.force layout in
  let blocks = Array.of_list (some_gids 3) in
  let tr = Trace.make ~id:0 ~layout:l ~first:1 ~blocks ~prob:0.98 in
  check Alcotest.int "three blocks" 3 (Trace.n_blocks tr);
  check (Alcotest.pair Alcotest.int Alcotest.int) "entry key" (1, blocks.(0))
    (Trace.entry_key tr);
  check Alcotest.int "last block" blocks.(2) (Trace.last_block tr);
  let expected_len =
    Array.fold_left (fun acc g -> acc + Layout.block_len l g) 0 blocks
  in
  check Alcotest.int "static instruction total" expected_len
    tr.Trace.total_instrs;
  check Alcotest.bool "empty trace rejected" true
    (try
       ignore (Trace.make ~id:1 ~layout:l ~first:0 ~blocks:[||] ~prob:1.0);
       false
     with Invalid_argument _ -> true)

let test_install_and_lookup () =
  let l = Lazy.force layout in
  let cache = Trace_cache.create l in
  let blocks = [| 1; 2; 0 |] in
  let tr = install cache ~first:0 ~blocks ~prob:0.99 in
  check Alcotest.int "constructed" 1 (Trace_cache.n_constructed cache);
  (match Trace_cache.lookup cache ~prev:0 ~cur:1 with
  | Some found -> check Alcotest.bool "same trace" true (found == tr)
  | None -> Alcotest.fail "lookup missed installed trace");
  check Alcotest.bool "different context misses" true
    (Trace_cache.lookup cache ~prev:2 ~cur:1 = None);
  check Alcotest.bool "negative prev misses" true
    (Trace_cache.lookup cache ~prev:(-1) ~cur:1 = None)

let test_hash_consing () =
  let l = Lazy.force layout in
  let cache = Trace_cache.create l in
  let blocks = [| 1; 2 |] in
  let events, counts = decider () in
  let install = accept ~events ~counts cache in
  let a = install ~first:0 ~blocks ~prob:0.99 in
  let b = install ~first:0 ~blocks:[| 1; 2 |] ~prob:0.99 in
  check Alcotest.bool "identical reconstruction reuses the trace" true (a == b);
  check Alcotest.int "only one construction" 1 (Trace_cache.n_constructed cache);
  check Alcotest.int "no replacement" 0 counts.Stats.traces_replaced

let test_replacement () =
  let l = Lazy.force layout in
  let cache = Trace_cache.create l in
  let events, counts = decider () in
  let install = accept ~events ~counts cache in
  let a = install ~first:0 ~blocks:[| 1; 2 |] ~prob:0.99 in
  let b = install ~first:0 ~blocks:[| 1; 2; 0 |] ~prob:0.97 in
  check Alcotest.bool "different sequences are different traces" true (a != b);
  check Alcotest.int "replacement counted" 1 counts.Stats.traces_replaced;
  (* the entry key now dispatches the new trace *)
  (match Trace_cache.lookup cache ~prev:0 ~cur:1 with
  | Some found -> check Alcotest.bool "newest wins" true (found == b)
  | None -> Alcotest.fail "entry lost");
  (* the displaced trace is still reachable through iter_all *)
  let all = ref 0 in
  Trace_cache.iter_all cache (fun _ -> incr all);
  check Alcotest.int "both traces retained for statistics" 2 !all

let test_live_count () =
  let l = Lazy.force layout in
  let cache = Trace_cache.create l in
  ignore (install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0);
  ignore (install cache ~first:1 ~blocks:[| 2; 0 |] ~prob:1.0);
  check Alcotest.int "two live entries" 2 (Trace_cache.n_live cache);
  Trace_cache.flush cache;
  check Alcotest.int "flush empties the cache" 0 (Trace_cache.n_live cache)

(* FT001 negates a body gid in place; describe renders the live body
   and names the corrupted gid instead of indexing outside the layout. *)
let test_describe_corrupted () =
  let l = Lazy.force layout in
  let tr = Trace.make ~id:3 ~layout:l ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  tr.Trace.blocks.(1) <- -2;
  check Alcotest.string "corrupted gid rendered"
    (Printf.sprintf "T3 [%s | %s -> ?-2] p=1.000" (Layout.describe l 0)
       (Layout.describe l 1))
    (Trace.describe l tr)

let test_same_sequence () =
  let l = Lazy.force layout in
  let a = Trace.make ~id:0 ~layout:l ~first:0 ~blocks:[| 1; 2 |] ~prob:1.0 in
  let b = Trace.make ~id:1 ~layout:l ~first:0 ~blocks:[| 1; 2 |] ~prob:0.9 in
  let c = Trace.make ~id:2 ~layout:l ~first:2 ~blocks:[| 1; 2 |] ~prob:1.0 in
  check Alcotest.bool "same first and blocks" true (Trace.same_sequence a b);
  check Alcotest.bool "different context differs" false (Trace.same_sequence a c)

(* ------------------------------------------------------------------ *)
(* The head index against the owning table                            *)
(* ------------------------------------------------------------------ *)

(* Random operation sequences over a starved cache.  After every step
   the dispatch-side index must agree with the table the cache iterates
   ([iter_entries]): [peek] finds exactly the bound trace at every
   (first, head) pair, and [lookup] hits the same trace and counts a
   cross-session entry exactly when a reference model built from that
   table says it should. *)

type op =
  | Install of int * int list (* first, blocks *)
  | Lookup of int * int
  | Quarantine of int * int
  | Pinned_quarantine of int * int (* must be refused *)
  | Remove of int * int
  | Flush
  | Pressure of int (* evict down to *)
  | Roundtrip (* snapshot, restore into a fresh cache *)
  | Corrupt of int * int (* FT001: negate blocks.(0) of the bound trace *)
  | Session of int

let show_op = function
  | Install (f, bs) ->
      Printf.sprintf "install %d [%s]" f
        (String.concat ";" (List.map string_of_int bs))
  | Lookup (f, h) -> Printf.sprintf "lookup %d %d" f h
  | Quarantine (f, h) -> Printf.sprintf "quarantine %d %d" f h
  | Pinned_quarantine (f, h) -> Printf.sprintf "pinned-quarantine %d %d" f h
  | Remove (f, h) -> Printf.sprintf "remove %d %d" f h
  | Flush -> "flush"
  | Pressure k -> Printf.sprintf "pressure %d" k
  | Roundtrip -> "roundtrip"
  | Corrupt (f, h) -> Printf.sprintf "corrupt %d %d" f h
  | Session s -> Printf.sprintf "session %d" s

(* few contexts and heads, so slots hold several bindings, sequences
   repeat (hash-cons reuse) and entries get rebound to other traces *)
let n_first = 4
let n_head = 3

let gen_op n =
  let open QCheck.Gen in
  let first = int_range 0 (n_first - 1) and head = int_range 0 (n_head - 1) in
  let key = pair first head in
  frequency
    [
      ( 8,
        map3
          (fun f h tail -> Install (f, h :: tail))
          first head
          (list_size (int_range 0 2) (int_range 0 (n - 1))) );
      (3, map (fun (f, h) -> Lookup (f, h)) key);
      (2, map (fun (f, h) -> Quarantine (f, h)) key);
      (1, map (fun (f, h) -> Pinned_quarantine (f, h)) key);
      (2, map (fun (f, h) -> Remove (f, h)) key);
      (1, return Flush);
      (1, map (fun k -> Pressure k) (int_range 0 2));
      (1, return Roundtrip);
      (2, map (fun (f, h) -> Corrupt (f, h)) key);
      (1, map (fun s -> Session s) (int_range 0 2));
    ]

(* bindings as the owning table reports them *)
let model cache =
  let m = Hashtbl.create 16 in
  Trace_cache.iter_entries cache (fun ~first ~head tr ->
      Hashtbl.replace m (first, head) tr);
  m

let agree cache ~step =
  let l = Trace_cache.layout cache in
  let m = model cache in
  if Hashtbl.length m <> Trace_cache.n_live cache then
    QCheck.Test.fail_reportf "%s: model has %d bindings, n_live %d" step
      (Hashtbl.length m) (Trace_cache.n_live cache);
  let same a b =
    match (a, b) with
    | None, None -> true
    | Some x, Some y -> x == y
    | _ -> false
  in
  for first = 0 to l.Layout.n_blocks - 1 do
    for head = 0 to l.Layout.n_blocks - 1 do
      let expected = Hashtbl.find_opt m (first, head) in
      if not (same (Trace_cache.peek cache ~first ~head) expected) then
        QCheck.Test.fail_reportf "%s: peek (%d,%d) disagrees with the table"
          step first head;
      let before = Trace_cache.n_cross_entries cache in
      let hit = Trace_cache.lookup cache ~prev:first ~cur:head in
      if not (same hit expected) then
        QCheck.Test.fail_reportf "%s: lookup (%d,%d) disagrees with the table"
          step first head;
      let bump =
        match expected with
        | Some tr when tr.Trace.owner <> Trace_cache.session cache -> 1
        | _ -> 0
      in
      if Trace_cache.n_cross_entries cache - before <> bump then
        QCheck.Test.fail_reportf "%s: lookup (%d,%d) cross_entries off" step
          first head
    done
  done

let apply cache ~fresh ~events ~counts op =
  let c = !cache in
  match op with
  | Install (first, blocks) ->
      ignore
        (Trace_cache.try_install c ~events ~counts ~first
           ~blocks:(Array.of_list blocks) ~prob:0.99)
  | Lookup (prev, cur) -> ignore (Trace_cache.lookup c ~prev ~cur)
  | Quarantine (first, head) ->
      ignore
        (Trace_cache.quarantine c ~events ~counts ~first ~head ~code:"TL202")
  | Pinned_quarantine (first, head) -> (
      match Trace_cache.peek c ~first ~head with
      | None -> ()
      | Some tr ->
          Trace_cache.pin c tr;
          let refusals = counts.Stats.pin_refusals in
          if
            Trace_cache.quarantine c ~events ~counts ~first ~head ~code:"TL202"
            <> None
          then QCheck.Test.fail_report "a pinned trace was quarantined";
          if counts.Stats.pin_refusals <> refusals + 1 then
            QCheck.Test.fail_report "pinned refusal not counted";
          Trace_cache.unpin c tr)
  | Remove (first, head) -> ignore (Trace_cache.remove c ~first ~head)
  | Flush -> Trace_cache.flush c
  | Pressure down_to ->
      ignore (Trace_cache.pressure_evict c ~events ~counts ~down_to)
  | Roundtrip ->
      (* a corrupted trace cannot be rebuilt from its snapshot (its
         negated gid is outside the layout); the healer would have
         removed it first, so the round trip waits until it is gone *)
      let corrupted = ref false in
      Trace_cache.iter c (fun tr ->
          if Array.exists (fun g -> g < 0) tr.Trace.blocks then
            corrupted := true);
      if not !corrupted then begin
        let next = fresh () in
        Trace_cache.set_session next (Trace_cache.session c);
        ignore
          (Trace_cache.restore next ~events ~counts (Trace_cache.snapshot c));
        cache := next
      end
  | Corrupt (first, head) -> (
      match Trace_cache.peek c ~first ~head with
      | Some tr when tr.Trace.blocks.(0) >= 0 ->
          tr.Trace.blocks.(0) <- -1 - tr.Trace.blocks.(0)
      | _ -> ())
  | Session s -> Trace_cache.set_session c s

let prop_index_agrees =
  let l = Lazy.force layout in
  let n = l.Layout.n_blocks in
  let case =
    QCheck.Gen.(
      triple (int_range 2 3) bool (list_size (int_range 1 40) (gen_op n)))
  in
  let print (cap, fp, ops) =
    Printf.sprintf "max_traces %d, %s: %s" cap
      (if fp then "footprint" else "lru")
      (String.concat "; " (List.map show_op ops))
  in
  QCheck.Test.make ~name:"head index agrees with the owning table" ~count:300
    (QCheck.make ~print case) (fun (max_traces, fp, ops) ->
      let eviction_policy =
        if fp then Config.Cache.Footprint_aware else Config.Cache.Lru
      in
      let fresh () = Trace_cache.create ~max_traces ~eviction_policy l in
      let cache = ref (fresh ()) in
      let events, counts = decider () in
      List.iteri
        (fun i op ->
          apply cache ~fresh ~events ~counts op;
          agree !cache ~step:(Printf.sprintf "step %d (%s)" i (show_op op)))
        ops;
      true)

(* The slot is the binding key's head, not the trace's: after an
   FT001-style corruption negates blocks.(0), the binding stays where
   it was bound, and removal by key still finds it. *)
let test_index_keys_on_binding () =
  let l = Lazy.force layout in
  let cache = Trace_cache.create l in
  let tr = install cache ~first:0 ~blocks:[| 1; 2 |] ~prob:0.99 in
  tr.Trace.blocks.(0) <- -2;
  (match Trace_cache.lookup cache ~prev:0 ~cur:1 with
  | Some found -> check Alcotest.bool "still found at its key" true (found == tr)
  | None -> Alcotest.fail "binding lost after corruption");
  (match Trace_cache.remove cache ~first:0 ~head:1 with
  | Some found -> check Alcotest.bool "removed by key" true (found == tr)
  | None -> Alcotest.fail "binding lost after corruption");
  check Alcotest.bool "gone from the index" true
    (Trace_cache.peek cache ~first:0 ~head:1 = None);
  check Alcotest.int "gone from the table" 0 (Trace_cache.n_live cache)

let () =
  Alcotest.run "trace"
    [
      ( "trace values",
        [
          tc "make" `Quick test_trace_make;
          tc "describe corrupted gid" `Quick test_describe_corrupted;
          tc "same sequence" `Quick test_same_sequence;
        ] );
      ( "cache",
        [
          tc "install and lookup" `Quick test_install_and_lookup;
          tc "hash consing" `Quick test_hash_consing;
          tc "replacement" `Quick test_replacement;
          tc "live count and flush" `Quick test_live_count;
          tc "index keys on the binding" `Quick test_index_keys_on_binding;
        ] );
      ("head index", [ QCheck_alcotest.to_alcotest prop_index_agrees ]);
    ]
