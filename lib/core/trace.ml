module Layout = Cfg.Layout

(* A trace: a sequence of basic blocks expected to execute to completion
   (paper §3.7).  Entry is keyed by the *transition* (first, blocks.(0)):
   the trace is dispatched when blocks.(0) is reached with [first] as the
   previously executed block — "a sequence which enters N_X0X1".  The
   expected completion probability is the product of the branch
   correlations along the trace, computed at construction time.

   A loop body trace naturally chains to itself: its last block is the
   loop's back-edge source, which is exactly the context of its own entry
   transition. *)

type t = {
  id : int;
  first : Layout.gid; (* entry context block X0 *)
  blocks : Layout.gid array; (* X1 .. Xk: the blocks executed from the trace *)
  prob : float; (* expected completion probability at construction *)
  instr_len : int array; (* static instruction count per block *)
  total_instrs : int;
  seq_hash : int; (* [hash_seq] of (first, blocks) at construction *)
  mutable owner : int;
      (* id of the session whose profiler built this trace; 0 for a
         single-engine run.  Stamped by the cache at installation and
         kept by the first builder on a hash-cons reuse, so the cache can
         count cross-session reuse. *)
  mutable pruned : bool array;
      (* guard-implication pruning verdicts: pruned.(i) means the guard
         at position i is implied by the entry facts and the guards
         before it.  Analysis output: dispatch never reads it.
         [||] = no pruning.
         Derived state: recomputable from the body by Trace_prover, not
         persisted in snapshots — restored traces start unpruned. *)
  mutable promoted : bool;
      (* built by OSR mid-loop promotion rather than the greedy cutter:
         the completion probability is the product of possibly immature
         correlations and may sit below the cutter's threshold (TL201 is
         relaxed accordingly).  Not persisted directly: a sub-threshold
         probability identifies a promoted trace on restore, because the
         cutter never commits one. *)
  mutable pins : int;
      (* execution refcount: how many dispatch loops are following this
         trace right now (several when a Session shares the cache).  A
         pinned trace is never evicted, quarantined or demoted. *)
  mutable lowered : Microir.body option;
      (* the compiled tier: the trace's blocks lowered to register
         micro-IR (see Microir), present only while the trace holds a
         compiled-tier slot.  Derived state, never persisted — a
         restored cache re-lowers whatever the tier cost model
         picks. *)
}

(* FNV-1a over the context block, the length and the first [len]
   blocks, kept non-negative. *)
let hash_seq ~first (blocks : Layout.gid array) ~len =
  let h = ref ((0x2545F4914F6CDD1D lxor first) * 0x100000001b3) in
  h := (!h lxor len) * 0x100000001b3;
  for i = 0 to len - 1 do
    h := (!h lxor Array.unsafe_get blocks i) * 0x100000001b3
  done;
  !h land max_int

let has_sequence t ~first (blocks : Layout.gid array) ~len =
  t.first = first
  && Array.length t.blocks = len
  &&
  let i = ref 0 in
  while !i < len && t.blocks.(!i) = blocks.(!i) do
    incr i
  done;
  !i = len

let make ~id ~(layout : Layout.t) ~first ~blocks ~prob =
  if Array.length blocks = 0 then invalid_arg "Trace.make: empty trace";
  let instr_len = Array.map (fun g -> Layout.block_len layout g) blocks in
  {
    id;
    first;
    blocks;
    prob;
    instr_len;
    total_instrs = Array.fold_left ( + ) 0 instr_len;
    seq_hash = hash_seq ~first blocks ~len:(Array.length blocks);
    owner = 0;
    pruned = [||];
    promoted = false;
    pins = 0;
    lowered = None;
  }

(* The sentinel the cache returns instead of an option. *)
let none =
  {
    id = -1;
    first = -1;
    blocks = [||];
    prob = 0.0;
    instr_len = [||];
    total_instrs = 0;
    seq_hash = 0;
    owner = 0;
    pruned = [||];
    promoted = false;
    pins = 0;
    lowered = None;
  }

let n_blocks t = Array.length t.blocks

let entry_key t = (t.first, t.blocks.(0))

let last_block t = t.blocks.(Array.length t.blocks - 1)

(* Two traces are the same cache entry iff context and block sequence are
   identical. *)
(* FT001 negates a gid in place: render it rather than index with it *)
let describe layout t =
  let name g =
    if g >= 0 && g < layout.Layout.n_blocks then Layout.describe layout g
    else Printf.sprintf "?%d" g
  in
  Printf.sprintf "T%d [%s | %s] p=%.3f" t.id (name t.first)
    (String.concat " -> " (Array.to_list (Array.map name t.blocks)))
    t.prob
