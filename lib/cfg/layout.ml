module Instr = Bytecode.Instr
module Mthd = Bytecode.Mthd
module Klass = Bytecode.Klass
module Program = Bytecode.Program

(* Program-wide block numbering.  Every basic block of every method gets a
   dense global id ("gid"); the profiler, the trace cache and all statistics
   speak gids.  The layout also records each block's static instruction
   count, needed for instruction-stream-coverage accounting. *)

type gid = int

type t = {
  program : Program.t;
  cfgs : Method_cfg.t array; (* indexed by method id *)
  offsets : int array; (* method id -> first gid of its blocks *)
  n_blocks : int;
  block_of_gid : Block.t array;
  instr_len : int array; (* gid -> static instruction count *)
  mutable fingerprint_memo : string option; (* [fingerprint], once computed *)
}

let build (program : Program.t) : t =
  let cfgs = Array.map Method_cfg.build program.Program.methods in
  let n_methods = Array.length cfgs in
  let offsets = Array.make n_methods 0 in
  let total = ref 0 in
  Array.iteri
    (fun i cfg ->
      offsets.(i) <- !total;
      total := !total + Method_cfg.n_blocks cfg)
    cfgs;
  let n_blocks = !total in
  let block_of_gid = Array.make n_blocks cfgs.(0).Method_cfg.blocks.(0) in
  let instr_len = Array.make n_blocks 0 in
  Array.iteri
    (fun mid cfg ->
      Array.iteri
        (fun i b ->
          let g = offsets.(mid) + i in
          block_of_gid.(g) <- b;
          instr_len.(g) <- b.Block.len)
        cfg.Method_cfg.blocks)
    cfgs;
  {
    program;
    cfgs;
    offsets;
    n_blocks;
    block_of_gid;
    instr_len;
    fingerprint_memo = None;
  }

(* The fingerprint ties persisted state to the exact program it was
   profiled over: gids are meaningless under any other layout.  It
   digests the program's binary encoding plus the block numbering, so
   it depends on content, not identity: [No_sharing] makes the encoding
   a function of the values alone, whatever their sharing.  The encoding
   is one string, allocated in the major heap, with nothing allocated
   per instruction.  Computed on first use and kept, so [build] does not
   pay for it; a mutable option rather than a [Lazy.t] keeps the record
   free of closures. *)
let fingerprint t =
  match t.fingerprint_memo with
  | Some d -> d
  | None ->
      let d =
        Digest.string
          (Marshal.to_string (t.program, t.instr_len) [ Marshal.No_sharing ])
      in
      t.fingerprint_memo <- Some d;
      d

(* Inlined into the interpreter's dispatch, as is [cfg_of_method]. *)
let[@inline] gid t ~method_id ~block_index =
  t.offsets.(method_id) + block_index

let gid_at_pc t ~method_id ~pc =
  t.offsets.(method_id)
  + Method_cfg.block_index_at_pc t.cfgs.(method_id) pc

let block t (g : gid) = t.block_of_gid.(g)

let method_of_gid t (g : gid) =
  t.program.Program.methods.((t.block_of_gid.(g)).Block.method_id)

let[@inline] cfg_of_method t ~method_id = t.cfgs.(method_id)

let block_len t (g : gid) = t.instr_len.(g)

(* A readable block name: "method:Bk@pc". *)
let describe t (g : gid) =
  let b = block t g in
  Printf.sprintf "%s:B%d@%d" (method_of_gid t g).Mthd.name b.Block.index
    b.Block.start_pc
