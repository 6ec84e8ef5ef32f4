(* A benchmark program: a named generator producing a linked, verified
   bytecode program at a given size.  [default_size] drives tests and the
   examples; [bench_size] drives the table-regeneration runs. *)

type t = {
  name : string;
  description : string;
  paper_counterpart : string; (* the benchmark this one stands in for *)
  build : size:int -> Bytecode.Program.t;
  default_size : int;
  bench_size : int;
}

let build_default w = w.build ~size:w.default_size

let pp ppf w =
  Format.fprintf ppf "%-10s (for %s): %s" w.name w.paper_counterpart
    w.description
