(** A benchmark program: a named generator producing a linked bytecode
    program at a given size. *)

type t = {
  name : string;
  description : string;
  paper_counterpart : string;
      (** the benchmark from the paper this one stands in for *)
  build : size:int -> Bytecode.Program.t;
  default_size : int;  (** drives tests and examples *)
  bench_size : int;  (** drives the table-regeneration runs *)
}

val build_default : t -> Bytecode.Program.t

val pp : Format.formatter -> t -> unit
