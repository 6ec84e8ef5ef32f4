(* Branch-correlation states (paper §4.1.1).  In descending degree of
   correlation: unique, strongly correlated, weakly correlated, newly
   created. *)

type t =
  | Unique (* exactly one successor has ever been observed (or survives decay) *)
  | Strongly_correlated (* best successor correlation >= threshold *)
  | Weakly_correlated (* best successor correlation < threshold *)
  | Newly_created (* still inside the start-state delay *)

let to_string = function
  | Unique -> "unique"
  | Strongly_correlated -> "strong"
  | Weakly_correlated -> "weak"
  | Newly_created -> "new"

(* Trace construction may follow a branch only when its behaviour is
   predictable enough. *)
let is_followable = function
  | Unique | Strongly_correlated -> true
  | Weakly_correlated | Newly_created -> false

let pp ppf t = Format.pp_print_string ppf (to_string t)
