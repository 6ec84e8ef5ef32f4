(* Order statistics over timing samples. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort compare a;
  a

let median samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Quant.median: no samples";
  let a = sorted samples in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let rank ~n p = max 1 ((p * n + 99) / 100)

let percentile samples p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Quant.percentile: no samples";
  if p < 1 || p > 100 then invalid_arg "Quant.percentile: p outside 1..100";
  (sorted samples).(rank ~n p - 1)

let min_beyond = 10

(* The highest whole percentile whose nearest-rank sample still has at
   least [min_beyond] samples above it, so a tail figure never rests on
   fewer than ten observations.  [None] when there are too few samples
   for any percentile to qualify. *)
let tail samples =
  let n = Array.length samples in
  let rec go p =
    if p < 1 then None
    else if n - rank ~n p >= min_beyond then Some (p, percentile samples p)
    else go (p - 1)
  in
  go 99
