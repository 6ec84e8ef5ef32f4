(* Histograms with fixed power-of-two buckets, so recording is O(1): one
   bit-length loop, one array bump.  Event-stream readers fold them from
   event fields; the engine's Phase_snapshot events carry a [snapshot]
   of its counters. *)

type histogram = {
  h_name : string;
  h_buckets : int array;
      (* bucket 0 counts observations <= 0; bucket i (0 < i < last)
         counts [2^(i-1), 2^i - 1]; the last bucket is the overflow
         bucket and is unbounded above *)
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_min : int;
  mutable h_max : int;
}

type snapshot = { at : int; values : (string * int) array }

let histogram name =
  {
    h_name = name;
    h_buckets = Array.make 16 0;
    h_count = 0;
    h_sum = 0;
    h_min = max_int;
    h_max = 0;
  }

let bucket_index h v =
  if v <= 0 then 0
  else begin
    (* bit length of v: 1 -> 1, 2..3 -> 2, 4..7 -> 3, ... *)
    let b = ref 0 and x = ref v in
    while !x > 0 do
      b := !b + 1;
      x := !x lsr 1
    done;
    Int.min !b (Array.length h.h_buckets - 1)
  end

let record h v =
  let v = if v < 0 then 0 else v in
  let i = bucket_index h v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let hist_name h = h.h_name

let hist_count h = h.h_count

let hist_sum h = h.h_sum

let hist_min h = if h.h_count = 0 then 0 else h.h_min

let hist_max h = h.h_max

let hist_mean h =
  if h.h_count = 0 then 0.0 else float_of_int h.h_sum /. float_of_int h.h_count

let n_buckets h = Array.length h.h_buckets

let bucket_count h i = h.h_buckets.(i)

let bucket_bounds h i =
  let n = Array.length h.h_buckets in
  if i < 0 || i >= n then invalid_arg "Metrics.bucket_bounds: out of range";
  if i = 0 then (0, 0)
  else if i = n - 1 then (1 lsl (i - 1), max_int)
  else (1 lsl (i - 1), (1 lsl i) - 1)

let percentile h p =
  if h.h_count = 0 then 0
  else if p <= 0.0 then hist_min h
  else if p >= 100.0 then h.h_max
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let n = Array.length h.h_buckets in
    let cum = ref 0 and i = ref 0 in
    while !i < n - 1 && !cum + h.h_buckets.(!i) < rank do
      cum := !cum + h.h_buckets.(!i);
      i := !i + 1
    done;
    (* report the bucket's upper edge, clamped to the observed range so
       a single-observation histogram answers exactly *)
    let _, hi = bucket_bounds h !i in
    let hi = if hi > h.h_max then h.h_max else hi in
    if hi < hist_min h then hist_min h else hi
  end
