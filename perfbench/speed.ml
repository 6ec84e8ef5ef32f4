(* Machine-speed probe.

   The shared hosts this benchmark runs on change speed by tens of
   percent over minutes, as other tenants come and go.  A fixed piece of
   code timed around each pass slows down with the host, so scaling the
   pass time by [reference_ms / probe time] removes most of that drift.
   What the probe does matters: it has to suffer from a busy host the
   way the interpreter does.  Allocation with a live set the major GC
   must keep tracing tracks the interpreter (whose values are boxed)
   several times better than integer and hash-table work does.

   The probe shares no code with the system under test, but it shares
   the heap.  So callers take it once the measured work's results are
   dropped: what is live is then the same whatever the system does, and
   a change that makes the system keep more memory cannot slow the probe
   and hide part of its own cost.  The heap's free space, which OCaml 5.1
   never gives back, still differs by what ran before: a probe that
   timed its own heap growth ran about 5 % slower after a plain pass
   than before it, and 5 % faster after a profile or micro-IR pass.
   Hence the untimed first run below.  A probe in a child process would
   share nothing, but it tracked the host's speed no better than leaving
   the times unscaled. *)

(* The probe's time on the reference machine, to which pass times are
   scaled. *)
let reference_ms = 25.0

let iterations = 300_000

let ring_size = 32768

type cell = { v : int; next : cell option }

let probe_work () =
  let ring = Array.make ring_size None in
  let acc = ref 0 in
  for i = 1 to iterations do
    let k = (i * 40503) land (ring_size - 1) in
    ring.(k) <- Some { v = i; next = ring.((k + 1) land (ring_size - 1)) };
    (match ring.((k * 3) land (ring_size - 1)) with
    | Some { v; next = Some d } -> acc := !acc + v + d.v
    | Some { v; next = None } -> acc := !acc + v
    | None -> ());
    match Sys.opaque_identity (Some (float_of_int i)) with
    | Some x when x < 0.0 -> acc := 0
    | _ -> ()
  done;
  ignore (Sys.opaque_identity (!acc, ring))

(* Time one probe, in ms.  The garbage of the work before it is
   collected first, so the probe traces only what is still live, and an
   untimed first run grows the heap to what the probe needs, so the timed
   run does not depend on how much free heap that work left behind.  The
   probe's own garbage is collected before returning, so the next
   measured interval does not pay for it. *)
let probe () =
  Gc.full_major ();
  probe_work ();
  let t0 = Spans.now_ns () in
  probe_work ();
  let ms = float_of_int (Spans.now_ns () - t0) /. 1e6 in
  Gc.full_major ();
  ms

(* The probe time around interval [i], given [probes.(i)] taken just
   before it and [probes.(i + 1)] just after.  Only the two bracketing
   probes count: on a host whose speed moves within seconds, a wider
   window tracks it worse. *)
let around probes i = (probes.(i) +. probes.(i + 1)) /. 2.0

(* [scale ~probe_ms ms] is [ms] at the reference machine's speed. *)
let scale ~probe_ms ms = ms *. reference_ms /. probe_ms
