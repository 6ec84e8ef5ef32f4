(* The repository benchmark: one workload, one seed, one run.

     main.exe --workload loops|calls|churn --seed N --seconds S --trace 0|1
              [--spans FILE]

   Load is a closed loop on one thread: each program run starts when the
   previous one finishes, and a Session round-robins its members on the
   same thread.  One pass runs each program of the workload once; timing
   metrics are per pass.  Every run is checked against the plain
   interpreter's result, computed during set-up.

   --trace 0 measures the end-to-end metrics with no instrumentation;
   their times are scaled to a reference host speed (speed.ml).
   --trace 1 is the separate traced run: spans recorded around the public
   entry points of each layer, replays of the recorded block stream into
   single layers, and the reconciliation of the layer parts against
   trace_ms - plain_ms.  The last line of standard output is the JSON
   result.  See README.md for why each workload exists. *)

module W = Workloads.Workload
module Layout = Cfg.Layout
module Interp = Vm.Interp
module Engine = Tracegen.Engine
module Config = Tracegen.Config
module Stats = Tracegen.Stats
module Session = Tracegen.Session
module Profiler = Tracegen.Profiler
module Trace_cache = Tracegen.Trace_cache
module Quant = Perfbench.Quant
module Spans = Perfbench.Spans
module Speed = Perfbench.Speed
module Tally = Perfbench.Tally

(* ---------------------------------------------------------------- *)
(* Workloads                                                          *)

type spec = {
  name : string;
  programs : string list;
  frac : float;  (** base size as a share of each program's bench_size *)
  users : int;
      (** 0: one solo engine per program; n: n members per program in one
          shared Session, then a warm restart per program *)
}

let specs =
  [
    {
      name = "loops";
      programs = [ "compress"; "scimark" ];
      frac = 0.05;
      users = 0;
    };
    {
      name = "calls";
      programs = [ "mpegaudio"; "soot"; "raytrace" ];
      frac = 0.1;
      users = 0;
    };
    {
      name = "churn";
      programs = [ "javac"; "soot"; "mpegaudio" ];
      frac = 0.015;
      users = 2;
    };
  ]

(* Live-trace bound of churn's cache, well below its working set. *)
let starved_cache = 8

(* Sizes vary by at most this share around the base, so seeds move pass
   times far less than the regression bounds. *)
let size_jitter = 0.02

let setup_reps = 31

type backend = Plain | Profile | Trace | Microir

let backend_name = function
  | Plain -> "plain"
  | Profile -> "profile"
  | Trace -> "trace"
  | Microir -> "microir"

(* One round of passes, run in a fresh seeded order: trace is sampled
   twice as often as the other backends because its tail needs the
   samples. *)
let e2e_round = [ Plain; Profile; Trace; Trace; Microir ]

(* The traced run's round: three untraced passes and one traced trace
   pass, as (backend, traced). *)
let traced_round =
  [ (Plain, false); (Profile, false); (Trace, false); (Trace, true) ]

let min_rounds = 6

let sample_every = 128

type prog = {
  pname : string;
  layout : Layout.t;
  reference : Interp.result;
  self_check : (Vm.Value.t option -> bool) option;
}

(* compress returns [checksum * 2 + ok], ok being its own decode check. *)
let self_check_of = function
  | "compress" ->
      Some (function Some (Vm.Value.Vint v) -> v land 1 = 1 | _ -> false)
  | _ -> None

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* ---------------------------------------------------------------- *)
(* Tracing                                                            *)

type tracer = {
  sp : Spans.t;
  srng : Random.State.t;
  clock_ns : int;  (** cost of one clock read, removed from samples *)
  mutable calls : int;
  mutable next_sample : int;
}

let span tr name f =
  match tr with None -> f () | Some tr -> Spans.with_ tr.sp name f

(* One clock read, as the median of back-to-back pairs. *)
let clock_cost_ns () =
  let a =
    Array.init 20_001 (fun _ ->
        let t0 = Spans.now_ns () in
        let t1 = Spans.now_ns () in
        float_of_int (t1 - t0))
  in
  int_of_float (Quant.median a)

(* [Engine.on_block] with one call in [sample_every] (at random gaps)
   timed as a span of that weight: timing every call would double the
   cost of the very thing measured. *)
let sampled_on_block tr e g =
  tr.calls <- tr.calls + 1;
  if tr.calls >= tr.next_sample then begin
    tr.next_sample <-
      tr.calls + 1 + Random.State.int tr.srng ((2 * sample_every) - 1);
    let t0 = Spans.now_ns () in
    Engine.on_block e g;
    let t1 = Spans.now_ns () in
    Spans.record tr.sp ~weight:sample_every ~name:"engine.on_block" ~start_ns:t0
      ~stop_ns:(max t0 (t1 - tr.clock_ns))
      ()
  end
  else Engine.on_block e g

(* Drive a created engine to the end of its program. *)
let drive tr e layout =
  match tr with
  | None ->
      let rr = Engine.drive e in
      (rr.Engine.vm_result, rr.Engine.run_stats)
  | Some t ->
      let r =
        Spans.with_ t.sp "engine.run" (fun () ->
            Interp.run layout ~on_block:(sampled_on_block t e))
      in
      (r, Engine.stats e ~vm_result:r ~wall_seconds:0.0)

(* ---------------------------------------------------------------- *)
(* Passes                                                             *)

let config spec b =
  let max_cache_traces, eviction_policy =
    if spec.users > 0 then (starved_cache, Config.Cache.Footprint_aware)
    else (0, Config.Cache.Lru)
  in
  Config.make ~max_cache_traces ~eviction_policy ~build_traces:(b <> Profile)
    ~tier:(b = Microir) ()

type run = {
  prog : prog;
  role : string;
  outcome : (Interp.result, string) result;
  engine : Engine.t option;
  stats : Stats.t option;
}

type pass = {
  backend : backend;
  ms : float;
  words : float;  (** minor words allocated during the pass *)
  runs : run list;
  session : Session.t option;
}

let plain_run role p =
  {
    prog = p;
    role;
    outcome = Ok (Interp.run_plain p.layout);
    engine = None;
    stats = None;
  }

let engine_run tr cfg role p =
  let e = span tr "engine.create" (fun () -> Engine.create ~config:cfg p.layout) in
  let r, st = drive tr e p.layout in
  { prog = p; role; outcome = Ok r; engine = Some e; stats = Some st }

(* Churn: every member in one session, then for each program the first
   member's engine is snapshotted and a fresh engine restored from it
   and driven — the warm-restart flow. *)
let session_runs tr cfg ~members ~warm =
  let s = Session.create () in
  let ms = List.map (fun p -> (p, Session.add ~config:cfg s p.layout)) members in
  span tr "session.run" (fun () -> Session.run s);
  let users =
    List.map
      (fun (p, m) ->
        {
          prog = p;
          role = "session member";
          outcome = Ok (Session.vm_result m);
          engine = Some (Session.engine m);
          stats = Some (Session.stats m);
        })
      ms
  in
  let warm_run p =
    let owner = Session.engine (List.assq p ms) in
    let data = span tr "persist.snapshot" (fun () -> Engine.snapshot owner) in
    let e = span tr "engine.create" (fun () -> Engine.create ~config:cfg p.layout) in
    match span tr "persist.restore" (fun () -> Engine.restore e data) with
    | Error err ->
        {
          prog = p;
          role = "warm restart";
          outcome =
            Error ("restore rejected: " ^ Tracegen.Persist.error_to_string err);
          engine = Some e;
          stats = None;
        }
    | Ok _ ->
        let r, st = drive tr e p.layout in
        {
          prog = p;
          role = "warm restart";
          outcome = Ok r;
          engine = Some e;
          stats = Some st;
        }
  in
  (users @ List.map warm_run warm, Some s)

let run_pass ?tr spec ~order ~members ~warm b =
  let t0 = Spans.now_ns () in
  let w0 = Gc.minor_words () in
  let runs, session =
    match (b, spec.users) with
    | Plain, 0 -> (List.map (plain_run "solo") order, None)
    | Plain, _ ->
        ( List.map (plain_run "session member") members
          @ List.map (plain_run "warm restart") warm,
          None )
    | _, 0 -> (List.map (engine_run tr (config spec b) "solo") order, None)
    | _, _ -> session_runs tr (config spec b) ~members ~warm
  in
  let words = Gc.minor_words () -. w0 in
  let ms = float_of_int (Spans.now_ns () - t0) /. 1e6 in
  { backend = b; ms; words; runs; session }

let check_pass tally spec pass =
  List.iter
    (fun r ->
      let where =
        Printf.sprintf "%s/%s/%s (%s)" spec.name r.prog.pname
          (backend_name pass.backend) r.role
      in
      match r.outcome with
      | Ok got ->
          Tally.check tally ?self_check:r.prog.self_check ~where
            ~reference:r.prog.reference got
      | Error msg -> Tally.refuse tally ~where msg)
    pass.runs

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

let ratio a b = if b = 0.0 then 0.0 else a /. b

let run_stats pass = List.filter_map (fun r -> r.stats) pass.runs

let pass_instructions pass =
  sum
    (fun r -> match r.outcome with Ok res -> res.Interp.instructions | Error _ -> 0)
    pass.runs

(* The trace-pass figures that depend only on the seed: dispatches per
   kinstr, completed-trace coverage and completion rate. *)
let deterministic pass =
  let st = run_stats pass in
  let instr = float_of_int (sum (fun s -> s.Stats.instructions) st) in
  ( 1000.0 *. ratio (float_of_int (sum Stats.total_dispatches st)) instr,
    100.0 *. ratio (float_of_int (sum (fun s -> s.Stats.completed_instrs) st)) instr,
    100.0
    *. ratio
         (float_of_int (sum (fun s -> s.Stats.traces_completed) st))
         (float_of_int (sum (fun s -> s.Stats.traces_entered) st)) )

(* ---------------------------------------------------------------- *)
(* Output                                                             *)

let num x =
  if Float.is_finite x then
    let s = Printf.sprintf "%.17g" x in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  else "0.0"

let emit_json tally metrics =
  let body =
    metrics
    |> List.map (fun (name, value, unit_) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num value) unit_)
    |> String.concat ", "
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (tally.Tally.failed = 0) tally.Tally.attempted tally.Tally.failed body

(* ---------------------------------------------------------------- *)
(* Set-up                                                             *)

(* Each program's (workload, base size, jittered size).  The jittered
   size is rounded, so a base under 25 does not move. *)
let resolve_sizes spec rng =
  List.map
    (fun name ->
      let w =
        match Workloads.Registry.find name with
        | Some w -> w
        | None -> failwith ("unknown program " ^ name)
      in
      let base =
        Float.max 1.0 (Float.round (float_of_int w.W.bench_size *. spec.frac))
      in
      let j = 1.0 +. (size_jitter *. ((2.0 *. Random.State.float rng 1.0) -. 1.0)) in
      (w, int_of_float base, max 1 (int_of_float (Float.round (base *. j)))))
    spec.programs

(* Generate, verify and lay out every program: the set-up a user pays
   before the first run. *)
let setup_once tr sized =
  List.map
    (fun (w, size) ->
      let program = span tr "workloads.build" (fun () -> w.W.build ~size) in
      span tr "bytecode.verify" (fun () -> Bytecode.Verify.verify_program program);
      let layout = span tr "cfg.layout" (fun () -> Layout.build program) in
      (w, layout))
    sized

let setup tr tally spec sized =
  let raw = Array.make setup_reps 0.0 in
  let probes = Array.make (setup_reps + 1) (Speed.probe ()) in
  let last = ref [] in
  for i = 0 to setup_reps - 1 do
    let t0 = Spans.now_ns () in
    last := setup_once tr sized;
    raw.(i) <- float_of_int (Spans.now_ns () - t0) /. 1e9;
    probes.(i + 1) <- Speed.probe ()
  done;
  let times =
    Array.mapi (fun i s -> Speed.scale ~probe_ms:(Speed.around probes i) s) raw
  in
  let progs =
    List.map
      (fun (w, layout) ->
        let reference = Interp.run_plain layout in
        let p =
          {
            pname = w.W.name;
            layout;
            reference;
            self_check = self_check_of w.W.name;
          }
        in
        (* the reference can only fail by trapping or by its self-check *)
        Tally.check tally ?self_check:p.self_check
          ~where:(Printf.sprintf "%s/%s/reference" spec.name p.pname)
          ~reference p.reference;
        p)
      !last
  in
  (Quant.median times, progs)

(* Orders fixed for the whole run, so the deterministic figures repeat
   from pass to pass: programs within a pass, session members, warm
   restarts. *)
let orders spec rng progs =
  let order = shuffle rng progs in
  let members =
    shuffle rng (List.concat_map (fun p -> List.init spec.users (fun _ -> p)) progs)
  in
  let warm = if spec.users > 0 then shuffle rng progs else [] in
  (order, members, warm)

(* Run interleaved rounds of passes until [seconds] have gone and at
   least [min_rounds] rounds ran; each round is [round] in a fresh seeded
   order. *)
let measure ~seconds ~rng ~round f =
  let deadline = Spans.now_ns () + int_of_float (seconds *. 1e9) in
  let rounds = ref 0 in
  while Spans.now_ns () < deadline || !rounds < min_rounds do
    List.iter f (shuffle rng round);
    incr rounds
  done

let median_of l = Quant.median (Array.of_list l)

let push tbl k x =
  Hashtbl.replace tbl k (x :: (try Hashtbl.find tbl k with Not_found -> []))

(* ---------------------------------------------------------------- *)
(* --trace 0: end-to-end metrics                                      *)

let end_to_end spec ~seconds ~rng tally setup_s (order, members, warm) =
  let first_probe = Speed.probe () in
  let log = ref [] in
  let alloc = ref [] in
  let det = ref None in
  let timed_pass b =
    let pass = run_pass spec ~order ~members ~warm b in
    check_pass tally spec pass;
    if b = Trace then begin
      let instr = float_of_int (pass_instructions pass) in
      alloc := (1000.0 *. ratio pass.words instr) :: !alloc;
      let d = deterministic pass in
      match !det with
      | None -> det := Some d
      | Some d0 ->
          Tally.expect tally
            ~where:(Printf.sprintf "%s/all/trace" spec.name)
            (d0 = d) "deterministic metrics differ between passes"
    end;
    pass.ms
  in
  measure ~seconds ~rng ~round:e2e_round (fun b ->
      let ms = timed_pass b in
      log := (b, ms, Speed.probe ()) :: !log);
  (* probes.(i) was taken just before pass i, probes.(i + 1) just after *)
  let log = Array.of_list (List.rev !log) in
  let probes =
    Array.append [| first_probe |] (Array.map (fun (_, _, p) -> p) log)
  in
  print_string "series (backend, unscaled ms, probe ms before):";
  Array.iteri
    (fun i (b, ms, _) ->
      Printf.printf " %s %.3f %.3f" (backend_name b) ms probes.(i))
    log;
  Printf.printf " end %.3f\n" probes.(Array.length log);
  let samples = Hashtbl.create 4 and raw = Hashtbl.create 4 in
  Array.iteri
    (fun i (b, ms, _) ->
      push raw b ms;
      push samples b (Speed.scale ~probe_ms:(Speed.around probes i) ms))
    log;
  let get b = Array.of_list (List.rev (Hashtbl.find samples b)) in
  let trace = get Trace in
  List.iter
    (fun b ->
      Printf.printf "%s_ms samples (scaled):" (backend_name b);
      Array.iter (Printf.printf " %.1f") (get b);
      Printf.printf "\n  unscaled median %.3f ms\n"
        (median_of (Hashtbl.find raw b)))
    [ Plain; Profile; Trace; Microir ];
  Printf.printf
    "speed probe: median %.3f ms over %d probes; times are scaled to a %.0f \
     ms probe\n"
    (Quant.median probes) (Array.length probes) Speed.reference_ms;
  (* The probe runs with nothing of the pass live, so it should not
     depend on the backend just run: a ratio away from 1 here would bias
     the scaled times by backend.  The ratio pairs each probe with the
     one before the same pass, which cancels the host's drift. *)
  Printf.printf
    "speed probe after each backend's passes (median ms; median ratio to \
     the probe before the pass):%s\n"
    (String.concat ","
       (List.map
          (fun b ->
            let after = ref [] and ratios = ref [] in
            Array.iteri
              (fun i (b', _, _) ->
                if b' = b then begin
                  after := probes.(i + 1) :: !after;
                  ratios := (probes.(i + 1) /. probes.(i)) :: !ratios
                end)
              log;
            Printf.sprintf " %s %.3f (%.3f)" (backend_name b) (median_of !after)
              (median_of !ratios))
          [ Plain; Profile; Trace; Microir ]));
  (* min_rounds rounds give at least 12 trace samples, enough for a tail *)
  let tail_p, tail = Option.get (Quant.tail trace) in
  let disp, cov, compl = Option.get !det in
  Printf.printf "passes: plain %d, profile %d, trace %d, microir %d\n"
    (Array.length (get Plain)) (Array.length (get Profile)) (Array.length trace)
    (Array.length (get Microir));
  Printf.printf "trace_ms_tail: p%d of %d trace_ms samples (%d beyond it)\n" tail_p
    (Array.length trace)
    (Array.length trace - Quant.rank ~n:(Array.length trace) tail_p);
  [
    ("setup_s", setup_s, "s");
    ("plain_ms", Quant.median (get Plain), "ms");
    ("profile_ms", Quant.median (get Profile), "ms");
    ("trace_ms", Quant.median trace, "ms");
    ("trace_ms_tail", tail, "ms");
    ("microir_ms", Quant.median (get Microir), "ms");
    ("alloc_words_per_kinstr", median_of !alloc, "words/kinstr");
    ("dispatches_per_kinstr", disp, "1/kinstr");
    ("coverage_pct", cov, "%");
    ("completion_pct", compl, "%");
    ("correct_pct", Tally.correct_pct tally, "%");
  ]

(* ---------------------------------------------------------------- *)
(* --trace 1: per-layer metrics                                       *)

let record_stream layout =
  let buf = ref (Array.make 4096 0) in
  let n = ref 0 in
  ignore
    (Interp.run layout ~on_block:(fun g ->
         if !n = Array.length !buf then begin
           let b = Array.make (2 * !n) 0 in
           Array.blit !buf 0 b 0 !n;
           buf := b
         end;
         !buf.(!n) <- g;
         incr n));
  Array.sub !buf 0 !n

(* Named counters summed over the workload's programs. *)
let counters () =
  let tbl = Hashtbl.create 32 in
  let bump k x =
    Hashtbl.replace tbl k (x +. try Hashtbl.find tbl k with Not_found -> 0.0)
  in
  let get k = try Hashtbl.find tbl k with Not_found -> 0.0 in
  (bump, get)

(* Replay program [p]'s block stream into single layers, and measure the
   finished run's cache ([owner] is the engine that filled it). *)
let layer_replays tr tally spec bump walks p ~owner =
  let sp = tr.sp in
  let cfg = config spec Trace in
  let stream = record_stream p.layout in
  let n = Array.length stream in
  let n_blocks = p.layout.Layout.n_blocks in
  let where = Printf.sprintf "%s/%s" spec.name p.pname in
  (* the profiler alone: every dispatch of the block stream, no builder *)
  let prof = Profiler.create cfg ~n_blocks ~on_signal:ignore in
  let w0 = Gc.minor_words () in
  Spans.with_ sp "profiler.replay" (fun () ->
      Array.iter (Profiler.dispatch prof) stream);
  bump "profiler.replay_words" (Gc.minor_words () -. w0);
  bump "profiler.replay_calls" (float_of_int n);
  (* the same replay with the builder behind the profiler's signals *)
  let cache =
    Trace_cache.create ~max_traces:(Config.max_cache_traces cfg)
      ~eviction_policy:(Config.eviction_policy cfg) p.layout
  in
  let on_signal s =
    let o =
      Spans.with_ sp "trace_builder.on_signal" (fun () ->
          Tracegen.Trace_builder.on_signal
            ~on_path:(fun l -> walks := float_of_int l :: !walks)
            cfg cache s)
    in
    bump "builder.new" (float_of_int o.Tracegen.Trace_builder.new_traces);
    bump "builder.reused" (float_of_int o.Tracegen.Trace_builder.reused_traces)
  in
  let prof = Profiler.create cfg ~n_blocks ~on_signal in
  Spans.with_ sp "trace_builder.replay" (fun () ->
      Array.iter (Profiler.dispatch prof) stream);
  (* every (prev, cur) transition looked up in the finished run's cache *)
  let final = Engine.cache owner in
  let hits = ref 0 in
  Spans.with_ sp "trace_cache.lookup" (fun () ->
      for i = 1 to n - 1 do
        match Trace_cache.lookup final ~prev:stream.(i - 1) ~cur:stream.(i) with
        | Some _ -> incr hits
        | None -> ()
      done);
  bump "lookup.calls" (float_of_int (max 0 (n - 1)));
  bump "lookup.hits" (float_of_int !hits);
  (* prover and tier over the live traces *)
  let traces = ref [] in
  Trace_cache.iter final (fun t -> traces := t :: !traces);
  List.iter
    (fun t ->
      ignore
        (Spans.with_ sp "trace_prover.validate" (fun () ->
             Tracegen.Trace_prover.validate p.layout t)))
    !traces;
  List.iter
    (fun t ->
      ignore
        (Spans.with_ sp "tier.lower_trace" (fun () ->
             Tracegen.Tier.lower_trace p.layout t)))
    !traces;
  List.iter
    (fun t ->
      let k =
        Spans.with_ sp "trace_prover.prune" (fun () ->
            Tracegen.Trace_prover.prune p.layout t)
      in
      bump "prune.pruned" (float_of_int k);
      bump "prune.positions" (float_of_int (Tracegen.Trace.n_blocks t - 1)))
    !traces;
  (* the compiled tier's own run *)
  let mi = Engine.run ~config:(config spec Microir) p.layout in
  Tally.check tally ?self_check:p.self_check ~where:(where ^ "/microir (tier probe)")
    ~reference:p.reference mi.Engine.vm_result;
  let st = mi.Engine.run_stats in
  bump "tier.compiled" (float_of_int st.Stats.traces_compiled);
  bump "tier.demotions" (float_of_int st.Stats.tier_demotions);
  bump "tier.ops" (float_of_int st.Stats.mi_ops);
  bump "tier.positions" (float_of_int st.Stats.mi_positions);
  (* warm start from the finished run *)
  let data = Spans.with_ sp "persist.snapshot" (fun () -> Engine.snapshot owner) in
  bump "persist.bytes" (float_of_int (String.length data));
  let e = Engine.create ~config:cfg p.layout in
  match Spans.with_ sp "persist.restore" (fun () -> Engine.restore e data) with
  | Error err ->
      Tally.refuse tally ~where:(where ^ "/warm restart (persist probe)")
        ("restore rejected: " ^ Tracegen.Persist.error_to_string err)
  | Ok _ ->
      let rr = Spans.with_ sp "persist.warm_run" (fun () -> Engine.drive e) in
      Tally.check tally ?self_check:p.self_check
        ~where:(where ^ "/warm restart (persist probe)")
        ~reference:p.reference rr.Engine.vm_result

(* Distinct elements by physical equality. *)
let distinct l =
  List.fold_left (fun acc x -> if List.memq x acc then acc else x :: acc) [] l

let traced spec ~seconds ~rng tr tally progs (order, members, warm) =
  let samples = Hashtbl.create 4 in
  let last = Hashtbl.create 4 in
  let plain_words = ref [] in
  measure ~seconds ~rng ~round:traced_round (fun ((b, traced) as which) ->
      let pass =
        if traced then
          Spans.with_ tr.sp "pass" (fun () ->
              run_pass ~tr spec ~order ~members ~warm b)
        else run_pass spec ~order ~members ~warm b
      in
      check_pass tally spec pass;
      push samples which pass.ms;
      Hashtbl.replace last which pass;
      if b = Plain then
        plain_words :=
          (1000.0 *. ratio pass.words (float_of_int (pass_instructions pass)))
          :: !plain_words);
  let med k = median_of (Hashtbl.find samples k) in
  let plain_ms = med (Plain, false) and profile_ms = med (Profile, false) in
  let trace_ms = med (Trace, false) and traced_ms = med (Trace, true) in
  let count k = List.length (Hashtbl.find samples k) in
  let n_traced = float_of_int (count (Trace, true)) in
  let tp = Hashtbl.find last (Trace, true) in
  let plain_pass = Hashtbl.find last (Plain, false) in
  (* per-layer replays, one per program *)
  let bump, get = counters () in
  let walks = ref [] in
  List.iter
    (fun p ->
      let owner =
        List.find_map
          (fun r -> if r.prog == p then r.engine else None)
          tp.runs
        |> Option.get
      in
      layer_replays tr tally spec bump walks p ~owner)
    progs;
  let spans = Spans.spans tr.sp in
  let tot = Spans.totals spans in
  let dur_ms name = float_of_int (tot name).Spans.dur_ns /. 1e6 in
  let mean_ns name =
    let t = tot name in
    ratio (float_of_int t.Spans.dur_ns) (float_of_int t.Spans.count)
  in
  let n_progs = float_of_int (List.length progs) in
  let fi = float_of_int in
  (* the last traced pass's engines and caches *)
  let engines = List.filter_map (fun r -> r.engine) tp.runs in
  let profs = List.map Engine.profiler engines in
  let stats = run_stats tp in
  let caches = distinct (List.map Engine.cache engines) in
  let ssum f = fi (sum f stats) in
  let hook_calls = fi (sum Profiler.dispatches profs) in
  let signals = fi (sum Profiler.signals profs) in
  let instr = ssum (fun s -> s.Stats.instructions) in
  let blocks =
    fi
      (sum
         (fun r ->
           match r.outcome with
           | Ok x -> x.Interp.block_dispatches
           | Error _ -> 0)
         plain_pass.runs)
  in
  let entered = ssum (fun s -> s.Stats.traces_entered) in
  let completed = ssum (fun s -> s.Stats.traces_completed) in
  let session_sum f = match tp.session with Some s -> fi (f s) | None -> 0.0 in
  (* unit costs from the replays *)
  let ns_per_dispatch =
    ratio (dur_ms "profiler.replay" *. 1e6) (get "profiler.replay_calls")
  in
  let builder_calls = fi (tot "trace_builder.on_signal").Spans.count in
  let us_per_call = mean_ns "trace_builder.on_signal" /. 1e3 in
  let lookup_ns =
    ratio (dur_ms "trace_cache.lookup" *. 1e6) (get "lookup.calls")
  in
  let on_block = tot "engine.on_block" in
  let on_block_ns = mean_ns "engine.on_block" in
  let calls_per_pass = fi tr.calls /. n_traced in
  let vm_self_ms = fi (tot "engine.run").Spans.self_ns /. 1e6 /. n_traced in
  let snapshot_ms = mean_ns "persist.snapshot" *. n_progs /. 1e6 in
  let restore_ms = mean_ns "persist.restore" *. n_progs /. 1e6 in
  (* Table VI's unit: extra seconds of the profiled run per million hooks *)
  let hook_s_per_mdisp =
    ratio ((profile_ms -. plain_ms) /. 1e3) (blocks /. 1e6)
  in
  (* reconciliation of trace_ms - plain_ms; an engine looks the cache up
     once per dispatch outside a trace *)
  let base = trace_ms -. plain_ms in
  let hook_part = hook_calls *. ns_per_dispatch /. 1e6 in
  let builder_part = signals *. us_per_call /. 1e3 in
  let lookups = fi (sum Engine.total_dispatches engines) in
  let lookup_part = lookups *. lookup_ns /. 1e6 in
  let persist_part =
    if spec.users > 0 then snapshot_ms +. restore_ms else 0.0
  in
  let residual =
    base -. hook_part -. builder_part -. lookup_part -. persist_part
  in
  let residual_pct = 100.0 *. ratio residual base in
  Printf.printf
    "passes: plain %d, profile %d, trace %d, traced %d (times unscaled)\n"
    (count (Plain, false)) (count (Profile, false)) (count (Trace, false))
    (count (Trace, true));
  Printf.printf
    "sampling: engine.on_block timed on %d of %d calls (1 in %d at random gaps, \
     clock cost %d ns removed); profiler.dispatch timed in aggregate over \
     replays of %.0f calls\n"
    on_block.Spans.count tr.calls sample_every tr.clock_ns
    (get "profiler.replay_calls");
  Printf.printf
    "reconcile %s: trace_ms - plain_ms = %.3f ms (base) | hook %.3f ms (%.0f \
     calls x %.1f ns) | builder %.3f ms (%.0f signals x %.2f us) | lookup %.3f \
     ms (%.0f x %.1f ns) | persist %.3f ms | residual %.3f ms = %.1f%% of base \
     | on_block total %.3f ms (%.0f calls x %.1f ns, sampled) | %s\n"
    spec.name base hook_part hook_calls ns_per_dispatch builder_part signals
    us_per_call lookup_part lookups lookup_ns persist_part residual residual_pct
    (calls_per_pass *. on_block_ns /. 1e6)
    calls_per_pass on_block_ns
    (if spec.users > 0 then
       Printf.sprintf
         "vm.self_ms %.3f over the warm-restart runs only (session members \
          step inside Session.run, which has no per-dispatch hook)"
         vm_self_ms
     else Printf.sprintf "vm.self_ms %.3f vs plain_ms %.3f" vm_self_ms plain_ms);
  let pct a b = 100.0 *. ratio a b in
  let cache_sum f = fi (sum f caches) in
  let engine_sum f =
    fi (sum (fun e -> Option.value ~default:0 (f e)) engines)
  in
  let bcg_sum f = fi (sum (fun p -> f (Profiler.bcg p)) profs) in
  let us name = mean_ns name /. 1e3 in
  let walks = Array.of_list !walks in
  let reps = fi setup_reps in
  let built = get "builder.new" and reused = get "builder.reused" in
  let replay_calls = get "profiler.replay_calls" in
  (* Table VII's method: hook calls x the per-dispatch cost of Table VI *)
  let expected_s = hook_calls *. hook_s_per_mdisp /. 1e6 in
  [
    ("workloads.build_ms", dur_ms "workloads.build" /. reps, "ms");
    ("bytecode.verify_ms", dur_ms "bytecode.verify" /. reps, "ms");
    ("cfg.layout_ms", dur_ms "cfg.layout" /. reps, "ms");
    ("cfg.blocks", fi (sum (fun p -> p.layout.Layout.n_blocks) progs), "count");
    ("vm.instructions", instr, "count");
    ("vm.block_dispatches", blocks, "count");
    ("vm.ns_per_block", ratio (plain_ms *. 1e6) blocks, "ns");
    ("vm.alloc_words_per_kinstr", median_of !plain_words, "words/kinstr");
    ("vm.self_ms", vm_self_ms, "ms");
    ("profiler.ns_per_dispatch", ns_per_dispatch, "ns");
    ("profiler.hook_calls", hook_calls, "count");
    ("profiler.signals", signals, "count");
    ( "profiler.ic_hit_pct",
      pct (fi (sum Profiler.predictions profs)) hook_calls,
      "%" );
    ( "profiler.alloc_words_per_dispatch",
      ratio (get "profiler.replay_words") replay_calls,
      "words" );
    ("bcg.nodes", bcg_sum Tracegen.Bcg.n_nodes, "count");
    ("bcg.edges", bcg_sum Tracegen.Bcg.n_edges, "count");
    ("trace_builder.calls", builder_calls, "count");
    ("trace_builder.us_per_call", us_per_call, "us");
    ("trace_builder.traces_built", built, "count");
    ("trace_builder.reuse_pct", pct reused (built +. reused), "%");
    ( "trace_builder.walk_len_p50",
      (if walks = [||] then 0.0 else Quant.median walks),
      "transitions" );
    ("trace_cache.lookup_ns", lookup_ns, "ns");
    ("trace_cache.lookup_hit_pct", pct (get "lookup.hits") (get "lookup.calls"), "%");
    ("trace_cache.installs", cache_sum Trace_cache.n_constructed, "count");
    ("trace_cache.evictions", cache_sum Trace_cache.n_evicted, "count");
    ("trace_cache.live_traces", cache_sum Trace_cache.n_live, "count");
    ("trace_cache.footprint_bytes", cache_sum Trace_cache.footprint_bytes, "bytes");
    ("session.cross_installs", session_sum Session.cross_installs, "count");
    ("session.cross_entries", session_sum Session.cross_entries, "count");
    ( "ledger.records",
      engine_sum (fun e -> Option.map Tracegen.Ledger.length (Engine.ledger e)),
      "count" );
    ( "flightrec.recorded",
      engine_sum (fun e ->
          Option.map Tracegen.Flightrec.recorded (Engine.flightrec e)),
      "count" );
    ("backend_trace.entries", entered, "count");
    ("backend_trace.side_exits", entered -. completed, "count");
    ( "backend_trace.avg_len",
      ratio (ssum (fun s -> s.Stats.completed_blocks)) completed,
      "blocks" );
    ( "backend_trace.linking_pct",
      pct (ssum (fun s -> s.Stats.chained_entries)) entered,
      "%" );
    ( "backend_trace.guards_per_kinstr",
      1000.0 *. ratio (ssum (fun s -> s.Stats.guards_checked)) instr,
      "1/kinstr" );
    ( "trace_prover.elision_pct",
      pct (get "prune.pruned") (get "prune.positions"),
      "%" );
    ("trace_prover.validate_us_per_trace", us "trace_prover.validate", "us");
    ("trace_prover.prune_us_per_trace", us "trace_prover.prune", "us");
    ("tier.lower_us_per_trace", us "tier.lower_trace", "us");
    ("tier.traces_compiled", get "tier.compiled", "count");
    ("tier.demotions", get "tier.demotions", "count");
    ("microir.ops_per_position", ratio (get "tier.ops") (get "tier.positions"), "ops");
    ("persist.snapshot_ms", snapshot_ms, "ms");
    ("persist.snapshot_bytes", get "persist.bytes", "bytes");
    ("persist.restore_ms", restore_ms, "ms");
    ("persist.warm_run_ms", dur_ms "persist.warm_run", "ms");
    ("engine.on_block_ns", on_block_ns, "ns");
    ("engine.trace_vs_plain", ratio trace_ms plain_ms, "x");
    ("engine.profile_vs_plain", ratio profile_ms plain_ms, "x");
    ("engine.hook_s_per_mdisp", hook_s_per_mdisp, "s/Mdisp");
    ("engine.expected_overhead_pct", pct expected_s (plain_ms /. 1e3), "%");
    ("engine.residual_pct", residual_pct, "%");
    ("trace.overhead_pct", 100.0 *. (ratio traced_ms trace_ms -. 1.0), "%");
  ]

(* ---------------------------------------------------------------- *)
(* Command line                                                       *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  spans_out : string option;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload loops|calls|churn --seed N --seconds S \
     --trace 0|1 [--spans FILE]";
  exit 2

let parse argv =
  let rec go a = function
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> (
        match int_of_string_opt v with
        | Some s -> go { a with seed = s } rest
        | None -> usage ())
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0.0 -> go { a with seconds = s } rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--spans" :: v :: rest -> go { a with spans_out = Some v } rest
    | [] -> a
    | _ -> usage ()
  in
  go
    { workload = ""; seed = 0; seconds = 10.0; trace = false; spans_out = None }
    (List.tl (Array.to_list argv))

let () =
  let args = parse Sys.argv in
  let spec =
    match List.find_opt (fun s -> s.name = args.workload) specs with
    | Some s -> s
    | None -> usage ()
  in
  let rng = Random.State.make [| args.seed |] in
  let tally = Tally.create () in
  let tr =
    if args.trace then
      Some
        {
          sp = Spans.create ();
          srng = Random.State.make [| args.seed; 1 |];
          clock_ns = clock_cost_ns ();
          calls = 0;
          next_sample = 1;
        }
    else None
  in
  let resolved = resolve_sizes spec rng in
  let sized = List.map (fun (w, _, s) -> (w, s)) resolved in
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%b\n" spec.name
    args.seed args.seconds args.trace;
  Printf.printf "sizes: %s\n"
    (String.concat ", "
       (List.map
          (fun (w, base, s) -> Printf.sprintf "%s=%d (base %d)" w.W.name s base)
          resolved));
  let setup_s, progs = setup tr tally spec sized in
  let orders = orders spec rng progs in
  let metrics =
    match tr with
    | None -> end_to_end spec ~seconds:args.seconds ~rng tally setup_s orders
    | Some t ->
        let m = traced spec ~seconds:args.seconds ~rng t tally progs orders in
        Option.iter
          (fun path -> Spans.write_jsonl path (Spans.spans t.sp))
          args.spans_out;
        m
  in
  List.iter (fun p -> Printf.printf "FAILED %s\n" p) (Tally.problems tally);
  emit_json tally metrics
