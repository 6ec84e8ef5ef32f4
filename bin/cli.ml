(* The plumbing every repro_cli subcommand shares, each piece once:
   workload selection, the engine flags and the one constructor that
   turns them into a configuration, whole-file I/O, the transparency
   check of the gating subcommands, and the cmdliner arguments.  A
   failure here is a usage error: one line on stderr, exit 2. *)

open Cmdliner
module Config = Tracegen.Config

let die fmt = Printf.kfprintf (fun _ -> exit 2) stderr fmt

(* ------------------------------------------------------------------ *)
(* workloads                                                            *)
(* ------------------------------------------------------------------ *)

let find_workload name =
  match Workloads.Registry.find name with
  | Some w -> w
  | None ->
      die "unknown workload %s (try: %s)\n" name
        (String.concat ", " (Workloads.Registry.names ()))

(* an optional WORKLOAD: that one, else every registered workload *)
let workloads = function
  | Some name -> [ find_workload name ]
  | None -> Workloads.Registry.all

let program_of w ~size =
  match size with
  | Some s -> w.Workloads.Workload.build ~size:s
  | None -> Workloads.Workload.build_default w

let layout_of w ~size =
  let program = program_of w ~size in
  Bytecode.Verify.verify_program program;
  Cfg.Layout.build program

let layout name ~size = layout_of (find_workload name) ~size

(* ------------------------------------------------------------------ *)
(* the engine flags and the configuration constructor                   *)
(* ------------------------------------------------------------------ *)

(* A subcommand offers --threshold and --delay, plus the flags it opts
   into ([flags]); the ones it does not offer keep Config.default. *)
type flags = {
  threshold : float;
  delay : int;
  fault_spec : string;
  fault_seed : int;
  self_heal : bool;
  osr : bool;
  tier : bool;
}

let defaults =
  let d = Config.default in
  {
    threshold = Config.threshold d;
    delay = Config.start_state_delay d;
    fault_spec = Config.fault_spec d;
    fault_seed = Config.fault_seed d;
    self_heal = Config.self_heal d;
    osr = Config.osr_enabled d;
    tier = Config.tier_enabled d;
  }

(* Every engine configuration the CLI runs is built here.  The engine
   parses the fault spec only at create, so it is parsed here too: a bad
   spec and an out-of-range parameter both die as usage errors.  Debug
   checks follow --self-heal unless the caller says otherwise. *)
let config ?debug_checks ?snapshot_period ?obs_attribution f =
  try
    ignore (Tracegen.Faults.create ~seed:f.fault_seed f.fault_spec);
    Config.make ~threshold:f.threshold ~start_state_delay:f.delay
      ~fault_spec:f.fault_spec ~fault_seed:f.fault_seed ~self_heal:f.self_heal
      ~debug_checks:(Option.value debug_checks ~default:f.self_heal)
      ~osr:f.osr ~tier:f.tier ?snapshot_period ?obs_attribution ()
  with Invalid_argument msg -> die "invalid configuration: %s\n" msg

(* ------------------------------------------------------------------ *)
(* files and the transparency check                                     *)
(* ------------------------------------------------------------------ *)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error msg -> die "cannot read %s: %s\n" path msg

let write_file path contents =
  try
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents)
  with Sys_error msg -> die "cannot write %s: %s\n" path msg

(* The pure-overlay promise the backends, session and warm gates
   hold a run to: its VM result equals the reference's.  [divergences]
   counts the comparisons that failed. *)
let divergences = ref 0

let identical reference result =
  let same =
    Harness.Chaos.fingerprint reference = Harness.Chaos.fingerprint result
  in
  if not same then incr divergences;
  same

(* ------------------------------------------------------------------ *)
(* arguments                                                            *)
(* ------------------------------------------------------------------ *)

(* --size, --schedules, --users, --batch and --top: a count of zero or
   less would let a gate pass without checking anything, or print a
   table with no rows *)
let positive =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ ->
        Error
          (Printf.sprintf "invalid value '%s', expected a positive integer" s)
  in
  Arg.conv' (parse, Format.pp_print_int)

(* A float that must be finite and pass [ok]; [expected] completes the
   error message. *)
let finite_float ~expected ok =
  let parse s =
    match float_of_string_opt s with
    | Some x when Float.is_finite x && ok x -> Ok x
    | _ ->
        Error
          (Printf.sprintf "invalid value '%s', expected a finite number %s" s
             expected)
  in
  Arg.conv' (parse, Format.pp_print_float)

(* bench-diff --max-regress: a NaN tolerance compares false against every
   move, an infinite one forgives all of them, and a negative one flags
   a file diffed against itself *)
let tolerance = finite_float ~expected:">= 0" (fun x -> x >= 0.0)

let workload_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")

(* the optional WORKLOAD of the subcommands that default to all of them *)
let workloads_arg verb =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
         ~doc:(Printf.sprintf "Workload to %s (default: every registered \
                               workload)." verb))

let size_arg =
  Arg.(value & opt (some positive) None & info [ "size" ] ~docv:"N"
         ~doc:"Workload size, a positive integer (default: the workload's \
               test size).")

(* --scale: every workload size is clamped to at least 1, so a scale
   that is not a finite positive number would run every workload at
   size 1 and print a table that looks real *)
let scale_arg =
  Arg.(value
       & opt (finite_float ~expected:"> 0" (fun x -> x > 0.0)) 1.0
       & info [ "scale" ] ~docv:"S"
           ~doc:"Scale factor on workload bench sizes, a finite number > 0 \
                 (1.0 = paper-scale runs).")

let tier_arg =
  Arg.(value & flag & info [ "tier" ]
         ~doc:"Arm the compiled micro-IR tier: hot traces are lowered to \
               a register micro-IR with fused superinstructions, and \
               trace dispatch prices their entries and positions on the \
               compiled tier (results stay bit-identical; see 'backends \
               --tier').")

(* [faults] offers --fault-spec, --fault-seed and --self-heal *)
let flags ?(faults = false) ?(osr = false) ?(tier = false) () =
  let threshold =
    Arg.(value & opt float defaults.threshold & info [ "threshold" ]
           ~docv:"P" ~doc:"Trace completion threshold in (0,1].")
  in
  let delay =
    Arg.(value & opt int defaults.delay & info [ "delay" ] ~docv:"D"
           ~doc:"Start state delay (paper: 1, 64 or 4096).")
  in
  let fault_spec =
    Arg.(value & opt string "" & info [ "fault-spec" ] ~docv:"SPEC"
           ~doc:"Fault schedule DSL (kind@prob, kind!tick, budget=K; empty \
                 = no injection).  See 'chaos --catalogue' for kinds.")
  in
  let fault_seed =
    Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"N"
           ~doc:"PRNG seed for the fault schedule.")
  in
  let self_heal =
    Arg.(value & flag & info [ "self-heal" ]
           ~doc:"Enable quarantine, node repair and the degradation ladder \
                 (also turns on the invariant sweeps that drive them).")
  in
  let osr_arg =
    Arg.(value & flag & info [ "osr" ]
           ~doc:"Arm on-stack replacement: guard failures deoptimize \
                 mid-trace back to block dispatch, and hot loops are \
                 promoted into self-chaining traces mid-iteration.")
  in
  let offered on arg default = if on then arg else Term.const default in
  let open Term.Syntax in
  let+ threshold = threshold
  and+ delay = delay
  and+ fault_spec = offered faults fault_spec defaults.fault_spec
  and+ fault_seed = offered faults fault_seed defaults.fault_seed
  and+ self_heal = offered faults self_heal defaults.self_heal
  and+ osr = offered osr osr_arg defaults.osr
  and+ tier = offered tier tier_arg defaults.tier in
  { threshold; delay; fault_spec; fault_seed; self_heal; osr; tier }
