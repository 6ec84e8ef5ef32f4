(* Command-line interface to the reproduction: run workloads under any
   configuration, regenerate the paper's tables, and inspect the BCG and
   the trace cache.  Each section holds one subcommand: its logic, then
   its flags and doc; the shared plumbing lives in Cli. *)

open Cmdliner
module Engine = Tracegen.Engine
module Stats = Tracegen.Stats

(* ------------------------------------------------------------------ *)
(* run                                                                  *)
(* ------------------------------------------------------------------ *)

let run workload size (flags : Cli.flags) dump_traces dump_bcg top
    dump_flightrec =
  let layout = Cli.layout workload ~size in
  (* --traces reads each trace's counts from a tally of the run's events *)
  let events = Tracegen.Events.create () in
  let tally =
    if dump_traces then Some (Harness.Oracle.attach events) else None
  in
  let result = Engine.run ~config:(Cli.config flags) ~events layout in
  let s = result.Engine.run_stats in
  (* --dump-flightrec: force a Manual post-mortem dump of the black-box
     ring — what an invariant/divergence trigger would have written *)
  (match dump_flightrec with
  | None -> ()
  | Some path -> (
      match Engine.flightrec result.Engine.engine with
      | Some fr ->
          Cli.write_file path
            (Harness.Codec.postmortem_jsonl
               ~reason:(Tracegen.Flightrec.reason_to_string Manual)
               fr);
          Printf.eprintf "# flightrec: %d of %d recorded entrie(s) -> %s\n"
            (min
               (Tracegen.Flightrec.recorded fr)
               (Tracegen.Flightrec.capacity fr))
            (Tracegen.Flightrec.recorded fr)
            path
      | None ->
          Cli.die
            "--dump-flightrec: flight recorder disabled (flightrec_capacity \
             0)\n"));
  (match result.Engine.vm_result.Vm.Interp.outcome with
  | Vm.Interp.Finished (Some value) ->
      Printf.printf "result: %s\n" (Vm.Value.to_string value)
  | Vm.Interp.Finished None -> Printf.printf "result: void\n"
  | Vm.Interp.Trapped (kind, msg) ->
      Printf.printf "trapped: %s (%s)\n"
        (Vm.Interp.error_kind_to_string kind)
        msg);
  Format.printf "%a@." Stats.pp s;
  Option.iter (fun tally ->
    let entered tr = Harness.Oracle.entered tally tr.Tracegen.Trace.id in
    let completed tr = Harness.Oracle.completed tally tr.Tracegen.Trace.id in
    let traces = ref [] in
    Tracegen.Trace_cache.iter_all (Engine.cache result.Engine.engine)
      (fun tr -> traces := tr :: !traces);
    let sorted =
      List.sort (fun a b -> compare (completed b) (completed a)) !traces
    in
    Printf.printf "\ntraces (%d total, showing up to %d by completions):\n"
      (List.length sorted) top;
    List.iteri
      (fun k tr ->
        if k < top then begin
          Printf.printf "%s entered=%d completed=%d\n"
            (Tracegen.Trace.describe layout tr)
            (entered tr) (completed tr);
          match tr.Tracegen.Trace.lowered with
          | Some body ->
              Printf.printf
                "       tier: compiled (%d micro-ops, %d fused, from %d \
                 instrs)\n"
                (Tracegen.Microir.n_ops body)
                body.Tracegen.Microir.fused body.Tracegen.Microir.src_instrs
          | None -> if flags.tier then print_endline "       tier: interp"
        end)
      sorted)
    tally;
  if dump_bcg then begin
    let bcg = Tracegen.Profiler.bcg (Engine.profiler result.Engine.engine) in
    let nodes = ref [] in
    Tracegen.Bcg.iter_nodes bcg (fun n -> nodes := n :: !nodes);
    let sorted =
      List.sort
        (fun a b -> compare b.Tracegen.Bcg.exec_total a.Tracegen.Bcg.exec_total)
        !nodes
    in
    Printf.printf "\nbcg nodes (%d total, showing up to %d by executions):\n"
      (List.length sorted) top;
    List.iteri
      (fun k n ->
        if k < top then
          Format.printf "%a@." (Tracegen.Bcg.pp_node layout) n)
      sorted
  end

let run_cmd =
  let dump_traces =
    Arg.(value & flag & info [ "traces" ] ~doc:"Dump the trace cache.")
  in
  let dump_bcg =
    Arg.(value & flag & info [ "bcg" ] ~doc:"Dump the hottest BCG nodes.")
  in
  let top =
    Arg.(value & opt Cli.positive 20 & info [ "top" ] ~docv:"K"
           ~doc:"How many traces/nodes to dump, a positive integer.")
  in
  let dump_flightrec =
    Arg.(value & opt (some string) None & info [ "dump-flightrec" ]
           ~docv:"FILE"
           ~doc:"Force a post-mortem dump of the flight-recorder ring to \
                 $(docv) after the run (reason \"manual\") — the same \
                 JSONL an invariant or divergence trigger writes.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload under the trace-cache engine.")
    Term.(
      const run $ Cli.workload_arg $ Cli.size_arg
      $ Cli.flags ~faults:true ~osr:true ~tier:true ()
      $ dump_traces $ dump_bcg $ top $ dump_flightrec)

(* ------------------------------------------------------------------ *)
(* events                                                               *)
(* ------------------------------------------------------------------ *)

(* Replay a workload with the event stream enabled and dump the timeline
   as JSON lines on stdout.  After the run the per-kind event totals of
   the timeline and of the decision ledger are checked against the
   end-of-run statistics (Harness.Oracle): the stream, the ledger and the
   counters are three views of the same execution and must agree
   exactly. *)
let events workload size flags snapshot_period stats_only =
  let module Events = Tracegen.Events in
  let module Oracle = Harness.Oracle in
  let layout = Cli.layout workload ~size in
  let config = Cli.config ~snapshot_period flags in
  let events = Events.create () in
  let tally = Oracle.attach events in
  let version_prefix =
    Printf.sprintf "{\"schema_version\":%d," Harness.Codec.schema_version
  in
  let unversioned = ref 0 in
  (* --stats-only skips the per-event JSON rendering entirely: the
     oracle's tally is all the cross-checks need *)
  if not stats_only then
    ignore
      (Events.subscribe events (fun e ->
           let line = Harness.Codec.to_string (Harness.Codec.event_json e) in
           (* every record must announce the export schema version *)
           if not (String.starts_with ~prefix:version_prefix line) then
             incr unversioned;
           print_endline line));
  let result = Engine.run ~config ~events layout in
  let s = result.Engine.run_stats in
  let engine = result.Engine.engine in
  let checks =
    Oracle.run_checks tally ~engine s
    @ [
        {
          Oracle.name = "schema_version on every record";
          got = !unversioned;
          want = 0;
        };
      ]
  in
  Printf.eprintf "# %d events across %d kinds\n"
    (Events.emitted events)
    (Oracle.n_kinds tally);
  if stats_only then
    (* the run's distributions with their percentile summaries, since
       the per-event timeline was suppressed *)
    prerr_string (Harness.Report.hist_summary (Oracle.histograms tally));
  if not (Oracle.report ~source:"timeline" checks) then exit 1

let events_cmd =
  let snapshot_period =
    Arg.(value & opt int 10_000 & info [ "snapshot-period" ] ~docv:"N"
           ~doc:"Take a metrics snapshot every N dispatches (0 disables).")
  in
  let stats_only =
    Arg.(value & flag & info [ "stats-only" ]
           ~doc:"Skip the per-event JSON timeline on stdout; only tally \
                 kinds and run the stderr cross-checks (much faster on \
                 large runs).")
  in
  Cmd.v
    (Cmd.info "events"
       ~doc:
         "Replay a workload with the event stream enabled and dump the \
          timeline as JSON lines (stdout); per-kind totals are \
          cross-checked against the end-of-run statistics (stderr, non-zero \
          exit on mismatch).")
    Term.(
      const events $ Cli.workload_arg $ Cli.size_arg
      $ Cli.flags ~faults:true ~osr:true ~tier:true ()
      $ snapshot_period $ stats_only)

(* ------------------------------------------------------------------ *)
(* table / disasm / export / list                                       *)
(* ------------------------------------------------------------------ *)

let table which scale =
  print_string
    (match which with
    | "1" -> Harness.Tables.table1 ~scale ()
    | "2" -> Harness.Tables.table2 ~scale ()
    | "3" -> Harness.Tables.table3 ~scale ()
    | "4" -> Harness.Tables.table4 ~scale ()
    | "5" -> Harness.Tables.table5 ~scale ()
    | "6" -> fst (Harness.Overhead.table6 ~scale ())
    | "7" -> Harness.Overhead.table7 ~scale ()
    | "coverage-total" -> Harness.Tables.coverage_totals ~scale ()
    | "figure" -> Harness.Tables.figure_dispatch ~scale ()
    | "baselines" -> Harness.Tables.baselines ~scale ()
    | "ablation-decay" -> Harness.Ablation.decay_ablation ()
    | "optimizer" -> Harness.Ablation.optimizer_report ~scale ()
    | "footprint" -> Harness.Footprint.report ~scale ()
    | other ->
        Cli.die
          "unknown table %s (1-7, coverage-total, figure, baselines, \
           ablation-decay, optimizer, footprint)\n"
          other)

let table_cmd =
  let which =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TABLE")
  in
  Cmd.v
    (Cmd.info "table"
       ~doc:
         "Regenerate one of the paper's tables (1-7, coverage-total, figure, \
          baselines, ablation-decay, optimizer, footprint).")
    Term.(const table $ which $ Cli.scale_arg)

let disasm workload size meth =
  let program = Cli.program_of (Cli.find_workload workload) ~size in
  match meth with
  | None -> print_string (Bytecode.Disasm.program_to_string program)
  | Some name -> (
      match Bytecode.Program.find_method program name with
      | Some m -> print_string (Bytecode.Disasm.method_to_string program m)
      | None -> Cli.die "no method %s\n" name)

let disasm_cmd =
  let meth =
    Arg.(value & opt (some string) None & info [ "method" ] ~docv:"NAME"
           ~doc:"Only this method.")
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a workload program.")
    Term.(const disasm $ Cli.workload_arg $ Cli.size_arg $ meth)

let export format workload scale =
  match format with
  | "csv" -> print_string (Harness.Export.sweep_csv ~scale ())
  | "jsonl" -> print_string (Harness.Export.sweep_jsonl ~scale ())
  | "json" -> (
      match workload with
      | None -> Cli.die "json format needs --workload\n"
      | Some name ->
          let w = Cli.find_workload name in
          let run =
            Harness.Experiment.execute
              (Harness.Experiment.default_key ~workload:name
                 ~size:(Harness.Experiment.size_for ~scale w))
          in
          print_endline (Harness.Codec.to_string (Harness.Export.run_json run)))
  | other -> Cli.die "unknown format %s (csv, jsonl, json)\n" other

let export_cmd =
  let format =
    Arg.(value & opt string "csv" & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: csv, jsonl or json (one workload).")
  in
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"W"
           ~doc:"Workload for --format json.")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Emit sweep results as CSV / JSON for external tools.")
    Term.(const export $ format $ workload $ Cli.scale_arg)

let list_cmd =
  Cmd.v
    (Cmd.info "list" ~doc:"List the available workloads.")
    Term.(
      const (fun () ->
          List.iter
            (fun w -> Format.printf "%a@." Workloads.Workload.pp w)
            Workloads.Registry.all)
      $ const ())

(* ------------------------------------------------------------------ *)
(* lint                                                                 *)
(* ------------------------------------------------------------------ *)

(* Static dataflow lint over the workload's bytecode, then a profiled run
   with the trace/BCG invariant checks on and a final end-of-run sweep.
   Exit 1 when any error-severity finding survives. *)
let lint workload size flags json static_only traces =
  let module Diag = Analysis.Diag in
  let ws = Cli.workloads workload in
  let config = Cli.config ~debug_checks:true flags in
  let diags =
    List.concat_map
      (fun w ->
        let name = w.Workloads.Workload.name in
        let program = Cli.program_of w ~size in
        let static =
          Analysis.Lint.lint_program ~context:name
            ~max_trace_blocks:Tracegen.Config.max_trace_blocks program
        in
        (* A verify-rejected program cannot be laid out, let alone run;
           its TL001 findings stand alone. *)
        let rejected =
          List.exists (fun d -> d.Diag.code = "TL001") static
        in
        if static_only || rejected then static
        else
          let layout = Cfg.Layout.build program in
          let engine = (Engine.run ~config layout).Engine.engine in
          let dynamic =
            Tracegen.Invariants.check_all ~context:name config
              ~bcg:(Tracegen.Profiler.bcg (Engine.profiler engine))
              ~cache:(Engine.cache engine)
          in
          (* --traces: translation-validate every installed trace *)
          let proved =
            if traces then
              Tracegen.Trace_prover.check_cache ~context:name layout
                (Engine.cache engine)
            else []
          in
          static @ dynamic @ proved)
      ws
  in
  let diags = List.stable_sort Diag.compare diags in
  if json then print_string (Harness.Codec.diags_jsonl diags)
  else begin
    List.iter (fun d -> print_endline (Diag.to_string d)) diags;
    Printf.printf "%d error(s), %d warning(s), %d note(s) across %d workload(s)\n"
      (Diag.count Diag.Error diags)
      (Diag.count Diag.Warning diags)
      (Diag.count Diag.Info diags)
      (List.length ws)
  end;
  if Diag.has_errors diags then exit 1

let lint_cmd =
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit diagnostics as JSON lines instead of human-readable text.")
  in
  let static_only =
    Arg.(value & flag & info [ "static-only" ]
           ~doc:"Skip the profiled run and its trace/BCG invariant sweep.")
  in
  let traces =
    Arg.(value & flag & info [ "traces" ]
           ~doc:"Also translation-validate every installed trace \
                 (symbolic equivalence of the optimized body to its block \
                 sequence, TL212-TL216 and TL218).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Lint workload programs with the dataflow analyses (dead stores, \
          unreachable blocks, always-taken branches, ...), then run each one \
          under the engine with debug checks on and sweep the trace cache \
          and BCG for invariant violations.  Exits 1 on any error-severity \
          finding.")
    Term.(
      const lint $ Cli.workloads_arg "lint" $ Cli.size_arg $ Cli.flags ()
      $ json $ static_only $ traces)

(* ------------------------------------------------------------------ *)
(* chaos                                                                *)
(* ------------------------------------------------------------------ *)

(* Run workloads under seeded fault schedules and hold the engine to the
   chaos gate's two promises: VM results bit-identical to the no-tracing
   baseline (FT901) and recovery to full tracing by the end of the run
   (FT902).  Exit 1 on any violated promise. *)
let chaos workload size seed schedules spec osr tier quick verbose catalogue
    dump_dir =
  if catalogue then
    List.iter
      (fun (code, doc) -> Printf.printf "%s  %s\n" code doc)
      Tracegen.Faults.catalogue
  else begin
    let ws = Cli.workloads workload in
    let spec = Option.value spec ~default:Harness.Chaos.default_spec in
    (* validate the schedule before spending any run time on it *)
    ignore
      (Cli.config { Cli.defaults with Cli.fault_spec = spec; fault_seed = seed });
    let max_instructions = if quick then Some 120_000 else None in
    let arm =
      Option.map
        (fun dir -> Harness.Postmortem.arm ~dir ~write:Cli.write_file)
        dump_dir
    in
    let failures = ref 0 in
    List.iter
      (fun (w : Workloads.Workload.t) ->
        let size =
          Option.value size ~default:w.Workloads.Workload.default_size
        in
        let verdicts =
          List.init schedules (fun i ->
              let v =
                Harness.Chaos.run_one ~spec ~osr ~tier ?max_instructions ?arm
                  w ~size ~seed:(seed + (1000 * i))
              in
              if not (Harness.Chaos.passed v) then
                Printf.printf "FAIL %s\n" (Harness.Chaos.describe v)
              else if verbose then
                Printf.printf "ok   %s\n" (Harness.Chaos.describe v);
              v)
        in
        let ok = List.length (List.filter Harness.Chaos.passed verdicts) in
        failures := !failures + schedules - ok;
        let sum field =
          List.fold_left
            (fun acc v -> acc + field v.Harness.Chaos.stats)
            0 verdicts
        in
        Printf.printf
          "%-10s %d/%d schedules ok; faults=%d quarantined=%d evicted=%d \
           healed=%d demoted=%d\n"
          w.Workloads.Workload.name ok schedules
          (sum (fun s -> s.Stats.faults_injected))
          (sum (fun s -> s.Stats.traces_quarantined))
          (sum (fun s -> s.Stats.traces_evicted))
          (sum (fun s -> s.Stats.healed_nodes))
          (sum (fun s -> s.Stats.health_demotions)))
      ws;
    let total = schedules * List.length ws in
    Printf.printf "chaos gate: %d/%d runs identical and recovered\n"
      (total - !failures) total;
    if !failures > 0 then exit 1
  end

let chaos_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Base PRNG seed; schedule i uses seed + 1000*i.")
  in
  let schedules =
    Arg.(value & opt Cli.positive 50 & info [ "schedules" ] ~docv:"K"
           ~doc:"Seeded fault schedules per workload, a positive integer.")
  in
  let spec =
    Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"SPEC"
           ~doc:"Fault schedule DSL (kind@prob, kind!tick, budget=K; \
                 see --catalogue for kinds).")
  in
  let osr =
    Arg.(value & flag & info [ "osr" ]
           ~doc:"Arm on-stack replacement (mid-trace deoptimization and \
                 mid-loop promotion) so guard-flip schedules exercise the \
                 deopt paths under the transparency gate.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ]
           ~doc:"Bound each run to 120k instructions (the check.sh gate).")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ]
           ~doc:"Print every verdict, not only failures.")
  in
  let catalogue =
    Arg.(value & flag & info [ "catalogue" ]
           ~doc:"Print the FT fault catalogue and exit.")
  in
  let dump_dir =
    Arg.(value & opt (some string) None & info [ "dump-dir" ] ~docv:"DIR"
           ~doc:"Arm the flight recorder's post-mortem file sink: dumps \
                 triggered during chaos runs (invariant violations, \
                 divergences, rejections, degradations) land in $(docv) \
                 as flightrec_<reason>.jsonl, latest dump per reason.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run workloads under seeded fault schedules (corrupted traces, \
          flipped BCG counters, failed installations, allocation pressure) \
          with self-healing on, asserting VM results stay bit-identical to a \
          no-tracing baseline and the engine recovers to full tracing.  \
          Exits 1 on any divergence or permanently degraded run.")
    Term.(
      const chaos $ Cli.workloads_arg "chaos-test" $ Cli.size_arg $ seed
      $ schedules $ spec $ osr $ Cli.tier_arg $ quick $ verbose $ catalogue
      $ dump_dir)

(* ------------------------------------------------------------------ *)
(* backends                                                             *)
(* ------------------------------------------------------------------ *)

(* Describe the dispatch backends, then pin each one over every selected
   workload and hold its VM result to the plain-interpreter fingerprint —
   the pure-overlay promise, per strategy.  With --tier every run has
   the compiled tier armed, and the gate additionally requires that the
   pinned trace backend actually compiled a trace on at least one
   workload: a transparency pass over an idle tier proves nothing.
   Exit 1 on any divergence (or, under --tier, an idle tier). *)
let backends workload size (flags : Cli.flags) =
  Printf.printf "%-8s %s\n" "backend" "strategy";
  List.iter
    (fun k ->
      let name, description = Engine.describe_backend k in
      Printf.printf "%-8s %s\n" name description)
    Engine.backends;
  let ws = Cli.workloads workload in
  let config = Cli.config flags in
  Printf.printf "\n%-10s %-8s %-6s %12s %12s %10s %9s\n" "workload" "backend"
    "ok" "block-disp" "trace-disp" "signals" "compiled";
  let compiled_total = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let layout = Cli.layout_of w ~size in
      let baseline = Vm.Interp.run_plain layout in
      List.iter
        (fun k ->
          let r = Engine.run ~config ~backend:k layout in
          let s = r.Engine.run_stats in
          let ok = Cli.identical baseline r.Engine.vm_result in
          if k = Engine.Trace then
            compiled_total := !compiled_total + s.Stats.traces_compiled;
          Printf.printf "%-10s %-8s %-6s %12d %12d %10d %9d\n"
            w.Workloads.Workload.name (Engine.backend_name r.Engine.engine)
            (if ok then "yes" else "NO")
            s.Stats.block_dispatches s.Stats.traces_entered s.Stats.signals
            s.Stats.traces_compiled)
        Engine.backends)
    ws;
  if !Cli.divergences > 0 then begin
    Printf.eprintf "%d backend run(s) diverged from the interpreter\n"
      !Cli.divergences;
    exit 1
  end;
  if flags.tier && !compiled_total = 0 then begin
    Printf.eprintf
      "--tier: no trace reached the compiled tier on any workload\n";
    exit 1
  end

let backends_cmd =
  Cmd.v
    (Cmd.info "backends"
       ~doc:
         "List the dispatch backends (interp, profile, trace), then run \
          workloads with each one pinned and assert the VM result matches \
          the plain interpreter — the pure-overlay promise, per strategy.  \
          With --tier the trace backend compiles hot traces to the micro-IR \
          tier and the gate also requires at least one compiled trace on \
          the trace rows.")
    Term.(
      const backends $ Cli.workloads_arg "check" $ Cli.size_arg
      $ Cli.flags ~tier:true ())

(* ------------------------------------------------------------------ *)
(* session                                                              *)
(* ------------------------------------------------------------------ *)

(* Run several workloads interleaved in one session, [users] members per
   workload, sharing a trace cache per layout; report the cross-session
   reuse, and exit 1 unless every member's VM result equals a solo plain
   run and each cache's evictions are the sum of its members'. *)
let session workloads users batch size flags =
  let module Session = Tracegen.Session in
  let names = String.split_on_char ',' workloads in
  let names = List.filter (fun n -> String.trim n <> "") names in
  if names = [] then
    Cli.die "no workloads given (try --workloads compress,raytrace)\n";
  let config = Cli.config flags in
  let session = Session.create ?batch () in
  (* one layout per workload name; members of the same workload run the
     same layout value and therefore share its trace cache *)
  let layouts =
    List.map
      (fun name ->
        let w = Cli.find_workload (String.trim name) in
        (w.Workloads.Workload.name, Cli.layout_of w ~size))
      names
  in
  List.iter
    (fun (name, layout) ->
      for u = 1 to users do
        ignore
          (Session.add
             ~name:(Printf.sprintf "%s#%d" name u)
             ~config session layout)
      done)
    layouts;
  Session.run session;
  let baselines =
    List.map (fun (_, layout) -> (layout, Vm.Interp.run_plain layout)) layouts
  in
  Printf.printf "%-14s %-6s %12s %12s %12s %8s %6s %7s\n" "member" "ok"
    "instrs" "block-disp" "trace-disp" "switches" "built" "evicted";
  List.iter
    (fun m ->
      let engine = Session.engine m in
      let r = Session.vm_result m in
      let c = Engine.counters engine in
      let ok = Cli.identical (List.assq (Engine.layout engine) baselines) r in
      Printf.printf "%-14s %-6s %12d %12d %12d %8d %6d %7d\n"
        (Session.member_name m)
        (if ok then "yes" else "NO")
        r.Vm.Interp.instructions c.Stats.block_dispatches
        c.Stats.traces_entered c.Stats.backend_switches
        c.Stats.traces_constructed c.Stats.traces_evicted)
    (Session.members session);
  let evicted_from c =
    List.fold_left
      (fun n m ->
        if Engine.cache (Session.engine m) == c then
          n + (Session.stats m).Stats.traces_evicted
        else n)
      0 (Session.members session)
  in
  let unbalanced =
    List.exists
      (fun c -> evicted_from c <> Tracegen.Trace_cache.n_evicted c)
      (Session.caches session)
  in
  Printf.printf
    "shared caches: %d for %d members; cross-session reuse: %d installs \
     saved, %d trace entries\n"
    (List.length (Session.caches session))
    (List.length (Session.members session))
    (Session.cross_installs session)
    (Session.cross_entries session);
  if unbalanced then
    prerr_endline "the members' evictions do not sum to their cache's";
  if !Cli.divergences > 0 then
    Printf.eprintf "%d member(s) diverged from the solo interpreter\n"
      !Cli.divergences;
  if unbalanced || !Cli.divergences > 0 then exit 1

let session_cmd =
  let workloads =
    Arg.(required & opt (some string) None & info [ "workloads" ] ~docv:"A,B,C"
           ~doc:"Comma-separated workloads to interleave.")
  in
  let users =
    Arg.(value & opt Cli.positive 2 & info [ "users" ] ~docv:"K"
           ~doc:"Members per workload, a positive integer; 2+ makes \
                 same-workload members share a trace cache and exercise \
                 cross-session reuse.")
  in
  let batch =
    Arg.(value & opt (some Cli.positive) None & info [ "batch" ] ~docv:"N"
           ~doc:"Basic blocks each member advances per round-robin turn, a \
                 positive integer.")
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:
         "Run several workloads interleaved in one multi-session engine over \
          shared per-layout trace caches, assert every member's VM result is \
          bit-identical to a solo interpreter run and that the evictions each \
          member counted sum to its cache's, and report cross-session trace \
          reuse.")
    Term.(
      const session $ workloads $ users $ batch $ Cli.size_arg
      $ Cli.flags ~faults:true ())

(* ------------------------------------------------------------------ *)
(* top                                                                  *)
(* ------------------------------------------------------------------ *)

(* Run workloads and print the hot-report: ranked traces (self
   dispatches, completions, attributed instructions) and ranked blocks
   (self vs inlined executions).  The report folds the events the
   oracle's identities reconcile against the end-of-run statistics, and
   a counted plain run gives each block's executions.  Exit 1 on
   mismatch. *)
let top workload size flags top json =
  let ws = Cli.workloads workload in
  let config = Cli.config flags in
  let failures = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let events = Tracegen.Events.create () in
      let tally = Harness.Oracle.attach events in
      let r = Engine.run ~config ~events (Cli.layout_of w ~size) in
      let engine = r.Engine.engine in
      let executed = Harness.Oracle.executed engine in
      let report = Harness.Report.of_engine ~executed tally engine in
      if json then
        (* one schema-versioned object per workload, JSONL *)
        print_endline
          (Harness.Codec.to_string
             (Harness.Report.json ~workload:w.Workloads.Workload.name report))
      else begin
        Printf.printf "== %s ==\n" w.Workloads.Workload.name;
        print_string (Harness.Report.render ~top report);
        print_newline ();
        (* quarantine backoff and deopt residue stay empty (top arms
           neither self-healing nor OSR), and an empty row prints nothing *)
        print_string
          (Harness.Report.hist_summary (Harness.Oracle.histograms tally));
        print_newline ()
      end;
      if
        not
          (Harness.Oracle.report ~source:"report"
             (Harness.Oracle.event_checks tally ~engine r.Engine.run_stats
             @ Harness.Oracle.block_checks ~executed tally ~engine
                 r.Engine.run_stats))
      then incr failures)
    ws;
  if !failures > 0 then exit 1

let top_cmd =
  let rows =
    Arg.(value & opt Cli.positive 10 & info [ "top" ] ~docv:"K"
           ~doc:"Rows per ranked table, a positive integer.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the full report as one schema-versioned JSON object \
                 per workload instead of the ranked tables (the \
                 reconciliation still runs on stderr).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Run workloads and print the hot-report: ranked traces and ranked \
          blocks (self vs inlined executions), folded from the event stream \
          and one counted plain run.  Every column is reconciled against the \
          end-of-run statistics (stderr, non-zero exit on mismatch).")
    Term.(
      const top $ Cli.workloads_arg "profile" $ Cli.size_arg
      $ Cli.flags ~tier:true ()
      $ rows $ json)

(* ------------------------------------------------------------------ *)
(* warm                                                                 *)
(* ------------------------------------------------------------------ *)

(* Persist and reuse profile state across processes.  --save runs the
   workload cold and writes the engine's end-of-run snapshot (BCG +
   trace cache, Persist-encoded); --load validates a snapshot into a
   fresh engine, drives it warm, and holds the warm VM result to an
   in-process cold control run — the pure-overlay promise, across
   process boundaries.  Exit 1 on a rejected snapshot or a diverging
   result; rejection prints the typed Persist error. *)
let warm workload size flags save load =
  let layout = Cli.layout workload ~size in
  let config = Cli.config flags in
  let summarize tag (r : Engine.run_result) =
    let s = r.Engine.run_stats in
    Printf.printf
      "%-5s %11d instrs %10d block-disp %10d trace-disp %6d constructed\n" tag
      s.Stats.instructions s.Stats.block_dispatches s.Stats.traces_entered
      s.Stats.traces_constructed
  in
  let write_snapshot path (r : Engine.run_result) =
    let data = Engine.snapshot r.Engine.engine in
    Cli.write_file path data;
    Printf.printf "snapshot: %d bytes -> %s\n" (String.length data) path
  in
  match (save, load) with
  | None, None -> Cli.die "warm needs --save FILE and/or --load FILE\n"
  | Some path, None ->
      let r = Engine.run ~config layout in
      summarize "cold" r;
      write_snapshot path r
  | _, Some path -> (
      let data = Cli.read_file path in
      let engine = Engine.create ~config layout in
      match Engine.restore engine data with
      | Error e ->
          Printf.eprintf "snapshot rejected: %s\n"
            (Tracegen.Persist.error_to_string e);
          exit 1
      | Ok info ->
          Printf.printf
            "restored: %d trace(s) (%d cache blocks), %d BCG node(s), %d \
             edge(s) from %s\n"
            info.Engine.restored_traces info.Engine.restored_blocks
            info.Engine.restored_bcg_nodes info.Engine.restored_bcg_edges
            path;
          let warm = Engine.drive engine in
          let cold = Engine.run ~config layout in
          summarize "warm" warm;
          summarize "cold" cold;
          if Cli.identical cold.Engine.vm_result warm.Engine.vm_result then
            print_endline "warm result identical to cold (pure overlay holds)"
          else begin
            Printf.eprintf "MISMATCH: warm result diverged from the cold run\n";
            exit 1
          end;
          (* --load --save re-saves the evolved profile *)
          Option.iter (fun p -> write_snapshot p warm) save)

let warm_cmd =
  let save =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE"
           ~doc:"Run the workload cold and write the engine's end-of-run \
                 profile snapshot (BCG + trace cache) to $(docv).")
  in
  let load =
    Arg.(value & opt (some string) None & info [ "load" ] ~docv:"FILE"
           ~doc:"Warm-start from the snapshot in $(docv), then verify the \
                 warm VM result against an in-process cold run.")
  in
  Cmd.v
    (Cmd.info "warm"
       ~doc:
         "Persist profile state across processes: --save writes a \
          versioned, checksummed snapshot of the BCG and trace cache after \
          a cold run; --load validates it into a fresh engine, drives the \
          run warm, and asserts the result is bit-identical to a cold \
          control run.  Exits 1 on a rejected snapshot (typed error on \
          stderr) or a diverging result.")
    Term.(
      const warm $ Cli.workload_arg $ Cli.size_arg $ Cli.flags () $ save
      $ load)

(* ------------------------------------------------------------------ *)
(* postmortem                                                           *)
(* ------------------------------------------------------------------ *)

(* Pretty-print a flight-recorder dump (flightrec_<reason>.jsonl, as
   written by a trigger or --dump-flightrec).  Every line is re-parsed
   through the Codec JSON parser, so this command doubles as the dump
   format's round-trip oracle.  Exit 1 on any unparseable line. *)
let postmortem file =
  match Harness.Postmortem.describe_dump (Cli.read_file file) with
  | Ok lines -> List.iter print_endline lines
  | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 1

let postmortem_cmd =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"A flight-recorder dump (flightrec_<reason>.jsonl).")
  in
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:
         "Pretty-print a flight-recorder post-mortem dump: the dump header \
          (trigger reason, ring occupancy) followed by the surviving window \
          of events, oldest first.  Every line is \
          re-parsed through the Codec JSON parser; exits 1 on any malformed \
          record.")
    Term.(const postmortem $ file)

(* ------------------------------------------------------------------ *)
(* explain                                                              *)
(* ------------------------------------------------------------------ *)

(* Replay a workload and narrate the decision ledger: every decision
   event concerning a trace (or an entry block), each with its dispatch
   tick.  The ledger's per-kind counts are then reconciled against the
   end-of-run statistics (Harness.Oracle); exit 1 on any drift. *)
let explain workload size flags trace_id block =
  let module L = Tracegen.Ledger in
  let module Events = Tracegen.Events in
  let layout = Cli.layout workload ~size in
  let result = Engine.run ~config:(Cli.config flags) layout in
  let ledger = Option.get (Engine.ledger result.Engine.engine) in
  let entries = List.mapi (fun seq e -> (seq, e)) (L.to_list ledger) in
  (* the payload's integer field [name], read off its JSON rendering *)
  let field name ((_, e) : int * Events.event) =
    match Harness.Codec.event_json e with
    | Harness.Codec.J_obj kvs -> (
        match List.assoc_opt name kvs with
        | Some (Harness.Codec.J_int i) -> Some i
        | _ -> None)
    | _ -> None
  in
  let shown, what =
    match (trace_id, block) with
    | Some id, _ ->
        ( List.filter (fun e -> field "trace_id" e = Some id) entries,
          Printf.sprintf "trace %d" id )
    | None, Some b ->
        (* decisions naming [b] as an entry block, and every decision
           about a trace one of those names *)
        let names_b e =
          List.exists
            (fun k -> field k e = Some b)
            [ "first"; "head"; "header"; "latch" ]
        in
        let ids =
          List.filter_map
            (fun e -> if names_b e then field "trace_id" e else None)
            entries
        in
        ( List.filter
            (fun e ->
              names_b e
              ||
              match field "trace_id" e with
              | Some id -> List.mem id ids
              | None -> false)
            entries,
          Printf.sprintf "block %d" b )
    | None, None -> (entries, "the whole run")
  in
  Printf.printf "%d of %d ledger entries concern %s:\n" (List.length shown)
    (L.length ledger) what;
  List.iter
    (fun (seq, (e : Events.event)) ->
      let line =
        Harness.Codec.flightrec_entry_json
          {
            Tracegen.Flightrec.seq;
            time = e.Events.time;
            payload = e.Events.payload;
          }
      in
      let (Ok d | Error d) = Harness.Postmortem.describe_json line in
      Printf.printf "  %s\n" d)
    shown;
  Printf.printf "\nkind totals:";
  List.iter
    (fun kind ->
      let n =
        List.length
          (List.filter
             (fun (_, (e : Events.event)) -> Events.kind e.Events.payload = kind)
             entries)
      in
      if n > 0 then Printf.printf " %s=%d" kind n)
    L.kinds;
  print_newline ();
  (* the ledger must reconcile with Stats no matter what was asked *)
  if
    not
      (Harness.Oracle.report ~source:"ledger"
         (Harness.Oracle.ledger_checks ledger result.Engine.run_stats))
  then exit 1

let explain_cmd =
  let trace_id =
    Arg.(value & opt (some int) None & info [ "trace" ] ~docv:"ID"
           ~doc:"Only the decisions concerning trace $(docv).")
  in
  let block =
    Arg.(value & opt (some int) None & info [ "block" ] ~docv:"GID"
           ~doc:"Only the decisions naming block $(docv) as an entry \
                 block, and every decision about the traces those name.")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Replay a workload and narrate its decision ledger: the events in \
          which each trace was built, replaced, compiled, demoted, evicted \
          or quarantined, promoted or deoptimized, with the victim-scoring \
          and heat inputs they carry, each with its dispatch tick.  The \
          ledger's per-kind counts are reconciled against the end-of-run \
          statistics (stderr, non-zero exit on drift).")
    Term.(
      const explain $ Cli.workload_arg $ Cli.size_arg
      $ Cli.flags ~faults:true ~osr:true ~tier:true ()
      $ trace_id $ block)

(* ------------------------------------------------------------------ *)
(* bench-diff                                                           *)
(* ------------------------------------------------------------------ *)

(* Compare two bench baseline documents (BENCH_<label>.json) exactly:
   every metric is a deterministic count, so any move is a behaviour
   change.  Prints the metrics that differ and exits 1 when a metric
   changed, vanished or appeared. *)
let bench_diff old_path new_path =
  let read path =
    match Harness.Perf.of_string (Cli.read_file path) with
    | Ok run -> run
    | Error e ->
        Cli.die "%s: not a bench baseline: %s\n" path
          (Harness.Perf.error_to_string e)
  in
  let baseline = read old_path in
  let candidate = read new_path in
  let d = Harness.Perf.diff ~baseline ~candidate in
  List.iter
    (fun (c : Harness.Perf.change) ->
      Printf.printf "%-22s %-26s %12.6g -> %-12.6g %s\n" c.c_section c.c_name
        c.c_old c.c_new c.c_unit)
    d.Harness.Perf.changed;
  let only verdict =
    List.iter (fun (sec, name) ->
        Printf.printf "%-22s %-26s %s\n" sec name verdict)
  in
  only ("MISSING in " ^ new_path) d.Harness.Perf.missing;
  only ("ADDED in " ^ new_path) d.Harness.Perf.added;
  Printf.printf "bench-diff: %d changed, %d missing, %d added\n"
    (List.length d.Harness.Perf.changed)
    (List.length d.Harness.Perf.missing)
    (List.length d.Harness.Perf.added);
  if not (Harness.Perf.clean d) then exit 1

let bench_diff_cmd =
  let old_path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD"
           ~doc:"Baseline BENCH_<label>.json.")
  in
  let new_path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW"
           ~doc:"Candidate BENCH_<label>.json.")
  in
  Cmd.v
    (Cmd.info "bench-diff"
       ~doc:
         "Compare two machine-readable bench baselines (BENCH_<label>.json, \
          from bench --json) exactly: every metric is a deterministic \
          count, so a metric that moved either way, a baseline metric \
          missing from the candidate and a metric only the candidate has \
          each print a row and make the command exit 1.  A document of \
          another schema version exits 2.")
    Term.(const bench_diff $ old_path $ new_path)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "tracevm" ~version:"1.0.0"
      ~doc:
        "Dynamic profiling and trace cache generation for a bytecode VM \
         (CGO 2003 reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            run_cmd; events_cmd; table_cmd; disasm_cmd; export_cmd; list_cmd;
            lint_cmd; backends_cmd; session_cmd; chaos_cmd;
            top_cmd; warm_cmd; postmortem_cmd; explain_cmd;
            bench_diff_cmd;
          ]))
