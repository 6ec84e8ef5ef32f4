(* Command-line interface to the reproduction: run workloads under any
   configuration, regenerate the paper's tables, and inspect the BCG and
   the trace cache. *)

open Cmdliner

(* workload lookup, layout building, config validation and the shared
   argument definitions live in Cli_common *)
let find_workload = Cli_common.find_workload

let config_or_die = Cli_common.config_or_die

let layout_of = Cli_common.layout_of

(* ------------------------------------------------------------------ *)
(* run                                                                  *)
(* ------------------------------------------------------------------ *)

let run_cmd workload size threshold delay fault_spec fault_seed self_heal
    osr tier prune_guards dump_traces dump_bcg top dump_flightrec =
  let w = find_workload workload in
  let layout = layout_of w ~size in
  let config =
    Cli_common.engine_config ~threshold ~delay ~fault_spec ~fault_seed
      ~self_heal ~osr ~tier ~prune_guards ()
  in
  let result = Tracegen.Engine.run ~config layout in
  let s = result.Tracegen.Engine.run_stats in
  (* --dump-flightrec: force a Manual post-mortem dump of the black-box
     ring — what an invariant/divergence trigger would have written *)
  (match dump_flightrec with
  | None -> ()
  | Some path -> (
      match Tracegen.Engine.flightrec result.Tracegen.Engine.engine with
      | Some fr ->
          Harness.Postmortem.write ~reason:Tracegen.Flightrec.Manual ~path fr;
          Printf.eprintf "# flightrec: %d of %d recorded entrie(s) -> %s\n"
            (min
               (Tracegen.Flightrec.recorded fr)
               (Tracegen.Flightrec.capacity fr))
            (Tracegen.Flightrec.recorded fr)
            path
      | None ->
          Printf.eprintf
            "--dump-flightrec: flight recorder disabled \
             (flightrec_capacity 0)\n";
          exit 2));
  (match result.Tracegen.Engine.vm_result.Vm.Interp.outcome with
  | Vm.Interp.Finished (Some value) ->
      Printf.printf "result: %s\n" (Vm.Value.to_string value)
  | Vm.Interp.Finished None -> Printf.printf "result: void\n"
  | Vm.Interp.Trapped (kind, msg) ->
      Printf.printf "trapped: %s (%s)\n"
        (Vm.Interp.error_kind_to_string kind)
        msg);
  Format.printf "%a@." Tracegen.Stats.pp s;
  if dump_traces then begin
    let engine = result.Tracegen.Engine.engine in
    let traces = ref [] in
    Tracegen.Trace_cache.iter_all (Tracegen.Engine.cache engine) (fun tr ->
        traces := tr :: !traces);
    let sorted =
      List.sort
        (fun a b -> compare b.Tracegen.Trace.completed a.Tracegen.Trace.completed)
        !traces
    in
    Printf.printf "\ntraces (%d total, showing up to %d by completions):\n"
      (List.length sorted) top;
    List.iteri
      (fun k tr ->
        if k < top then begin
          print_endline (Tracegen.Trace.describe layout tr);
          match tr.Tracegen.Trace.lowered with
          | Some body ->
              Printf.printf
                "       tier: compiled (%d micro-ops, %d fused, from %d \
                 instrs)\n"
                (Tracegen.Microir.n_ops body)
                body.Tracegen.Microir.fused body.Tracegen.Microir.src_instrs
          | None -> if tier then print_endline "       tier: interp"
        end)
      sorted
  end;
  if dump_bcg then begin
    let bcg =
      Tracegen.Profiler.bcg
        (Tracegen.Engine.profiler result.Tracegen.Engine.engine)
    in
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

(* ------------------------------------------------------------------ *)
(* events                                                               *)
(* ------------------------------------------------------------------ *)

(* Replay a workload with the event stream enabled and dump the timeline
   as JSON lines on stdout.  After the run the per-kind event totals of
   the timeline and of the decision ledger are checked against the
   end-of-run statistics (Harness.Oracle): the stream, the ledger and the
   counters are three views of the same execution and must agree
   exactly. *)
let events_cmd workload size threshold delay fault_spec fault_seed self_heal
    osr tier snapshot_period stats_only =
  let module Events = Tracegen.Events in
  let module Oracle = Harness.Oracle in
  let w = find_workload workload in
  let layout = layout_of w ~size in
  let config =
    Cli_common.engine_config ~snapshot_period ~threshold ~delay ~fault_spec
      ~fault_seed ~self_heal ~osr ~tier ()
  in
  let events = Events.create () in
  let tally = Oracle.attach events in
  let version_prefix =
    Printf.sprintf "{\"schema_version\":%d," Harness.Codec.schema_version
  in
  let unversioned = ref 0 in
  (* --stats-only skips the per-event JSON rendering entirely: the
     oracle's tally is all the cross-checks need *)
  let _sub =
    if stats_only then None
    else
      Some
        (Events.subscribe events (fun e ->
             let line =
               Harness.Codec.to_string (Harness.Codec.event_json e)
             in
             (* every record must announce the export schema version *)
             if
               not
                 (String.length line >= String.length version_prefix
                 && String.sub line 0 (String.length version_prefix)
                    = version_prefix)
             then incr unversioned;
             print_endline line))
  in
  let result = Tracegen.Engine.run ~config ~events layout in
  let s = result.Tracegen.Engine.run_stats in
  let engine = result.Tracegen.Engine.engine in
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
  if stats_only then begin
    (* the run's distributions with their percentile summaries, since
       the per-event timeline was suppressed *)
    let hists =
      [
        Tracegen.Engine.trace_len_hist engine;
        Tracegen.Engine.exit_distance_hist engine;
        Tracegen.Engine.build_len_hist engine;
        Tracegen.Engine.backoff_hist engine;
        Tracegen.Engine.deopt_residue_hist engine;
      ]
    in
    prerr_string (Harness.Report.hist_summary hists)
  end;
  if not (Oracle.report ~source:"timeline" checks) then exit 1

(* ------------------------------------------------------------------ *)
(* table                                                                *)
(* ------------------------------------------------------------------ *)

let table_cmd which scale =
  let s =
    match which with
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
        Printf.eprintf
          "unknown table %s (1-7, coverage-total, figure, baselines, \
           ablation-decay, optimizer, footprint)\n" other;
        exit 2
  in
  print_string s

(* ------------------------------------------------------------------ *)
(* disasm / list                                                        *)
(* ------------------------------------------------------------------ *)

let disasm_cmd workload size meth =
  let w = find_workload workload in
  let program =
    match size with
    | Some s -> w.Workloads.Workload.build ~size:s
    | None -> Workloads.Workload.build_default w
  in
  match meth with
  | None -> print_string (Bytecode.Disasm.program_to_string program)
  | Some name -> (
      match Bytecode.Program.find_method program name with
      | Some m -> print_string (Bytecode.Disasm.method_to_string program m)
      | None ->
          Printf.eprintf "no method %s\n" name;
          exit 2)

let export_cmd format workload scale =
  match format with
  | "csv" -> print_string (Harness.Export.sweep_csv ~scale ())
  | "jsonl" -> print_string (Harness.Export.sweep_jsonl ~scale ())
  | "json" -> (
      match workload with
      | None ->
          Printf.eprintf "json format needs --workload\n";
          exit 2
      | Some name ->
          let w = find_workload name in
          let run =
            Harness.Experiment.execute
              (Harness.Experiment.default_key ~workload:name
                 ~size:(Harness.Experiment.size_for ~scale w))
          in
          print_endline (Harness.Codec.to_string (Harness.Export.run_json run)))
  | other ->
      Printf.eprintf "unknown format %s (csv, jsonl, json)\n" other;
      exit 2

let list_cmd () =
  List.iter
    (fun w -> Format.printf "%a@." Workloads.Workload.pp w)
    Workloads.Registry.all

(* ------------------------------------------------------------------ *)
(* lint                                                                 *)
(* ------------------------------------------------------------------ *)

(* Static dataflow lint over the workload's bytecode, then a profiled run
   with the trace/BCG invariant checks on and a final end-of-run sweep.
   Exit 1 when any error-severity finding survives. *)
let lint_cmd workload size threshold delay json static_only traces =
  let module Diag = Analysis.Diag in
  let ws =
    match workload with
    | Some name -> [ find_workload name ]
    | None -> Workloads.Registry.all
  in
  let config =
    config_or_die (fun () ->
        Tracegen.Config.make ~threshold ~start_state_delay:delay
          ~debug_checks:true ~prune_guards:traces ())
  in
  let diags =
    List.concat_map
      (fun w ->
        let name = w.Workloads.Workload.name in
        let program =
          match size with
          | Some s -> w.Workloads.Workload.build ~size:s
          | None -> Workloads.Workload.build_default w
        in
        let static = Analysis.Lint.lint_program ~context:name program in
        (* A verify-rejected program cannot be laid out, let alone run;
           its TL001 findings stand alone. *)
        let rejected =
          List.exists (fun d -> d.Diag.code = "TL001") static
        in
        if static_only || rejected then static
        else
          let layout = Cfg.Layout.build program in
          let r = Tracegen.Engine.run ~config layout in
          let engine = r.Tracegen.Engine.engine in
          let dynamic =
            Tracegen.Invariants.check_all ~context:name config
              ~bcg:(Tracegen.Profiler.bcg (Tracegen.Engine.profiler engine))
              ~cache:(Tracegen.Engine.cache engine)
          in
          (* --traces: translation-validate every installed trace (the
             run above pruned them, so the TL217 re-derivations are
             exercised too) *)
          let proved =
            if traces then
              Tracegen.Trace_prover.check_cache ~context:name layout
                (Tracegen.Engine.cache engine)
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

(* ------------------------------------------------------------------ *)
(* prove                                                                *)
(* ------------------------------------------------------------------ *)

(* Translation-validate every trace the engine builds, with guard
   pruning on: run each workload under prune_guards, symbolically prove
   every installed trace equivalent to its original block sequence
   (TL212-TL218) and re-derive every pruning claim (TL217), then re-run
   with pruning off and hold the two VM results to the same fingerprint
   — proofs must not change what the program computes.  Exit 1 on any
   error-severity finding, a diverging fingerprint, or fewer than
   --min-pruning workloads actually losing guards. *)
let prove_cmd workload size threshold delay min_pruning =
  let module Diag = Analysis.Diag in
  let module Engine = Tracegen.Engine in
  let ws =
    match workload with
    | Some name -> [ find_workload name ]
    | None -> Workloads.Registry.all
  in
  let config_on =
    config_or_die (fun () ->
        Tracegen.Config.make ~threshold ~start_state_delay:delay
          ~prune_guards:true ())
  in
  let config_off =
    config_or_die (fun () ->
        Tracegen.Config.make ~threshold ~start_state_delay:delay ())
  in
  let errors = ref 0 in
  let diverged = ref 0 in
  let pruning_workloads = ref 0 in
  Printf.printf "%-10s %-6s %7s %7s %10s %10s %8s %10s\n" "workload" "ok"
    "traces" "diags" "g-checked" "g-elided" "pruned" "identical";
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let name = w.Workloads.Workload.name in
      let layout = layout_of w ~size in
      let r = Engine.run ~config:config_on layout in
      let engine = r.Engine.engine in
      let cache = Engine.cache engine in
      let n_traces = ref 0 in
      Tracegen.Trace_cache.iter_all cache (fun _ -> incr n_traces);
      let diags = Tracegen.Trace_prover.check_cache ~context:name layout cache in
      List.iter (fun d -> Printf.eprintf "%s\n" (Diag.to_string d)) diags;
      let n_errors = Diag.count Diag.Error diags in
      errors := !errors + n_errors;
      let base = Engine.run ~config:config_off layout in
      let identical =
        Harness.Chaos.fingerprint r.Engine.vm_result
        = Harness.Chaos.fingerprint base.Engine.vm_result
      in
      if not identical then incr diverged;
      let s = r.Engine.run_stats in
      if s.Tracegen.Stats.guards_elided > 0 then incr pruning_workloads;
      Printf.printf "%-10s %-6s %7d %7d %10d %10d %8d %10s\n" name
        (if n_errors = 0 && identical then "yes" else "NO")
        !n_traces (List.length diags) s.Tracegen.Stats.guards_checked
        s.Tracegen.Stats.guards_elided s.Tracegen.Stats.guards_pruned
        (if identical then "yes" else "NO"))
    ws;
  Printf.printf
    "prove gate: %d proof error(s), %d diverging run(s), pruning active on \
     %d/%d workload(s)\n"
    !errors !diverged !pruning_workloads (List.length ws);
  if !errors > 0 || !diverged > 0 then exit 1;
  if !pruning_workloads < min_pruning then begin
    Printf.eprintf
      "pruning removed guards on only %d workload(s) (need %d)\n"
      !pruning_workloads min_pruning;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* chaos                                                                *)
(* ------------------------------------------------------------------ *)

(* Run workloads under seeded fault schedules and hold the engine to the
   chaos gate's two promises: VM results bit-identical to the no-tracing
   baseline (FT901) and recovery to full tracing by the end of the run
   (FT902).  Exit 1 on any violated promise. *)
let chaos_cmd workload size seed schedules spec osr tier quick verbose
    catalogue dump_dir =
  if catalogue then
    List.iter
      (fun (code, doc) -> Printf.printf "%s  %s\n" code doc)
      Tracegen.Faults.catalogue
  else begin
    let ws =
      match workload with
      | Some name -> [ find_workload name ]
      | None -> Workloads.Registry.all
    in
    let spec = Option.value spec ~default:Harness.Chaos.default_spec in
    (* validate the schedule before spending any run time on it *)
    (try ignore (Tracegen.Faults.create ~seed spec) with
    | Invalid_argument msg ->
        Printf.eprintf "invalid fault spec: %s\n" msg;
        exit 2);
    let max_instructions = if quick then Some 120_000 else None in
    let failures = ref 0 in
    let total = ref 0 in
    List.iter
      (fun (w : Workloads.Workload.t) ->
        let size =
          Option.value size ~default:w.Workloads.Workload.default_size
        in
        let faults = ref 0 in
        let quarantined = ref 0 in
        let evicted = ref 0 in
        let healed = ref 0 in
        let demoted = ref 0 in
        let ok = ref 0 in
        for i = 0 to schedules - 1 do
          let v =
            Harness.Chaos.run_one ~spec ~osr ~tier ?max_instructions
              ?dump_dir w ~size ~seed:(seed + (1000 * i))
          in
          incr total;
          let s = v.Harness.Chaos.stats in
          faults := !faults + s.Tracegen.Stats.faults_injected;
          quarantined := !quarantined + s.Tracegen.Stats.traces_quarantined;
          evicted := !evicted + s.Tracegen.Stats.traces_evicted;
          healed := !healed + s.Tracegen.Stats.healed_nodes;
          demoted := !demoted + s.Tracegen.Stats.health_demotions;
          if Harness.Chaos.passed v then incr ok
          else begin
            incr failures;
            Printf.printf "FAIL %s\n" (Harness.Chaos.describe v)
          end;
          if verbose && Harness.Chaos.passed v then
            Printf.printf "ok   %s\n" (Harness.Chaos.describe v)
        done;
        Printf.printf
          "%-10s %d/%d schedules ok; faults=%d quarantined=%d evicted=%d \
           healed=%d demoted=%d\n"
          w.Workloads.Workload.name !ok schedules !faults !quarantined
          !evicted !healed !demoted)
      ws;
    Printf.printf "chaos gate: %d/%d runs identical and recovered\n"
      (!total - !failures) !total;
    if !failures > 0 then exit 1
  end

(* ------------------------------------------------------------------ *)
(* backends                                                             *)
(* ------------------------------------------------------------------ *)

(* Describe the dispatch backends, then pin each one over every selected
   workload and hold its VM result to the plain-interpreter fingerprint —
   the pure-overlay promise, per strategy.  With --tier the microir
   backend runs with the compiled tier armed, and the gate additionally
   requires that at least one workload actually compiled a trace: a
   transparency pass over an idle tier proves nothing.  Exit 1 on any
   divergence (or, under --tier, an idle tier). *)
let backends_cmd workload size threshold delay tier =
  let module Engine = Tracegen.Engine in
  Printf.printf "%-8s %s\n" "backend" "strategy";
  List.iter
    (fun k ->
      let (module B : Tracegen.Backend.S) = Engine.implementation k in
      Printf.printf "%-8s %s\n" B.name B.describe)
    Engine.backends;
  let ws =
    match workload with
    | Some name -> [ find_workload name ]
    | None -> Workloads.Registry.all
  in
  let config =
    config_or_die (fun () ->
        Tracegen.Config.make ~threshold ~start_state_delay:delay ~tier ())
  in
  Printf.printf "\n%-10s %-8s %-6s %12s %12s %10s %9s\n" "workload" "backend"
    "ok" "block-disp" "trace-disp" "signals" "compiled";
  let failures = ref 0 in
  let compiled_total = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let layout = layout_of w ~size in
      let baseline = Vm.Interp.run_plain layout in
      List.iter
        (fun k ->
          let r = Engine.run ~config ~backend:k layout in
          let s = r.Engine.run_stats in
          let ok =
            Harness.Chaos.fingerprint baseline
            = Harness.Chaos.fingerprint r.Engine.vm_result
          in
          if not ok then incr failures;
          compiled_total := !compiled_total + s.Tracegen.Stats.traces_compiled;
          Printf.printf "%-10s %-8s %-6s %12d %12d %10d %9d\n"
            w.Workloads.Workload.name
            (Engine.backend_kind_name k)
            (if ok then "yes" else "NO")
            s.Tracegen.Stats.block_dispatches
            s.Tracegen.Stats.trace_dispatches s.Tracegen.Stats.signals
            s.Tracegen.Stats.traces_compiled)
        Engine.backends)
    ws;
  if !failures > 0 then begin
    Printf.eprintf "%d backend run(s) diverged from the interpreter\n"
      !failures;
    exit 1
  end;
  if tier && !compiled_total = 0 then begin
    Printf.eprintf
      "--tier: no trace reached the compiled tier on any workload\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* session                                                              *)
(* ------------------------------------------------------------------ *)

(* Run several workloads interleaved in one session, [users] members per
   workload, sharing a trace cache per layout; assert every member's VM
   result is bit-identical to a solo plain-interpreter run and report the
   cross-session trace reuse.  Exit 1 on any divergence. *)
let session_cmd workloads users batch size threshold delay fault_spec
    fault_seed self_heal =
  let module Engine = Tracegen.Engine in
  let module Session = Tracegen.Session in
  let names = String.split_on_char ',' workloads in
  let names = List.filter (fun n -> String.trim n <> "") names in
  if names = [] then begin
    Printf.eprintf "no workloads given (try --workloads compress,raytrace)\n";
    exit 2
  end;
  if users < 1 then begin
    Printf.eprintf "--users must be >= 1\n";
    exit 2
  end;
  let config =
    Cli_common.engine_config ~threshold ~delay ~fault_spec ~fault_seed
      ~self_heal ()
  in
  let session =
    config_or_die (fun () -> Session.create ?batch ())
  in
  (* one layout per workload name; members of the same workload run the
     same layout value and therefore share its trace cache *)
  let layouts =
    List.map
      (fun name ->
        let w = find_workload (String.trim name) in
        (w.Workloads.Workload.name, layout_of w ~size))
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
  Printf.printf "%-14s %-6s %12s %12s %12s %8s\n" "member" "ok" "instrs"
    "block-disp" "trace-disp" "switches";
  let failures = ref 0 in
  List.iter
    (fun m ->
      let engine = Session.engine m in
      let baseline =
        List.assq (Engine.layout engine) baselines
      in
      let r = Session.vm_result m in
      let c = Engine.counters engine in
      let ok =
        Harness.Chaos.fingerprint baseline = Harness.Chaos.fingerprint r
      in
      if not ok then incr failures;
      Printf.printf "%-14s %-6s %12d %12d %12d %8d\n" (Session.member_name m)
        (if ok then "yes" else "NO")
        r.Vm.Interp.instructions
        c.Tracegen.Stats.block_dispatches c.Tracegen.Stats.trace_dispatches
        c.Tracegen.Stats.backend_switches)
    (Session.members session);
  Printf.printf
    "shared caches: %d for %d members; cross-session reuse: %d installs \
     saved, %d trace entries\n"
    (List.length (Session.caches session))
    (List.length (Session.members session))
    (Session.cross_installs session)
    (Session.cross_entries session);
  if !failures > 0 then begin
    Printf.eprintf "%d member(s) diverged from the solo interpreter\n"
      !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* top                                                                  *)
(* ------------------------------------------------------------------ *)

(* Run workloads with per-block attribution on and print the hot-report:
   ranked traces (self dispatches, completions, attributed instructions)
   and ranked blocks (self vs inlined executions).  Every column is then
   reconciled against the end-of-run statistics — the report and Stats
   are two views of the same dispatch loop and must agree exactly over
   the unbounded, non-healing cache used here.  Exit 1 on mismatch. *)
let top_cmd workload size threshold delay prune_guards tier top json =
  let ws =
    match workload with
    | Some name -> [ find_workload name ]
    | None -> Workloads.Registry.all
  in
  let config =
    config_or_die (fun () ->
        Tracegen.Config.make ~threshold ~start_state_delay:delay
          ~obs_attribution:true ~prune_guards ~tier ())
  in
  let failures = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let layout = layout_of w ~size in
      let r = Tracegen.Engine.run ~config layout in
      let engine = r.Tracegen.Engine.engine in
      let s = r.Tracegen.Engine.run_stats in
      let report = Harness.Report.of_engine engine in
      if json then
        (* one schema-versioned object per workload, JSONL *)
        print_endline
          (Harness.Codec.to_string
             (match Harness.Report.json report with
             | Harness.Codec.J_obj (sv :: fields) ->
                 (* keep schema_version leading, as on every record *)
                 Harness.Codec.J_obj
                   (sv
                   :: ( "workload",
                        Harness.Codec.J_string w.Workloads.Workload.name )
                   :: fields)
             | other -> other))
      else begin
        Printf.printf "== %s ==\n" w.Workloads.Workload.name;
        print_string (Harness.Report.render ~top report);
        print_newline ();
        print_string
          (Harness.Report.hist_summary
             [
               Tracegen.Engine.trace_len_hist engine;
               Tracegen.Engine.exit_distance_hist engine;
               Tracegen.Engine.build_len_hist engine;
             ]);
        print_newline ()
      end;
      if
        not
          (Harness.Oracle.report ~source:"report"
             (Harness.Report.checks report engine s))
      then incr failures)
    ws;
  if !failures > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* timeline                                                             *)
(* ------------------------------------------------------------------ *)

(* Replay a workload with the span recorder on and export the causal
   timeline: span JSONL on stdout, or Chrome trace_event JSON with
   --chrome FILE (loadable in Perfetto / about://tracing).  The Chrome
   export is self-validating: the file is re-parsed and held to the
   structural oracle (monotone timestamps, every E closing a B, X events
   carrying dur).  Exit 1 on any violation. *)
let timeline_cmd workload size threshold delay fault_spec fault_seed self_heal
    chrome folded =
  let module Spans = Tracegen.Spans in
  let w = find_workload workload in
  let layout = layout_of w ~size in
  let config =
    Cli_common.engine_config ~obs_spans:true ~threshold ~delay ~fault_spec
      ~fault_seed ~self_heal ()
  in
  let result = Tracegen.Engine.run ~config layout in
  let engine = result.Tracegen.Engine.engine in
  let spans =
    match Tracegen.Engine.spans engine with
    | Some s -> s
    | None -> assert false (* obs_spans:true above *)
  in
  Spans.end_all spans ~now:(Tracegen.Engine.total_dispatches engine);
  let list = Spans.to_list spans in
  Printf.eprintf "# %d span(s) recorded, %d dropped by wraparound\n"
    (Spans.recorded spans) (Spans.dropped spans);
  (* --folded: the span tree as folded stacks (frame;frame;frame weight),
     weighted by self time in dispatch ticks — flamegraph.pl input *)
  (match folded with
  | None -> ()
  | Some path -> (
      let out = Harness.Report.folded list in
      try
        let oc = open_out path in
        output_string oc out;
        close_out oc;
        Printf.eprintf "# ok: %d folded stack(s): %s\n"
          (List.length
             (String.split_on_char '\n' out |> List.filter (( <> ) "")))
          path
      with Sys_error msg ->
        Printf.eprintf "cannot write %s: %s\n" path msg;
        exit 2));
  match chrome with
  | None -> if folded = None then print_string (Harness.Codec.spans_jsonl list)
  | Some path ->
      let out = Harness.Codec.to_string (Harness.Codec.chrome_trace list) in
      (try
         let oc = open_out path in
         output_string oc out;
         output_char oc '\n';
         close_out oc
       with Sys_error msg ->
         Printf.eprintf "cannot write %s: %s\n" path msg;
         exit 2);
      (* round-trip oracle: re-parse what was just written *)
      (match Harness.Codec.parse out with
      | Error msg ->
          Printf.eprintf "# MISMATCH: chrome trace does not re-parse: %s\n"
            msg;
          exit 1
      | Ok parsed -> (
          match Harness.Report.check_chrome parsed with
          | [] -> Printf.eprintf "# ok: chrome trace valid: %s\n" path
          | violations ->
              List.iter
                (fun v -> Printf.eprintf "# MISMATCH: %s\n" v)
                violations;
              exit 1))

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
let warm_cmd workload size threshold delay save load =
  let module Engine = Tracegen.Engine in
  let w = find_workload workload in
  let layout = layout_of w ~size in
  let config =
    config_or_die (fun () ->
        Tracegen.Config.make ~threshold ~start_state_delay:delay ())
  in
  let summarize tag (r : Engine.run_result) seconds =
    let s = r.Engine.run_stats in
    Printf.printf
      "%-5s %11d instrs %10d block-disp %10d trace-disp %6d constructed \
       %.3fs\n"
      tag s.Tracegen.Stats.instructions s.Tracegen.Stats.block_dispatches
      s.Tracegen.Stats.trace_dispatches s.Tracegen.Stats.traces_constructed
      seconds
  in
  let run_cold () =
    let t0 = Unix.gettimeofday () in
    let r = Tracegen.Engine.run ~config layout in
    (r, Unix.gettimeofday () -. t0)
  in
  let write_snapshot path (r : Engine.run_result) =
    let data = Engine.snapshot r.Engine.engine in
    (try
       let oc = open_out_bin path in
       output_string oc data;
       close_out oc
     with Sys_error msg ->
       Printf.eprintf "cannot write %s: %s\n" path msg;
       exit 2);
    Printf.printf "snapshot: %d bytes -> %s\n" (String.length data) path
  in
  match (save, load) with
  | None, None ->
      Printf.eprintf "warm needs --save FILE and/or --load FILE\n";
      exit 2
  | Some path, None ->
      let r, seconds = run_cold () in
      summarize "cold" r seconds;
      write_snapshot path r
  | _, Some path -> (
      let data =
        try
          let ic = open_in_bin path in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
        with Sys_error msg ->
          Printf.eprintf "cannot read %s: %s\n" path msg;
          exit 2
      in
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
          let t0 = Unix.gettimeofday () in
          let warm = Engine.drive engine in
          let warm_seconds = Unix.gettimeofday () -. t0 in
          let cold, cold_seconds = run_cold () in
          summarize "warm" warm warm_seconds;
          summarize "cold" cold cold_seconds;
          if
            Harness.Chaos.fingerprint warm.Engine.vm_result
            = Harness.Chaos.fingerprint cold.Engine.vm_result
          then
            print_endline "warm result identical to cold (pure overlay holds)"
          else begin
            Printf.eprintf "MISMATCH: warm result diverged from the cold run\n";
            exit 1
          end;
          (* --load --save re-saves the evolved profile *)
          Option.iter (fun p -> write_snapshot p warm) save)

(* ------------------------------------------------------------------ *)
(* postmortem                                                           *)
(* ------------------------------------------------------------------ *)

(* Pretty-print a flight-recorder dump (flightrec_<reason>.jsonl, as
   written by a trigger or --dump-flightrec).  Every line is re-parsed
   through the Codec JSON parser, so this command doubles as the dump
   format's round-trip oracle.  Exit 1 on any unparseable line. *)
let postmortem_cmd file =
  let contents =
    try
      let ic = open_in file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error msg ->
      Printf.eprintf "cannot read %s: %s\n" file msg;
      exit 2
  in
  match Harness.Postmortem.describe_dump contents with
  | Ok lines -> List.iter print_endline lines
  | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 1

(* ------------------------------------------------------------------ *)
(* explain                                                              *)
(* ------------------------------------------------------------------ *)

(* Replay a workload and narrate the decision ledger: every decision
   event concerning a trace (or an entry block), each with its dispatch
   tick and the span that was open when it was made.  The ledger's
   per-kind counts are then reconciled against the end-of-run
   statistics (Harness.Oracle); exit 1 on any drift. *)
let explain_cmd workload size threshold delay fault_spec fault_seed self_heal
    osr tier trace_id block =
  let module L = Tracegen.Ledger in
  let module Events = Tracegen.Events in
  let w = find_workload workload in
  let layout = layout_of w ~size in
  let config =
    Cli_common.engine_config ~threshold ~delay ~fault_spec ~fault_seed
      ~self_heal ~osr ~tier ()
  in
  let result = Tracegen.Engine.run ~config layout in
  let ledger =
    Option.get (Tracegen.Engine.ledger result.Tracegen.Engine.engine)
  in
  let entries = List.mapi (fun seq e -> (seq, e)) (L.to_list ledger) in
  (* the payload's integer field [name], read off its JSON rendering *)
  let field name ((_, e) : int * L.entry) =
    match Harness.Codec.event_json e.L.event with
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
    (fun (seq, (e : L.entry)) ->
      let ev = e.L.event in
      let line =
        Harness.Codec.flightrec_entry_json
          (Tracegen.Flightrec.Event
             { seq; time = ev.Events.time; payload = ev.Events.payload })
      in
      let (Ok d | Error d) = Harness.Postmortem.describe_json line in
      Printf.printf "  span=%-4d %s\n" e.L.span d)
    shown;
  Printf.printf "\nkind totals:";
  List.iter
    (fun kind ->
      let n =
        List.length
          (List.filter
             (fun (_, (e : L.entry)) ->
               Events.kind e.L.event.Events.payload = kind)
             entries)
      in
      if n > 0 then Printf.printf " %s=%d" kind n)
    L.kinds;
  print_newline ();
  (* the ledger must reconcile with Stats no matter what was asked *)
  if
    not
      (Harness.Oracle.report ~source:"ledger"
         (Harness.Oracle.ledger_checks ledger
            result.Tracegen.Engine.run_stats))
  then exit 1

(* ------------------------------------------------------------------ *)
(* bench-diff                                                           *)
(* ------------------------------------------------------------------ *)

(* Compare two bench baseline documents (BENCH_<label>.json) direction-
   aware and gate on regressions: exit 1 when any metric moved more than
   --max-regress percent in its worse direction, or when a baseline
   metric vanished from the candidate. *)
let bench_diff_cmd old_path new_path max_regress =
  let read path =
    let contents =
      try
        let ic = open_in path in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      with Sys_error msg ->
        Printf.eprintf "cannot read %s: %s\n" path msg;
        exit 2
    in
    match Harness.Perf.of_string contents with
    | Ok run -> run
    | Error msg ->
        Printf.eprintf "%s: not a bench baseline: %s\n" path msg;
        exit 2
  in
  let baseline = read old_path in
  let candidate = read new_path in
  let d = Harness.Perf.diff ~baseline ~candidate in
  Printf.printf "%-18s %-26s %12s %12s %9s  %s\n" "section" "metric" "old"
    "new" "change" "verdict";
  List.iter
    (fun (dl : Harness.Perf.delta) ->
      Printf.printf "%-18s %-26s %12.4g %12.4g %8.2f%%  %s\n" dl.d_section
        dl.d_name dl.d_old dl.d_new dl.d_regress_pct
        (if dl.Harness.Perf.d_regress_pct > max_regress then "REGRESSED"
         else if dl.Harness.Perf.d_regress_pct < 0.0 then "improved"
         else "ok"))
    d.Harness.Perf.deltas;
  List.iter
    (fun (sec, name) ->
      Printf.printf "%-18s %-26s %35s  MISSING in %s\n" sec name "" new_path)
    d.Harness.Perf.missing;
  List.iter
    (fun (sec, name) -> Printf.eprintf "# note: new metric %s/%s\n" sec name)
    d.Harness.Perf.added;
  let regressions = Harness.Perf.regressions ~max_regress d in
  Printf.printf
    "bench-diff: %d metric(s) compared, %d regression(s) beyond %.2f%%, %d \
     missing\n"
    (List.length d.Harness.Perf.deltas)
    (List.length regressions) max_regress
    (List.length d.Harness.Perf.missing);
  if not (Harness.Perf.ok ~max_regress d) then exit 1

(* ------------------------------------------------------------------ *)
(* cmdliner plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let workload_arg = Cli_common.workload_arg

let size_arg = Cli_common.size_arg

let threshold_arg = Cli_common.threshold_arg

let delay_arg = Cli_common.delay_arg

let scale_arg = Cli_common.scale_arg

let fault_spec_arg = Cli_common.fault_spec_arg

let fault_seed_arg = Cli_common.fault_seed_arg

let self_heal_arg = Cli_common.self_heal_arg

let run_term =
  let dump_traces =
    Arg.(value & flag & info [ "traces" ] ~doc:"Dump the trace cache.")
  in
  let dump_bcg =
    Arg.(value & flag & info [ "bcg" ] ~doc:"Dump the hottest BCG nodes.")
  in
  let top =
    Arg.(value & opt int 20 & info [ "top" ] ~docv:"K"
           ~doc:"How many traces/nodes to dump.")
  in
  let dump_flightrec =
    Arg.(value & opt (some string) None & info [ "dump-flightrec" ]
           ~docv:"FILE"
           ~doc:"Force a post-mortem dump of the flight-recorder ring to \
                 $(docv) after the run (reason \"manual\") — the same \
                 JSONL an invariant or divergence trigger writes.")
  in
  Term.(
    const run_cmd $ workload_arg $ size_arg $ threshold_arg $ delay_arg
    $ fault_spec_arg $ fault_seed_arg $ self_heal_arg $ Cli_common.osr_arg
    $ Cli_common.tier_arg $ Cli_common.prune_guards_arg $ dump_traces
    $ dump_bcg $ top $ dump_flightrec)

let () =
  Cli_common.Subcommand.register ~name:"run"
    ~doc:"Run one workload under the trace-cache engine." run_term

let events_term =
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
  Term.(
    const events_cmd $ workload_arg $ size_arg $ threshold_arg $ delay_arg
    $ fault_spec_arg $ fault_seed_arg $ self_heal_arg $ Cli_common.osr_arg
    $ Cli_common.tier_arg $ snapshot_period $ stats_only)

let () =
  Cli_common.Subcommand.register ~name:"events"
    ~doc:
      "Replay a workload with the event stream enabled and dump the timeline \
       as JSON lines (stdout); per-kind totals are cross-checked against the \
       end-of-run statistics (stderr, non-zero exit on mismatch)."
    events_term

let table_term =
  let which =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TABLE")
  in
  Term.(const table_cmd $ which $ scale_arg)

let () =
  Cli_common.Subcommand.register ~name:"table"
    ~doc:
      "Regenerate one of the paper's tables (1-7, coverage-total, figure, \
       baselines, ablation-decay, optimizer, footprint)."
    table_term

let disasm_term =
  let meth =
    Arg.(value & opt (some string) None & info [ "method" ] ~docv:"NAME"
           ~doc:"Only this method.")
  in
  Term.(const disasm_cmd $ workload_arg $ size_arg $ meth)

let () =
  Cli_common.Subcommand.register ~name:"disasm"
    ~doc:"Disassemble a workload program." disasm_term

let export_term =
  let format =
    Arg.(value & opt string "csv" & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: csv, jsonl or json (one workload).")
  in
  let workload =
    Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"W"
           ~doc:"Workload for --format json.")
  in
  Term.(const export_cmd $ format $ workload $ scale_arg)

let () =
  Cli_common.Subcommand.register ~name:"export"
    ~doc:"Emit sweep results as CSV / JSON for external tools." export_term

let list_term = Term.(const list_cmd $ const ())

let () =
  Cli_common.Subcommand.register ~name:"list"
    ~doc:"List the available workloads." list_term

let lint_term =
  let workload =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
           ~doc:"Workload to lint (default: every registered workload).")
  in
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
                 (symbolic equivalence of the optimized body, TL212-TL218) \
                 with guard pruning enabled, so pruning claims are \
                 re-derived too.")
  in
  Term.(
    const lint_cmd $ workload $ size_arg $ threshold_arg $ delay_arg $ json
    $ static_only $ traces)

let () =
  Cli_common.Subcommand.register ~name:"lint"
    ~doc:
      "Lint workload programs with the dataflow analyses (dead stores, \
       unreachable blocks, always-taken branches, ...), then run each one \
       under the engine with debug checks on and sweep the trace cache and \
       BCG for invariant violations.  Exits 1 on any error-severity finding."
    lint_term

let prove_term =
  let workload =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
           ~doc:"Workload to prove (default: every registered workload).")
  in
  let min_pruning =
    Arg.(value & opt int 0 & info [ "min-pruning" ] ~docv:"K"
           ~doc:"Fail unless guard pruning elided at least one guard on \
                 $(docv) or more workloads.")
  in
  Term.(
    const prove_cmd $ workload $ size_arg $ threshold_arg $ delay_arg
    $ min_pruning)

let () =
  Cli_common.Subcommand.register ~name:"prove"
    ~doc:
      "Translation-validate every trace the engine builds: run each \
       workload with guard pruning on, symbolically prove every installed \
       trace equivalent to its original block sequence and re-derive every \
       pruning claim, then re-run with pruning off and assert bit-identical \
       VM results.  Exits 1 on any unprovable trace, diverging result, or \
       less pruning than --min-pruning demands."
    prove_term

let chaos_term =
  let workload =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
           ~doc:"Workload to chaos-test (default: every registered workload).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
           ~doc:"Base PRNG seed; schedule i uses seed + 1000*i.")
  in
  let schedules =
    Arg.(value & opt int 50 & info [ "schedules" ] ~docv:"K"
           ~doc:"Seeded fault schedules per workload.")
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
  Term.(
    const chaos_cmd $ workload $ size_arg $ seed $ schedules $ spec $ osr
    $ Cli_common.tier_arg $ quick $ verbose $ catalogue $ dump_dir)

let backends_term =
  let workload =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
           ~doc:"Workload to check (default: every registered workload).")
  in
  Term.(
    const backends_cmd $ workload $ size_arg $ threshold_arg $ delay_arg
    $ Cli_common.tier_arg)

let () =
  Cli_common.Subcommand.register ~name:"backends"
    ~doc:
      "List the dispatch backends (interp, profile, trace, microir), then \
       run workloads with each one pinned and assert the VM result matches \
       the plain interpreter — the pure-overlay promise, per strategy.  \
       With --tier the microir backend compiles hot traces to the micro-IR \
       tier and the gate also requires at least one compiled trace."
    backends_term

let session_term =
  let workloads =
    Arg.(required & opt (some string) None & info [ "workloads" ] ~docv:"A,B,C"
           ~doc:"Comma-separated workloads to interleave.")
  in
  let users =
    Arg.(value & opt int 2 & info [ "users" ] ~docv:"K"
           ~doc:"Members per workload; 2+ makes same-workload members share \
                 a trace cache and exercise cross-session reuse.")
  in
  let batch =
    Arg.(value & opt (some int) None & info [ "batch" ] ~docv:"N"
           ~doc:"Basic blocks each member advances per round-robin turn.")
  in
  Term.(
    const session_cmd $ workloads $ users $ batch $ size_arg $ threshold_arg
    $ delay_arg $ fault_spec_arg $ fault_seed_arg $ self_heal_arg)

let () =
  Cli_common.Subcommand.register ~name:"session"
    ~doc:
      "Run several workloads interleaved in one multi-session engine over \
       shared per-layout trace caches, assert every member's VM result is \
       bit-identical to a solo interpreter run, and report cross-session \
       trace reuse."
    session_term

let () =
  Cli_common.Subcommand.register ~name:"chaos"
    ~doc:
      "Run workloads under seeded fault schedules (corrupted traces, \
       flipped BCG counters, failed installations, allocation pressure) \
       with self-healing on, asserting VM results stay bit-identical to a \
       no-tracing baseline and the engine recovers to full tracing.  Exits \
       1 on any divergence or permanently degraded run."
    chaos_term

let top_term =
  let workload =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"WORKLOAD"
           ~doc:"Workload to profile (default: every registered workload).")
  in
  let top =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K"
           ~doc:"Rows per ranked table.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the full report as one schema-versioned JSON object \
                 per workload instead of the ranked tables (the \
                 reconciliation still runs on stderr).")
  in
  Term.(
    const top_cmd $ workload $ size_arg $ threshold_arg $ delay_arg
    $ Cli_common.prune_guards_arg $ Cli_common.tier_arg $ top $ json)

let () =
  Cli_common.Subcommand.register ~name:"top"
    ~doc:
      "Run workloads with per-block attribution on and print the \
       hot-report: ranked traces and ranked blocks (self vs inlined \
       executions).  Every column is reconciled against the end-of-run \
       statistics (stderr, non-zero exit on mismatch)."
    top_term

let timeline_term =
  let chrome =
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE"
           ~doc:"Write the timeline as Chrome trace_event JSON to $(docv) \
                 (loadable in Perfetto or about://tracing) and \
                 self-validate it, instead of printing span JSONL.")
  in
  let folded =
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE"
           ~doc:"Also write the span tree as folded stacks \
                 (frame;frame;frame weight, weighted by self dispatch \
                 ticks) to $(docv) — direct flamegraph.pl / speedscope \
                 input.")
  in
  Term.(
    const timeline_cmd $ workload_arg $ size_arg $ threshold_arg $ delay_arg
    $ fault_spec_arg $ fault_seed_arg $ self_heal_arg $ chrome $ folded)

let () =
  Cli_common.Subcommand.register ~name:"timeline"
    ~doc:
      "Replay a workload with the causal span recorder on (trace builds, \
       heal sweeps, quarantine episodes) and export the timeline: span \
       JSON lines on stdout, or self-validated Chrome trace_event JSON \
       with --chrome FILE."
    timeline_term

let warm_term =
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
  Term.(
    const warm_cmd $ workload_arg $ size_arg $ threshold_arg $ delay_arg
    $ save $ load)

let () =
  Cli_common.Subcommand.register ~name:"warm"
    ~doc:
      "Persist profile state across processes: --save writes a versioned, \
       checksummed snapshot of the BCG and trace cache after a cold run; \
       --load validates it into a fresh engine, drives the run warm, and \
       asserts the result is bit-identical to a cold control run.  Exits 1 \
       on a rejected snapshot (typed error on stderr) or a diverging \
       result."
    warm_term

let postmortem_term =
  let file =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"A flight-recorder dump (flightrec_<reason>.jsonl).")
  in
  Term.(const postmortem_cmd $ file)

let () =
  Cli_common.Subcommand.register ~name:"postmortem"
    ~doc:
      "Pretty-print a flight-recorder post-mortem dump: the dump header \
       (trigger reason, ring occupancy) followed by the surviving window \
       of events, span closures and metric deltas, oldest first.  Every \
       line is re-parsed through the Codec JSON parser; exits 1 on any \
       malformed record."
    postmortem_term

let explain_term =
  let trace_id =
    Arg.(value & opt (some int) None & info [ "trace" ] ~docv:"ID"
           ~doc:"Only the decisions concerning trace $(docv).")
  in
  let block =
    Arg.(value & opt (some int) None & info [ "block" ] ~docv:"GID"
           ~doc:"Only the decisions naming block $(docv) as an entry \
                 block, and every decision about the traces those name.")
  in
  Term.(
    const explain_cmd $ workload_arg $ size_arg $ threshold_arg $ delay_arg
    $ fault_spec_arg $ fault_seed_arg $ self_heal_arg $ Cli_common.osr_arg
    $ Cli_common.tier_arg $ trace_id $ block)

let () =
  Cli_common.Subcommand.register ~name:"explain"
    ~doc:
      "Replay a workload and narrate its decision ledger: the events in \
       which each trace was built, replaced, pruned, compiled, demoted, \
       evicted or quarantined, promoted or deoptimized, with the \
       victim-scoring and heat inputs they carry, each linked to its \
       causal span and dispatch tick.  The ledger's per-kind counts are \
       reconciled against the end-of-run statistics (stderr, non-zero \
       exit on drift)."
    explain_term

let bench_diff_term =
  let old_path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OLD"
           ~doc:"Baseline BENCH_<label>.json.")
  in
  let new_path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"NEW"
           ~doc:"Candidate BENCH_<label>.json.")
  in
  let max_regress =
    Arg.(value & opt float 0.0 & info [ "max-regress" ] ~docv:"PCT"
           ~doc:"Tolerated regression per metric, in percent of the \
                 baseline value (direction-aware; default 0).")
  in
  Term.(const bench_diff_cmd $ old_path $ new_path $ max_regress)

let () =
  Cli_common.Subcommand.register ~name:"bench-diff"
    ~doc:
      "Compare two machine-readable bench baselines (BENCH_<label>.json, \
       from bench --json) direction-aware: each metric knows whether \
       higher or lower is better.  Exits 1 when any metric regressed \
       beyond --max-regress percent or a baseline metric is missing from \
       the candidate."
    bench_diff_term

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "tracevm" ~version:"1.0.0"
      ~doc:
        "Dynamic profiling and trace cache generation for a bytecode VM \
         (CGO 2003 reproduction)."
  in
  exit (Cmd.eval (Cmd.group ~default info (Cli_common.Subcommand.commands ())))
