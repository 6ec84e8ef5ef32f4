module Layout = Cfg.Layout
module Interp = Vm.Interp

(* The complete system: the VM's block-dispatch stream drives the profiler;
   profiler signals drive trace reconstruction; and the trace cache overlays
   trace dispatch onto the stream.

   The engine is a thin shell over the Backend layer: it owns one
   Backend.ctx (the dispatch state every strategy shares) and selects a
   dispatch backend per observed block from the Health ladder —

     Full_tracing  + build_traces -> Backend_trace
     Full_tracing  (no traces)    -> Backend_profile
     Profiling_only               -> Backend_profile
     Interp_only                  -> Backend_interp

   so walking the degradation ladder IS switching backends.  A backend
   can also be pinned at creation (tests, the `repro_cli backends`
   inspection command), in which case the ladder still runs its
   accounting but never changes the dispatch strategy.

   Dispatch accounting mirrors the modified SableVM:

   - a block dispatched outside any trace executes the profiler hook and
     counts as one block dispatch;
   - a dispatch that enters a trace executes the hook once and counts as
     one *trace* dispatch; the blocks the trace then executes internally
     are inlined — no dispatch, no hook;
   - when execution diverges from the trace (side exit) or the trace
     completes, the profiler context is resynchronized to the last two
     executed blocks and normal dispatching resumes.

   Because every strategy observes the same stream and tracing is a pure
   overlay, the VM's results are bit-identical under any backend, any
   ladder schedule and any fault schedule. *)

type backend_kind = Interp | Profile | Trace | Microir

let backend_kind_name = function
  | Interp -> Backend_interp.name
  | Profile -> Backend_profile.name
  | Trace -> Backend_trace.name
  | Microir -> Backend_microir.name

let backend_kind_of_string = function
  | "interp" -> Some Interp
  | "profile" -> Some Profile
  | "trace" -> Some Trace
  | "microir" -> Some Microir
  | _ -> None

let implementation : backend_kind -> (module Backend.S) = function
  | Interp -> (module Backend_interp)
  | Profile -> (module Backend_profile)
  | Trace -> (module Backend_trace)
  | Microir -> (module Backend_microir)

let backends = [ Interp; Profile; Trace; Microir ]

(* The ladder-to-backend mapping.  Note build_traces only matters at the
   top level: the cache is only ever consulted by Backend_trace /
   Backend_microir.  The compiled tier rides the top rung only — any
   degradation drops it with the rest of trace dispatch. *)
let select config (level : Health.level) : backend_kind =
  match level with
  | Health.Interp_only -> Interp
  | Health.Profiling_only -> Profile
  | Health.Full_tracing ->
      if not (Config.build_traces config) then Profile
      else if Config.tier_enabled config then Microir
      else Trace

type t = {
  ctx : Backend.ctx;
  ledger : Ledger.t;
  pinned : bool; (* backend forced at creation: never re-selected *)
  mutable kind : backend_kind;
  mutable kind_level : Health.level; (* level [kind] was selected from *)
}

(* The counters, filled in: a copy of the dispatch loop's own record
   plus, in this one place, the counters other modules own. *)
let counters t : Stats.t =
  let ctx = t.ctx in
  let s = Stats.copy ctx.Backend.counts in
  let profiler = ctx.Backend.profiler and cache = ctx.Backend.cache in
  let bcg = Profiler.bcg profiler in
  s.Stats.signals <- Profiler.signals profiler;
  s.Stats.ic_predictions <- Profiler.predictions profiler;
  s.Stats.bcg_nodes <- Bcg.n_nodes bcg;
  s.Stats.bcg_edges <- Bcg.n_edges bcg;
  s.Stats.traces_replaced <- Trace_cache.n_replaced cache;
  s.Stats.traces_live <- Trace_cache.n_live cache;
  s.Stats.traces_quarantined <- Trace_cache.n_quarantines cache;
  s.Stats.traces_evicted <- Trace_cache.n_evicted cache;
  s.Stats.traces_blacklisted <- Trace_cache.n_blacklisted cache;
  s.Stats.failed_installs <- Trace_cache.n_failed_installs cache;
  s.Stats.pin_refusals <- Trace_cache.n_pin_refusals cache;
  s.Stats.demote_refusals <- Trace_cache.n_demote_refusals cache;
  Trace_cache.iter_all cache (fun tr ->
      if tr.Trace.completed > 0 then begin
        s.Stats.static_traces <- s.Stats.static_traces + 1;
        s.Stats.static_blocks <- s.Stats.static_blocks + Trace.n_blocks tr
      end);
  (match ctx.Backend.osr with
  | Some osr ->
      s.Stats.deopts <- Osr.deopts osr;
      s.Stats.deopt_residue_blocks <- Osr.residue_blocks osr;
      s.Stats.osr_promotions <- Osr.promotions osr;
      s.Stats.osr_entries <- Osr.entries osr;
      s.Stats.osr_state_checks <- Osr.state_checks osr;
      s.Stats.osr_state_mismatches <- Osr.state_mismatches osr
  | None -> ());
  s.Stats.faults_injected <- Faults.injected ctx.Backend.faults;
  s.Stats.health_demotions <- Health.demotions ctx.Backend.health;
  s.Stats.health_promotions <- Health.promotions ctx.Backend.health;
  s.Stats.final_health <- Health.level_rank (Health.level ctx.Backend.health);
  s

(* Every Stats counter but [instructions], which only the VM knows. *)
let gauged_counters =
  List.filter (fun (name, _) -> name <> "instructions") Stats.counters

(* Expose the accounting through the registry as polled gauges: nothing
   on the dispatch path, evaluated only when a snapshot is taken.  One
   gauge per counter, all projecting one [counters] sample per snapshot,
   then the state gauges that are not counters. *)
let register_gauges (m : Metrics.t) (t : t) =
  let e = t.ctx in
  Metrics.gauges m gauged_counters (fun () -> counters t);
  let cache = e.Backend.cache in
  Metrics.gauge m "live_blocks" (fun () -> Trace_cache.live_blocks cache);
  Metrics.gauge m "quarantine_active" (fun () ->
      Trace_cache.n_quarantine_active cache);
  Metrics.gauge m "skipped_dispatches" (fun () ->
      Profiler.skipped e.Backend.profiler);
  Metrics.gauge m "cross_session_installs" (fun () ->
      Trace_cache.n_cross_installs cache);
  Metrics.gauge m "cross_session_entries" (fun () ->
      Trace_cache.n_cross_entries cache);
  Metrics.gauge m "traces_restored" (fun () -> Trace_cache.n_restored cache);
  Metrics.gauge m "cache_footprint_bytes" (fun () ->
      Trace_cache.footprint_bytes cache);
  if Config.tier_enabled e.Backend.config then
    Metrics.gauge m "compiled_live" (fun () -> Trace_cache.n_compiled cache);
  (match e.Backend.spans with
  | Some s ->
      Metrics.gauge m "spans_recorded" (fun () -> Spans.recorded s);
      Metrics.gauge m "spans_dropped" (fun () -> Spans.dropped s)
  | None -> ());
  (match e.Backend.flightrec with
  | Some fr ->
      Metrics.gauge m "flightrec_recorded" (fun () -> Flightrec.recorded fr);
      Metrics.gauge m "flightrec_dumps" (fun () -> Flightrec.dumps fr)
  | None -> ());
  Metrics.gauge m "ledger_records" (fun () -> Ledger.length t.ledger)

let create ?(config = Config.default) ?(events = Events.create ()) ?cache
    ?backend (layout : Layout.t) : t =
  let cache =
    match cache with
    | Some c ->
        if Trace_cache.layout c != layout then
          invalid_arg "Engine.create: cache built over a different layout";
        c
    | None ->
        Trace_cache.create ~events
          ~max_traces:(Config.max_cache_traces config)
          ~eviction_policy:(Config.eviction_policy config)
          ~heal_max_rebuilds:(Config.heal_max_rebuilds config)
          ~heal_backoff:(Config.heal_backoff config)
          layout
  in
  (* parse the fault schedule here (not in Config.validate) so Config
     stays below Faults in the dependency order; a malformed spec still
     fails fast, at engine creation *)
  let faults =
    Faults.create ~seed:(Config.fault_seed config) (Config.fault_spec config)
  in
  let health =
    Health.create
      ~demote_after:(Config.heal_demote_after config)
      ~recover_after:(Config.heal_recover_after config)
  in
  let metrics = Metrics.create ~period:(Config.snapshot_period config) () in
  let spans =
    if Config.obs_spans config then
      Some (Spans.create ())
    else None
  in
  let h_trace_len = Metrics.histogram metrics "executed_trace_len" in
  let h_exit_distance = Metrics.histogram metrics "completion_distance" in
  let h_build_len = Metrics.histogram metrics "builder_path_len" in
  let h_backoff = Metrics.histogram metrics "quarantine_backoff" in
  let h_deopt_residue = Metrics.histogram metrics "deopt_residue" in
  let osr =
    if Config.osr_enabled config then
      Some (Osr.create ~promote_after:(Config.osr_promote_after config) layout)
    else None
  in
  (* The black box and the decision ledger share the stream's one tap,
     out of band: neither is a subscriber, so a run with both still
     reports its stream quiet to user code.  Hot kinds reach only the
     recorder, as scalars; each cold event goes to the recorder, then
     to the ledger with the innermost open span.  The recorder also
     rides the span close hook when spans are on. *)
  let flightrec =
    let cap = Config.flightrec_capacity config in
    if cap > 0 then Some (Flightrec.create ~capacity:cap) else None
  in
  let ledger = Ledger.create () in
  let recorder =
    match flightrec with
    | Some fr -> Flightrec.sink fr
    | None -> { Events.hot = (fun _ _ _ _ _ _ -> ()); cold = ignore }
  in
  Events.set_tap events
    {
      recorder with
      Events.cold =
        (fun ev ->
          recorder.Events.cold ev;
          let span = match spans with Some s -> Spans.current s | None -> -1 in
          Ledger.observe ledger ~span ev);
    };
  (match (flightrec, spans) with
  | Some fr, Some s ->
      Spans.set_on_close s (fun (sp : Spans.span) ->
          Flightrec.record_span_closed fr ~time:sp.Spans.end_time
            ~id:sp.Spans.id ~parent:sp.Spans.parent
            ~kind:(Spans.kind_to_string sp.Spans.kind)
            ~label:sp.Spans.label ~start_time:sp.Spans.start_time)
  | _ -> ());
  (* The profiler's signal callback closes over the shared dispatch
     context; tie the knot with a forward reference. *)
  let context = ref None in
  let on_signal signal =
    match !context with
    | None -> ()
    | Some (e : Backend.ctx) ->
        if Config.build_traces e.Backend.config then begin
          let build_span =
            match e.Backend.spans with
            | Some s ->
                let n = signal.Bcg.s_node in
                Spans.begin_span s ~kind:Spans.Trace_build
                  ~label:
                    (Printf.sprintf "build N_%d,%d" n.Bcg.n_x n.Bcg.n_y)
                  ~now:(Backend.clock e)
            | None -> -1
          in
          let outcome =
            Trace_builder.on_signal ~events
              ~on_path:(fun n -> Metrics.record e.Backend.h_build_len n)
              e.Backend.config e.Backend.cache signal
          in
          Backend.note_build e outcome;
          (* trace-construction boundary *)
          if Config.debug_checks e.Backend.config then
            Backend.run_debug_checks e;
          match e.Backend.spans with
          | Some s -> Spans.end_span s build_span ~now:(Backend.clock e)
          | None -> ()
        end
  in
  let profiler =
    Profiler.create ~events config ~n_blocks:layout.Layout.n_blocks ~on_signal
  in
  let ctx =
    {
      Backend.config;
      layout;
      profiler;
      cache;
      events;
      metrics;
      health;
      faults;
      osr;
      spans;
      flightrec;
      attr_self =
        (if Config.obs_attribution config then
           Array.make layout.Layout.n_blocks 0
         else [||]);
      attr_inlined =
        (if Config.obs_attribution config then
           Array.make layout.Layout.n_blocks 0
         else [||]);
      h_trace_len;
      h_exit_distance;
      h_build_len;
      h_backoff;
      h_deopt_residue;
      counts = Stats.zero ();
      active = None;
      active_lowered = None;
      active_pos = 0;
      matched_blocks = 0;
      matched_instrs = 0;
      prev = -1;
      prev2 = -1;
      just_completed = false;
      seen_decays = 0;
      in_debug_sweep = false;
    }
  in
  context := Some ctx;
  let kind, pinned =
    match backend with
    | Some k -> (k, true)
    | None -> (select config (Health.level health), false)
  in
  let t = { ctx; ledger; pinned; kind; kind_level = Health.level health } in
  register_gauges metrics t;
  let prev_values : (string, int) Hashtbl.t = Hashtbl.create 64 in
  Metrics.on_snapshot metrics (fun snapshot ->
      if Events.enabled events then
        Events.emit events (Events.Phase_snapshot snapshot);
      (* the recorder keeps metric *deltas* between consecutive
         snapshots — what moved, not the whole registry *)
      match flightrec with
      | Some fr ->
          Array.iter
            (fun (name, value) ->
              let old =
                match Hashtbl.find_opt prev_values name with
                | Some v -> v
                | None -> 0
              in
              if value <> old then
                Flightrec.record_metric_delta fr ~time:snapshot.Metrics.at
                  ~name ~delta:(value - old) ~total:value;
              Hashtbl.replace prev_values name value)
            snapshot.Metrics.values
      | None -> ());
  t

(* accessors over the abstract engine *)
let config t = t.ctx.Backend.config

let layout t = t.ctx.Backend.layout

let profiler t = t.ctx.Backend.profiler

let cache t = t.ctx.Backend.cache

let events t = t.ctx.Backend.events

let metrics t = t.ctx.Backend.metrics

let active_trace t = t.ctx.Backend.active

let total_dispatches t = Backend.clock t.ctx

let health t = t.ctx.Backend.health

let health_level t = Health.level t.ctx.Backend.health

let spans t = t.ctx.Backend.spans

let flightrec t = t.ctx.Backend.flightrec

let ledger t = Some t.ledger

let attr_self t = t.ctx.Backend.attr_self

let attr_inlined t = t.ctx.Backend.attr_inlined

let inflight_matched_blocks t =
  match t.ctx.Backend.active with
  | Some _ -> t.ctx.Backend.matched_blocks
  | None -> 0

let trace_len_hist t = t.ctx.Backend.h_trace_len

let exit_distance_hist t = t.ctx.Backend.h_exit_distance

let build_len_hist t = t.ctx.Backend.h_build_len

let backoff_hist t = t.ctx.Backend.h_backoff

let deopt_residue_hist t = t.ctx.Backend.h_deopt_residue

let arm_guard_flip t ~pos = Faults.arm_flip t.ctx.Backend.faults ~pos

let debug_sweep t = Backend.run_debug_checks t.ctx

let attach t (handle : Interp.handle) =
  match t.ctx.Backend.osr with
  | Some osr ->
      Osr.set_materialize osr (fun () -> Some (Interp.materialize handle))
  | None -> ()

let backend_kind t = t.kind

let backend t = implementation t.kind

let backend_name t = backend_kind_name t.kind

let backend_pinned t = t.pinned

(* The VM observer: re-select the backend if the ladder moved since the
   last dispatch (a mid-dispatch transition therefore takes effect at
   the next observed block, exactly like the old mode flags), then hand
   the block to the current strategy. *)
let on_block t (g : Layout.gid) =
  let ctx = t.ctx in
  if not t.pinned then begin
    let level = Health.level ctx.Backend.health in
    if level <> t.kind_level then begin
      t.kind_level <- level;
      let k = select ctx.Backend.config level in
      if k <> t.kind then begin
        t.kind <- k;
        ctx.Backend.counts.Stats.backend_switches <-
          ctx.Backend.counts.Stats.backend_switches + 1
      end
    end
  end;
  match t.kind with
  | Interp -> Backend_interp.on_block ctx g
  | Profile -> Backend_profile.on_block ctx g
  | Trace -> Backend_trace.on_block ctx g
  | Microir -> Backend_microir.on_block ctx g

(* End-of-run statistics: the counters plus what only the VM knows. *)
let stats t ~(vm_result : Interp.result) ~wall_seconds : Stats.t =
  let s = counters t in
  s.Stats.instructions <- vm_result.Interp.instructions;
  s.Stats.wall_seconds <- wall_seconds;
  s

(* Warm starts: the engine-level snapshot is the Persist encoding of
   the profiler's BCG plus the live trace cache, and restoring is the
   only place the Cache_restored / Snapshot_rejected events are
   emitted, so every load attempt is visible on the timeline. *)

let snapshot t =
  let ctx = t.ctx in
  Persist.encode ~layout:ctx.Backend.layout
    {
      Persist.bcg_nodes = Bcg.snapshot (Profiler.bcg ctx.Backend.profiler);
      cache_entries = Trace_cache.snapshot ctx.Backend.cache;
    }

type restore_info = {
  restored_traces : int;
  restored_blocks : int;
  restored_bcg_nodes : int;
  restored_bcg_edges : int;
  recompiled_traces : int;
}

let restore t data : (restore_info, Persist.error) result =
  let ctx = t.ctx in
  match Persist.decode ~layout:ctx.Backend.layout data with
  | Error e ->
      ctx.Backend.counts.Stats.snapshots_rejected <-
        ctx.Backend.counts.Stats.snapshots_rejected + 1;
      if Events.enabled ctx.Backend.events then
        Events.emit ctx.Backend.events
          (Events.Snapshot_rejected { reason = Persist.error_to_string e });
      Backend.fr_trigger ctx Flightrec.Snapshot_rejected;
      Error e
  | Ok snap ->
      let bcg = Profiler.bcg ctx.Backend.profiler in
      Bcg.restore bcg snap.Persist.bcg_nodes;
      let traces =
        Trace_cache.restore
          ~promoted_below:(Config.threshold t.ctx.Backend.config)
          ctx.Backend.cache snap.Persist.cache_entries
      in
      (* the compiled tier is derived state: snapshots persist heat, not
         lowered bodies, so re-derive the compiled set from the restored
         use counts (Tier.recompile_restored is a no-op with the tier
         off) *)
      let recompiled =
        Tier.recompile_restored ctx.Backend.config ctx.Backend.layout
          ctx.Backend.cache ~events:ctx.Backend.events
      in
      ctx.Backend.counts.Stats.traces_compiled <-
        ctx.Backend.counts.Stats.traces_compiled + recompiled;
      let info =
        {
          restored_traces = traces;
          restored_blocks = Trace_cache.live_blocks ctx.Backend.cache;
          restored_bcg_nodes = Bcg.n_nodes bcg;
          restored_bcg_edges = Bcg.n_edges bcg;
          recompiled_traces = recompiled;
        }
      in
      if Events.enabled ctx.Backend.events then
        Events.emit ctx.Backend.events
          (Events.Cache_restored
             {
               traces;
               cache_blocks = info.restored_blocks;
               bcg_nodes = info.restored_bcg_nodes;
               bcg_edges = info.restored_bcg_edges;
             });
      Ok info

type run_result = {
  engine : t;
  vm_result : Interp.result;
  run_stats : Stats.t;
}

(* Drive an already-created engine over its program — the warm-start
   flow creates, restores, then drives. *)
let drive ?max_instructions t : run_result =
  let layout = t.ctx.Backend.layout in
  let t0 = Unix.gettimeofday () in
  (* drive through a handle (not Interp.run) so the OSR deopt checks can
     materialize the live continuation; bit-identical either way *)
  let handle =
    Interp.start ?max_instructions layout ~on_block:(fun g -> on_block t g)
  in
  attach t handle;
  let vm_result = Interp.finish handle in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  { engine = t; vm_result; run_stats = stats t ~vm_result ~wall_seconds }

(* Run a program under the full system. *)
let run ?(config = Config.default) ?events ?max_instructions ?backend
    (layout : Layout.t) : run_result =
  drive ?max_instructions (create ~config ?events ?backend layout)
