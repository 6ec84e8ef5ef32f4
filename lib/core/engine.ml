module Layout = Cfg.Layout
module Interp = Vm.Interp

(* The complete system: the VM's block-dispatch stream drives the profiler;
   profiler signals drive trace reconstruction; and the trace cache overlays
   trace dispatch onto the stream.

   The engine is a thin shell over Backend: it owns one Backend.ctx (the
   dispatch state every strategy shares) and picks the dispatch strategy
   per observed block from the Health ladder —

     Full_tracing  + build_traces -> Trace
     Full_tracing  (no traces)    -> Profile
     Profiling_only               -> Profile
     Interp_only                  -> Interp

   so walking the degradation ladder IS switching backends.  The compiled
   micro-IR tier (Config.tier_enabled) is part of trace dispatch, so it
   rides the top rung only.  A backend can also be pinned at creation
   (tests, the `repro_cli backends` inspection command), in which case
   the ladder still runs its accounting but never changes the dispatch
   strategy.

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

type backend_kind = Backend.kind = Interp | Profile | Trace

let backend_kind_name k = fst (Backend.describe k)

let backends = [ Interp; Profile; Trace ]

(* The ladder-to-backend mapping.  Note build_traces only matters at the
   top level: the cache is only ever consulted by trace dispatch. *)
let select config (level : Health.level) : backend_kind =
  match level with
  | Health.Interp_only -> Interp
  | Health.Profiling_only -> Profile
  | Health.Full_tracing ->
      if Config.build_traces config then Trace else Profile

type t = {
  ctx : Backend.ctx;
  pinned : bool; (* backend forced at creation: never re-selected *)
  mutable kind : backend_kind;
  mutable kind_level : Health.level; (* level [kind] was selected from *)
}

let counters t = Backend.counters t.ctx

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
          layout
  in
  (* parse the fault schedule here (not in Config.validate) so Config
     stays below Faults in the dependency order; a malformed spec still
     fails fast, at engine creation *)
  let faults =
    Faults.create ~seed:(Config.fault_seed config) (Config.fault_spec config)
  in
  let health = Health.create () in
  let osr =
    if Config.osr_enabled config then
      Some (Osr.create ~promote_after:(Config.osr_promote_after config) layout)
    else None
  in
  (* The black box and the decision ledger share the stream's one tap,
     out of band: neither is a subscriber, so a run with both still
     reports its stream quiet to user code.  Hot kinds reach only the
     recorder, as scalars; each cold event goes to the recorder, then
     to the ledger. *)
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
          Ledger.observe ledger ev);
    };
  (* The profiler's signal callback closes over the shared dispatch
     context; tie the knot with a forward reference. *)
  let context = ref None in
  let on_signal signal =
    match !context with
    | Some ctx -> Backend.on_signal ctx signal
    | None -> ()
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
      ledger;
      health;
      faults;
      osr;
      flightrec;
      attr_self =
        (if Config.obs_attribution config then
           Array.make layout.Layout.n_blocks 0
         else [||]);
      attr_inlined =
        (if Config.obs_attribution config then
           Array.make layout.Layout.n_blocks 0
         else [||]);
      h_trace_len = Metrics.histogram "executed_trace_len";
      h_exit_distance = Metrics.histogram "completion_distance";
      h_build_len = Metrics.histogram "builder_path_len";
      h_backoff = Metrics.histogram "quarantine_backoff";
      h_deopt_residue = Metrics.histogram "deopt_residue";
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
  { ctx; pinned; kind; kind_level = Health.level health }

(* accessors over the abstract engine *)
let config t = t.ctx.Backend.config

let layout t = t.ctx.Backend.layout

let profiler t = t.ctx.Backend.profiler

let cache t = t.ctx.Backend.cache

let events t = t.ctx.Backend.events

let active_trace t = t.ctx.Backend.active

let total_dispatches t = Backend.clock t.ctx

let health t = t.ctx.Backend.health

let flightrec t = t.ctx.Backend.flightrec

let ledger t = Some t.ctx.Backend.ledger

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
  Backend.on_block ctx t.kind g

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
