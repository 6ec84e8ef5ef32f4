(* Pure interpretation: the ladder's last resort (Health.Interp_only).

   Every block is an ordinary block dispatch and not even the profiler
   hook runs — the profiler only counts how much of the stream it missed,
   so its branch context goes stale (the engine resets it on promotion
   back up).  Clean dispatches still feed the health ladder so the
   engine can probe its way back to profiling. *)

let name = "interp"

let describe = "pure interpretation: no profiling, no traces"

let step (ctx : Backend.ctx) g =
  Backend.prologue ctx;
  Backend.block_dispatch ctx g;
  Profiler.note_skipped ctx.Backend.profiler;
  Backend.note_executed ctx g;
  Backend.apply_health ctx (Health.clean_dispatch ctx.Backend.health)

(* OSR detection needs the profiler's view of the stream; interp-only is
   the level where even that is off, so header heat does not accrue. *)
let poll_osr (_ : Backend.ctx) (_ : Cfg.Layout.gid) = ()

(* A deopt resume is an ordinary interp dispatch — [step] never consults
   the cache anyway. *)
let deopt_resume = step

let on_block ctx g = Backend.observe ~step ~deopt_resume ctx g
