(* BCG-profiled block dispatch (Health.Profiling_only, and full tracing
   when Config.build_traces is off — the paper's Table VI overhead
   configuration).

   Every block is an ordinary block dispatch feeding the profiler; the
   trace cache is never consulted, so no trace is ever entered.  The
   profiler's signals still fire — trace construction is the signal
   subscriber's business (the engine gates it on Config.build_traces),
   not this strategy's. *)

let name = "profile"

let describe = "block dispatch with BCG profiling; traces never entered"

(* Hot-loop detection lives with the profiling strategy: one
   outside-trace dispatch of [g] feeds the OSR header counters.  With
   [promote = false] the heat saturates at the threshold instead of
   firing, so it survives until a trace-building backend can act on the
   crossing ([Backend_trace] calls this with [promote = true]). *)
let hot_loop (ctx : Backend.ctx) g ~promote =
  match ctx.Backend.osr with
  | Some osr -> Osr.observe_header osr g ~promote
  | None -> None

let poll_osr (ctx : Backend.ctx) g = ignore (hot_loop ctx g ~promote:false)

let step (ctx : Backend.ctx) g =
  Backend.prologue ctx;
  Backend.block_dispatch ctx g;
  Profiler.dispatch ctx.Backend.profiler g;
  Backend.note_executed ctx g;
  poll_osr ctx g;
  if Config.self_heal ctx.Backend.config then
    Backend.apply_health ctx (Health.clean_dispatch ctx.Backend.health)

(* A deopt resume is an ordinary profiled dispatch — [step] never
   consults the cache. *)
let deopt_resume = step

let on_block ctx g = Backend.observe ~step ~deopt_resume ctx g
