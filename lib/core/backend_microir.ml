(* Tier-aware trace dispatch (Config.tier_enabled): Backend_trace's dispatch
   skeleton with a compiled tier layered on the cache hits.

   At each trace entry the tier cost model runs (Tier.maybe_compile):
   a trace hot enough — its entry's use count crossed [compile_after] —
   is lowered to micro-IR, demoting the coldest compiled trace first
   when the [compile_budget] is full.  Entering a trace that holds a
   lowered body sets the context's [active_lowered], and every position
   followed while it is set is accounted as the micro-ops the lowered
   body dispatches there instead of the source instructions
   Backend_trace would have — superinstructions counted apart, the
   baseline kept alongside.

   Like every backend the tier is a pure observational overlay: the VM
   executes the same bytecode whichever tier a trace is on, so results
   stay bit-identical with the tier on or off; what changes is the
   dispatch-cost model the run is priced under. *)

let name = "microir"

let describe =
  "trace-cache dispatch with hot traces compiled to a micro-IR tier"

let enter (ctx : Backend.ctx) (tr : Trace.t) g =
  (* the lookup that produced [tr] just heated its entry, so the cost
     model sees the use count including this dispatch *)
  let compiled, demoted =
    Tier.maybe_compile ctx.Backend.config ctx.Backend.layout ctx.Backend.cache
      ~events:ctx.Backend.events tr
  in
  let c = ctx.Backend.counts in
  c.Stats.traces_compiled <- c.Stats.traces_compiled + compiled;
  c.Stats.tier_demotions <- c.Stats.tier_demotions + demoted;
  (match tr.Trace.lowered with
  | Some _ as lowered ->
      c.Stats.compiled_entries <- c.Stats.compiled_entries + 1;
      ctx.Backend.active_lowered <- lowered
  | None -> ctx.Backend.active_lowered <- None);
  (* the entry position (0) is matched by the lookup itself, before
     Backend.follow sees any position; account it here.  A single-block
     trace completes inside [enter], which clears [active_lowered]. *)
  Backend.account_lowered ctx 0;
  Backend_trace.enter ctx tr g

let step (ctx : Backend.ctx) g = Backend_trace.step_with ~enter ctx g

let poll_osr = Backend_trace.poll_osr

let deopt_resume = Backend_trace.deopt_resume

let on_block ctx g = Backend.observe ~step ~deopt_resume ctx g
