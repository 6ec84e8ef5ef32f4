(** Tier-aware trace dispatch ({!Config.tier_enabled}): [Backend_trace]'s
    dispatch skeleton with a compiled micro-IR tier layered on the cache
    hits.  Each trace entry runs the tier cost model
    ([Tier.maybe_compile]); positions followed inside a compiled trace
    are accounted as the lowered body's micro-op dispatches instead of
    source instructions.  A pure observational overlay like every
    backend — results are bit-identical with the tier on or off.  See
    {!Backend.S}. *)

include Backend.S
