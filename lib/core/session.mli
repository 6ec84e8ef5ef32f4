(** Multi-workload sessions: several programs run "concurrently" over a
    shared trace cache.

    The session round-robins its members, each advancing a fixed batch
    of basic blocks per turn until every program has finished.  Each
    member owns a full {!Engine} (private BCG profiler, health ladder,
    counters, event stream), but members executing the {e same layout}
    share one {!Trace_cache} — a hot trace reconstructed by one member is
    entered by the others without being rebuilt.  The cache counts that
    reuse ({!Trace_cache.n_cross_installs} /
    {!Trace_cache.n_cross_entries}); {!cross_installs} and
    {!cross_entries} sum it over the session; every other cache
    decision is counted by the member making it.

    Tracing remains a pure overlay under interleaving: every member's VM
    result is bit-identical to a solo run of the same program. *)

type t

type member

val create : ?batch:int -> unit -> t
(** An empty session.  [batch] is the number of basic blocks each member
    advances per round-robin turn (default [1024]).
    @raise Invalid_argument if [batch < 1]. *)

val batch : t -> int

val add :
  ?name:string ->
  ?config:Config.t ->
  ?events:Events.t ->
  ?max_instructions:int ->
  t ->
  Cfg.Layout.t ->
  member
(** Register a program.  The member gets a fresh engine; if an earlier
    member runs the same layout (physical equality) the new engine is
    created over that member's trace cache ({!Engine.create}[ ~cache]),
    whose creator's config governs capacity and healing.  [name]
    defaults to ["s<id>"]; other parameters as in {!Engine.create} /
    {!Vm.Interp.start}. *)

val run : t -> unit
(** Round-robin all unfinished members to completion.  Idempotent;
    members added afterwards are picked up by a later [run]. *)

val members : t -> member list
(** In registration order. *)

val caches : t -> Trace_cache.t list
(** The distinct trace caches in use, in member order — shorter than
    {!members} exactly when sharing happened. *)

val cross_installs : t -> int
(** Constructions saved by sharing: hash-cons hits on a trace built by a
    different member, summed over {!caches}. *)

val cross_entries : t -> int
(** Dispatch entries into a trace built by a different member, summed
    over {!caches}. *)

(** {2 Members} *)

val member_name : member -> string

val engine : member -> Engine.t

val finished : member -> bool

val vm_result : member -> Vm.Interp.result
(** @raise Invalid_argument while the member is still running. *)

val stats : member -> Stats.t
(** Full statistics for a finished member; wall time is the member's
    accumulated stepping time. *)
