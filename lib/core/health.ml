(* The engine's degradation ladder.

   Three operating levels, in descending capability:

     Full_tracing    — profile every dispatch, build and dispatch traces
     Profiling_only  — profile every dispatch, never build or enter traces
     Interp_only     — pure block interpretation, no profiling at all

   Detected faults (a quarantined trace, a healed BCG node) are
   *strikes*; accumulating [Config.heal_demote_after] strikes without an
   intervening recovery window drops the engine one level.  Every
   dispatch that passes without a detection is a recovery probe: after
   [Config.heal_recover_after] consecutive clean dispatches the engine
   climbs one level back up (and at full tracing the same window
   forgives stale strikes, so isolated faults never accumulate into a
   demotion across a whole run). *)

type level = Full_tracing | Profiling_only | Interp_only

let level_to_string = function
  | Full_tracing -> "full-tracing"
  | Profiling_only -> "profiling-only"
  | Interp_only -> "interp-only"

let level_rank = function
  | Full_tracing -> 0
  | Profiling_only -> 1
  | Interp_only -> 2

type transition = Stay | Changed of level * level

type t = {
  mutable level : level;
  mutable strikes : int;
  mutable clean : int; (* consecutive clean dispatches *)
}

let create () = { level = Full_tracing; strikes = 0; clean = 0 }

let level t = t.level

let strikes t = t.strikes

let down = function
  | Full_tracing -> Profiling_only
  | Profiling_only | Interp_only -> Interp_only

let up = function
  | Interp_only -> Profiling_only
  | Profiling_only | Full_tracing -> Full_tracing

(* One detected fault.  The clean-dispatch window restarts; enough
   strikes demote one level (and reset, so the next level gets a fresh
   budget). *)
let strike t : transition =
  t.clean <- 0;
  t.strikes <- t.strikes + 1;
  if t.strikes >= Config.heal_demote_after && t.level <> Interp_only then begin
    let from_level = t.level in
    t.level <- down t.level;
    t.strikes <- 0;
    Changed (from_level, t.level)
  end
  else Stay

(* One dispatch that completed without any detection.  A full recovery
   window promotes one level; at full tracing it forgives stale
   strikes instead. *)
let clean_dispatch t : transition =
  if t.level = Full_tracing && t.strikes = 0 then Stay
  else begin
    t.clean <- t.clean + 1;
    if t.clean >= Config.heal_recover_after then begin
      t.clean <- 0;
      t.strikes <- 0;
      if t.level = Full_tracing then Stay
      else begin
        let from_level = t.level in
        t.level <- up t.level;
        Changed (from_level, t.level)
      end
    end
    else Stay
  end
