(** Flight recorder: an always-on bounded ring buffer ("black box") of
    the most recent events.  Recording is O(1) per entry with retention
    bounded by the ring capacity; on a trigger condition the
    harness-installed [on_dump] hook serializes the surviving window
    into a postmortem artifact. *)

type entry = { seq : int; time : int; payload : Events.payload }
(** A delivered engine event, as tapped off the event stream; [seq]
    numbers the recorder's entries from 0. *)

(** Why a dump fired.  [Manual] is a forced dump (CLI / tests). *)
type dump_reason =
  | Invariant
  | Divergence
  | Snapshot_rejected
  | Degraded
  | Manual

val reason_to_string : dump_reason -> string
(** Stable wire tag for the reason, used in postmortem headers. *)

type t

val create : capacity:int -> t
(** Ring of [capacity] slots (clamped to at least 2). *)

val capacity : t -> int

val recorded : t -> int
(** Total entries ever recorded (>= capacity means the ring wrapped). *)

val dropped : t -> int
(** Entries pushed out of the ring by wrap-around. *)

val dumps : t -> int
(** Number of times a dump trigger fired. *)

val set_on_dump : t -> (dump_reason -> unit) -> unit
(** Install the dump hook.  The recorder itself performs no I/O. *)

val ring : t -> Events.ring
(** The recorder's ring, for {!Events.set_tap}: the stream writes hot
    kinds into it as unboxed scalars — the per-dispatch path allocates
    nothing and calls no closure — and rare kinds by pointer. *)

val to_list : t -> entry list
(** The surviving window, oldest first. *)

val trigger : t -> dump_reason -> unit
(** Fire the dump hook (and count the dump even when no hook is set). *)
