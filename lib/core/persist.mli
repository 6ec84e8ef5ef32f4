(** The versioned, checksummed binary snapshot format for warm starts:
    the flattened BCG plus the live trace cache, behind a fixed header
    that is validated outermost-first so a foreign or corrupted snapshot
    is rejected with a typed {!error} before any value is constructed —
    decoding never half-loads.

    {v
     offset  size  field
          0     8  magic "TCSNAP01"
          8     4  format version (u32 LE)
         12    16  layout stamp ({!Cfg.Layout.fingerprint})
         28     8  payload length (u64 LE)
         36    16  payload checksum (MD5)
         52     n  payload
    v}

    Payload integers are signed 64-bit little-endian; floats travel as
    their IEEE-754 bit pattern.  Both halves are written in the
    canonical order {!Bcg.snapshot} and {!Trace_cache.snapshot} produce,
    so encode → decode → encode is bit-identical. *)

val snapshot_version : int
(** The format version this build writes and reads (the single bump
    site).  Bumped on any change to the header or payload layout. *)

type error =
  | Truncated of { expected : int; got : int }
      (** shorter than the header, or than the length the header
          declares *)
  | Bad_magic  (** the first 8 bytes are not the snapshot magic *)
  | Version_mismatch of { got : int; expected : int }
      (** written by a different format version *)
  | Layout_mismatch of { got : string; expected : string }
      (** written over a different program layout (stamps in hex) *)
  | Checksum_mismatch  (** the payload does not match its MD5 *)
  | Malformed of string
      (** the checksum held but the payload violates the grammar or a
          range check (out-of-range gid, unknown state tag, dangling
          edge, trailing bytes, …) *)

val error_to_string : error -> string

type snapshot = {
  bcg_nodes : Bcg.node_snap list;
  cache_entries : Trace_cache.entry_snap list;
}
(** The decoded value: exactly what {!Bcg.restore} and
    {!Trace_cache.restore} consume. *)

val encode : layout:Cfg.Layout.t -> snapshot -> string
(** Serialize with the header stamped for [layout]. *)

val decode : layout:Cfg.Layout.t -> string -> (snapshot, error) result
(** Validate and parse.  Checks run outermost-first — magic, version,
    layout stamp, length, checksum, then payload grammar and ranges
    (gids within [layout], state tags known, edge targets present,
    weights ≥ 1, probabilities in [0, 1]) — and the first failure is
    returned; on [Error] nothing was constructed. *)
