(* The versioned, checksummed binary snapshot format for warm starts.

   A snapshot carries the flattened BCG ([Bcg.node_snap]) and the live
   trace cache ([Trace_cache.entry_snap]) behind a fixed header:

     offset  size  field
          0     8  magic "TCSNAP01"
          8     4  format version (u32 LE)
         12    16  layout stamp (Cfg.Layout.fingerprint)
         28     8  payload length (u64 LE)
         36    16  payload checksum (MD5)
         52     n  payload

   The header is validated outermost-first — magic, version, layout
   stamp, length, checksum — and the payload is only parsed once every
   header check has passed, so a snapshot from a different build of the
   format, a different program, or a corrupted file is rejected with a
   typed [error] before any value is constructed: decoding never
   half-loads.  Payload integers are signed 64-bit little-endian; floats
   travel as their IEEE-754 bit pattern.  Both halves of the payload are
   written in the canonical order their [snapshot] functions produce
   (nodes by (x, y), edges by z, cache entries by entry key), so
   encode → decode → encode is bit-identical. *)

(* The format version this build writes and reads, the single bump
   site: bumped on any change to the header or payload layout. *)
let snapshot_version = 2

let magic = "TCSNAP01"

let header_len = 8 + 4 + 16 + 8 + 16

type error =
  | Truncated of { expected : int; got : int }
  | Bad_magic
  | Version_mismatch of { got : int; expected : int }
  | Layout_mismatch of { got : string; expected : string }
  | Checksum_mismatch
  | Malformed of string

let error_to_string = function
  | Truncated { expected; got } ->
      Printf.sprintf "truncated snapshot: expected %d bytes, got %d" expected
        got
  | Bad_magic -> "bad magic: not a trace-cache snapshot"
  | Version_mismatch { got; expected } ->
      Printf.sprintf "snapshot format version %d, this build reads %d" got
        expected
  | Layout_mismatch { got; expected } ->
      Printf.sprintf "snapshot is for a different program layout (%s, want %s)"
        got expected
  | Checksum_mismatch -> "payload checksum mismatch: snapshot is corrupted"
  | Malformed what -> Printf.sprintf "malformed payload: %s" what

type snapshot = {
  bcg_nodes : Bcg.node_snap list;
  cache_entries : Trace_cache.entry_snap list;
}

(* Encoding *)

let put_int buf n = Buffer.add_int64_le buf (Int64.of_int n)

let put_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let state_tag = function
  | State.Unique -> 0
  | State.Strongly_correlated -> 1
  | State.Weakly_correlated -> 2
  | State.Newly_created -> 3

let state_of_tag = function
  | 0 -> Some State.Unique
  | 1 -> Some State.Strongly_correlated
  | 2 -> Some State.Weakly_correlated
  | 3 -> Some State.Newly_created
  | _ -> None

let encode_payload (s : snapshot) =
  let buf = Buffer.create 65536 in
  put_int buf (List.length s.bcg_nodes);
  List.iter
    (fun (n : Bcg.node_snap) ->
      put_int buf n.Bcg.ns_x;
      put_int buf n.Bcg.ns_y;
      put_int buf n.Bcg.ns_exec_total;
      put_int buf n.Bcg.ns_delay_left;
      put_int buf n.Bcg.ns_since_decay;
      put_int buf (state_tag n.Bcg.ns_state);
      put_int buf n.Bcg.ns_best_at_recheck;
      put_int buf (List.length n.Bcg.ns_edges);
      List.iter
        (fun (z, w) ->
          put_int buf z;
          put_int buf w)
        n.Bcg.ns_edges)
    s.bcg_nodes;
  put_int buf (List.length s.cache_entries);
  List.iter
    (fun (e : Trace_cache.entry_snap) ->
      put_int buf e.Trace_cache.snap_first;
      put_int buf (Array.length e.Trace_cache.snap_blocks);
      Array.iter (put_int buf) e.Trace_cache.snap_blocks;
      put_float buf e.Trace_cache.snap_prob;
      put_int buf e.Trace_cache.snap_heat)
    s.cache_entries;
  Buffer.contents buf

let encode ~(layout : Cfg.Layout.t) (s : snapshot) =
  let payload = encode_payload s in
  let buf = Buffer.create (header_len + String.length payload) in
  Buffer.add_string buf magic;
  Buffer.add_int32_le buf (Int32.of_int snapshot_version);
  Buffer.add_string buf (Cfg.Layout.fingerprint layout);
  put_int buf (String.length payload);
  Buffer.add_string buf (Digest.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* Decoding.  A cursor over the checksummed payload; running off its end
   or failing a range check raises [Fail], mapped to the typed error. *)

exception Fail of error

let fail e = raise (Fail e)

type cursor = { data : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.data then
    fail (Malformed "payload ends mid-record")

let get_int c =
  need c 8;
  let v = Int64.to_int (String.get_int64_le c.data c.pos) in
  c.pos <- c.pos + 8;
  v

let get_float c =
  need c 8;
  let v = Int64.float_of_bits (String.get_int64_le c.data c.pos) in
  c.pos <- c.pos + 8;
  v

let get_count c ~what ~max =
  let n = get_int c in
  if n < 0 || n > max then fail (Malformed (Printf.sprintf "bad %s count" what));
  n

let get_gid c ~n_blocks ~what =
  let g = get_int c in
  if g < 0 || g >= n_blocks then
    fail (Malformed (Printf.sprintf "%s out of range" what));
  g

let decode_payload ~(layout : Cfg.Layout.t) data : snapshot =
  let c = { data; pos = 0 } in
  let n_blocks = layout.n_blocks in
  (* a node or entry is at least 8 bytes of payload each, so the byte
     length bounds every count — a hostile count cannot force a huge
     allocation *)
  let max_items = String.length data / 8 in
  let n_nodes = get_count c ~what:"node" ~max:max_items in
  let nodes =
    List.init n_nodes (fun _ ->
        let ns_x = get_gid c ~n_blocks ~what:"node x" in
        let ns_y = get_gid c ~n_blocks ~what:"node y" in
        let ns_exec_total = get_int c in
        if ns_exec_total < 0 then fail (Malformed "negative exec_total");
        let ns_delay_left = get_int c in
        if ns_delay_left < 0 then fail (Malformed "negative delay_left");
        let ns_since_decay = get_int c in
        if ns_since_decay < 0 then fail (Malformed "negative since_decay");
        let ns_state =
          match state_of_tag (get_int c) with
          | Some s -> s
          | None -> fail (Malformed "unknown state tag")
        in
        let best = get_int c in
        if best < -1 || best >= n_blocks then
          fail (Malformed "best_at_recheck out of range");
        let n_edges = get_count c ~what:"edge" ~max:max_items in
        let ns_edges =
          List.init n_edges (fun _ ->
              let z = get_gid c ~n_blocks ~what:"edge successor" in
              let w = get_int c in
              if w < 1 then fail (Malformed "edge weight < 1");
              (z, w))
        in
        {
          Bcg.ns_x;
          ns_y;
          ns_exec_total;
          ns_delay_left;
          ns_since_decay;
          ns_state;
          ns_best_at_recheck = best;
          ns_edges;
        })
  in
  (* every edge must target a node carried by the same snapshot, or
     [Bcg.restore] would have dangling successors *)
  let node_keys = Hashtbl.create (List.length nodes) in
  List.iter
    (fun (n : Bcg.node_snap) ->
      Hashtbl.replace node_keys ((n.Bcg.ns_x * n_blocks) + n.Bcg.ns_y) ())
    nodes;
  List.iter
    (fun (n : Bcg.node_snap) ->
      List.iter
        (fun (z, _) ->
          if not (Hashtbl.mem node_keys ((n.Bcg.ns_y * n_blocks) + z)) then
            fail (Malformed "edge targets a node absent from the snapshot"))
        n.Bcg.ns_edges)
    nodes;
  let n_entries = get_count c ~what:"cache entry" ~max:max_items in
  let entries =
    List.init n_entries (fun _ ->
        let snap_first = get_gid c ~n_blocks ~what:"entry first" in
        let len = get_count c ~what:"entry block" ~max:max_items in
        if len < 1 then fail (Malformed "empty trace block sequence");
        let snap_blocks =
          Array.init len (fun _ -> get_gid c ~n_blocks ~what:"trace block")
        in
        let snap_prob = get_float c in
        if not (snap_prob >= 0.0 && snap_prob <= 1.0) then
          fail (Malformed "completion probability out of [0, 1]");
        let snap_heat = get_int c in
        if snap_heat < 0 then fail (Malformed "negative heat");
        { Trace_cache.snap_first; snap_blocks; snap_prob; snap_heat })
  in
  if c.pos <> String.length data then
    fail (Malformed "trailing bytes after the last record");
  { bcg_nodes = nodes; cache_entries = entries }

let decode ~(layout : Cfg.Layout.t) data : (snapshot, error) result =
  try
    let len = String.length data in
    if len < header_len then fail (Truncated { expected = header_len; got = len });
    if String.sub data 0 8 <> magic then fail Bad_magic;
    let version = Int32.to_int (String.get_int32_le data 8) in
    if version <> snapshot_version then
      fail (Version_mismatch { got = version; expected = snapshot_version });
    let stamp = String.sub data 12 16 in
    let expected_stamp = Cfg.Layout.fingerprint layout in
    if stamp <> expected_stamp then
      fail
        (Layout_mismatch
           {
             got = Digest.to_hex stamp;
             expected = Digest.to_hex expected_stamp;
           });
    let payload_len = Int64.to_int (String.get_int64_le data 28) in
    if payload_len < 0 then fail (Malformed "negative payload length");
    if len < header_len + payload_len then
      fail (Truncated { expected = header_len + payload_len; got = len });
    if len > header_len + payload_len then
      fail (Malformed "trailing bytes after the payload");
    let checksum = String.sub data 36 16 in
    let payload = String.sub data header_len payload_len in
    if Digest.string payload <> checksum then fail Checksum_mismatch;
    Ok (decode_payload ~layout payload)
  with Fail e -> Error e
