module Graph = Netgraph.Graph

let version = 2
let tag_manifest = 4
let tag_shard = 5
let magic = Snapshot.magic

let m_packed = Obs.Metrics.counter "store.shard.packed_bytes"
let m_read = Obs.Metrics.counter "store.shard.bytes_read"

let corrupt fmt = Format.kasprintf (fun s -> raise (Codec.Corrupt s)) fmt
let fail fmt = Format.kasprintf invalid_arg fmt

(* Entry [k] of a graph row (see {!Graph.get32}). *)
let[@inline] at r k = Int32.to_int (Graph.get32 r (k lsl 2))

(* ------------------------------------------------------------------ *)
(* Partition plan *)

let plan ~n ~shards =
  if shards < 1 then fail "Shard.plan: shard count %d must be positive" shards;
  if n < 0 then fail "Shard.plan: negative node count %d" n;
  let s = Int.min shards (Int.max 1 n) in
  Array.init s (fun k -> (k * n / s, (k + 1) * n / s))

(* ------------------------------------------------------------------ *)
(* Halo: the node set at distance <= halo from the interior range,
   collected level by level so the depth never needs to fit a byte, and
   read back in ascending id order by scanning the visited map — the
   sortedness every translation table below relies on. *)

let halo_members g ~lo ~hi ~halo =
  let n = Graph.n g in
  let off = Graph.row_offsets g and nbr = Graph.row_neighbors g in
  let visited = Bytes.make n '\000' in
  let count = ref 0 in
  let frontier = ref [] in
  for v = lo to hi - 1 do
    Bytes.set visited v '\001';
    incr count;
    frontier := v :: !frontier
  done;
  for _ = 1 to halo do
    let next = ref [] in
    List.iter
      (fun v ->
        for k = at off v to at off (v + 1) - 1 do
          let u = at nbr k in
          if Bytes.get visited u = '\000' then begin
            Bytes.set visited u '\001';
            incr count;
            next := u :: !next
          end
        done)
      !frontier;
    frontier := !next
  done;
  let ids = Array.make !count 0 in
  let w = ref 0 in
  for v = 0 to n - 1 do
    if Bytes.get visited v = '\001' then begin
      ids.(!w) <- v;
      incr w
    end
  done;
  ids

(* ------------------------------------------------------------------ *)
(* Shard body payload *)

let delta_encode w ids =
  Array.iteri
    (fun i v -> if i = 0 then Codec.varint w v else Codec.varint w (v - ids.(i - 1)))
    ids

(* Each stored id costs at least one byte, so a count beyond the bytes
   left is a lie: rejected before anything is allocated for it. *)
let ids_fit (count : int) ~bytes = count <= bytes

(* A shard's local ids, node or edge, as one interior run plus a halo
   table.  Local order is global order, so the run [[lo, hi)] of global
   ids sits at local ids [[lo + shift, hi + shift)], and [halo] holds the
   global ids of the local ids below the run and then of those above it:
   the whole table less the run, still sorted. *)
module Idmap = struct
  type t = { lo : int; hi : int; shift : int; halo : int array }

  let identity count = { lo = 0; hi = count; shift = 0; halo = [||] }
  let length m = Array.length m.halo + (m.hi - m.lo)

  let global m x =
    let v = x - m.shift in
    if v < m.lo then m.halo.(x) else if v < m.hi then v else m.halo.(x - (m.hi - m.lo))

  let local m v =
    if v >= m.lo && v < m.hi then v + m.shift
    else begin
      let lo = ref 0 and hi = ref (Array.length m.halo) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if m.halo.(mid) < v then lo := mid + 1 else hi := mid
      done;
      if !lo = Array.length m.halo || m.halo.(!lo) <> v then -1
      else if v < m.lo then !lo
      else !lo + (m.hi - m.lo)
    end

  let to_array m =
    let out = Array.make (length m) 0 and below = m.lo + m.shift and run = m.hi - m.lo in
    Array.blit m.halo 0 out 0 below;
    for x = below to below + run - 1 do
      out.(x) <- x - m.shift
    done;
    Array.blit m.halo below out (below + run) (Array.length m.halo - below);
    out
end

(* Decodes a delta-coded table of [count] ids (first absolute, then
   strictly positive gaps) into an id map, without building the table:
   [in_run i id] says whether entry [i] lies in the interior run, and
   the other entries fill a halo table of [count - run] slots (entries
   past a full table, which only a frame that fails a later check has,
   are dropped).  Also returns the table's last id and whether the
   run's ids are consecutive.  The diagnostics are the whole table's,
   raised at the same entry. *)
let stream_ids r count ~what ~run ~in_run =
  if not (ids_fit count ~bytes:(Codec.remaining r)) then
    corrupt "%s: %d id(s) cannot fit the %d byte(s) left" what count
      (Codec.remaining r);
  let halo = Array.make (Int.max 0 (count - run)) 0 in
  let held = ref 0 and run_at = ref (-1) and first = ref 0 and length = ref 0 in
  let consecutive = ref true and prev = ref 0 in
  for i = 0 to count - 1 do
    let d = Codec.read_varint r in
    let id =
      if i = 0 then begin
        if d < 0 then corrupt "%s: first id %d below 0" what d;
        d
      end
      else begin
        if d <= 0 then corrupt "%s: non-increasing id at position %d" what i;
        !prev + d
      end
    in
    if in_run i id then begin
      if !length = 0 then begin
        run_at := i;
        first := id
      end
      else if d <> 1 then consecutive := false;
      incr length
    end
    else begin
      if !held < Array.length halo then halo.(!held) <- id;
      incr held
    end;
    prev := id
  done;
  (* An empty run sits after every halo id. *)
  let run_at = if !run_at < 0 then !held else !run_at in
  ({ Idmap.lo = !first; hi = !first + !length; shift = run_at - !first; halo }, !prev, !consecutive)

(* Fused subgraph serializer: the bytes [Snapshot.graph_payload
   (Graph.induced_sorted g ids)] would produce, plus the global edge-id
   table, in two passes over [g]'s rows — no local [Graph.t] is
   materialized (its rows would be garbage the moment they were
   encoded; the packer runs once per shard per pack, and this is its
   hot path).  Monotone numbering keeps filtered rows sorted and makes
   local lexicographic edge order coincide with increasing global edge
   id, so [edge_ids] comes out strictly increasing and the global id of
   the edge to a row's neighbor is the row's incident edge at the same
   position — the equivalence with the reference [induced_sorted] path
   is property-tested byte-for-byte. *)
let sub_graph_encode g ids =
  let local_n = Array.length ids in
  let off = Graph.row_offsets g and nbr = Graph.row_neighbors g in
  let inc = Graph.row_edges g in
  let base = if local_n = 0 then 0 else ids.(0) in
  let span = if local_n = 0 then 0 else ids.(local_n - 1) - base + 1 in
  let rank = Array.make span (-1) in
  Array.iteri (fun i v -> rank.(v - base) <- i) ids;
  let local u = if u < base || u - base >= span then -1 else rank.(u - base) in
  let degrees = Array.make local_n 0 in
  let twice_m = ref 0 in
  for i = 0 to local_n - 1 do
    let v = ids.(i) in
    let d = ref 0 in
    for k = at off v to at off (v + 1) - 1 do
      if local (at nbr k) >= 0 then incr d
    done;
    degrees.(i) <- !d;
    twice_m := !twice_m + !d
  done;
  let local_m = !twice_m / 2 in
  let w = Codec.writer ~capacity:(16 + (4 * local_n)) () in
  Codec.varint w local_n;
  Codec.varint w local_m;
  Array.iter (fun d -> Codec.varint w d) degrees;
  let edge_ids = Array.make local_m 0 in
  let next = ref 0 in
  for i = 0 to local_n - 1 do
    let v = ids.(i) in
    let prev = ref 0 in
    let first = ref true in
    for k = at off v to at off (v + 1) - 1 do
      let j = local (at nbr k) in
      if j >= 0 then begin
        if !first then begin
          Codec.varint w j;
          first := false
        end
        else Codec.varint w (j - !prev);
        prev := j;
        if j > i then begin
          edge_ids.(!next) <- at inc k;
          incr next
        end
      end
    done
  done;
  (Codec.contents w, edge_ids, local_m)

(* One shard's frame payload, with the local counts its manifest row
   records. *)
let shard_payload (snapshot : Snapshot.t) ~halo ~index ~lo ~hi =
  let g = snapshot.Snapshot.graph in
  let ids = halo_members g ~lo ~hi ~halo in
  let local_n = Array.length ids in
  let graph_str, edge_ids, local_m = sub_graph_encode g ids in
  let w = Codec.writer ~capacity:(64 + (4 * local_n)) () in
  Codec.varint w index;
  Codec.varint w lo;
  Codec.varint w hi;
  Codec.varint w local_n;
  Codec.varint w local_m;
  delta_encode w ids;
  Codec.str w graph_str;
  delta_encode w edge_ids;
  Codec.varint w (List.length snapshot.Snapshot.advice);
  List.iter
    (fun (name, a) ->
      let slice = Array.map (fun gid -> a.(gid)) ids in
      Codec.str w (Snapshot.advice_payload local_n (name, slice)))
    snapshot.Snapshot.advice;
  (Codec.contents w, local_n, local_m)

let frame_bytes payload = 1 + 4 + String.length payload + 4

let build ?domains ~shards ~halo (snapshot : Snapshot.t) =
  if halo < 1 then
    fail "Shard.build: halo %d must be at least 1 (Edge_member locality)" halo;
  Snapshot.validate snapshot;
  let g = snapshot.Snapshot.graph in
  let n = Graph.n g in
  let ranges = plan ~n ~shards in
  let s = Array.length ranges in
  let parts =
    Localmodel.Pool.run ?domains
      (fun k ->
        let lo, hi = ranges.(k) in
        shard_payload snapshot ~halo ~index:k ~lo ~hi)
      (Array.init s Fun.id)
  in
  let manifest = Codec.writer ~capacity:(64 + (32 * s)) () in
  Codec.varint manifest n;
  Codec.varint manifest (Graph.m g);
  Codec.varint manifest halo;
  Codec.varint manifest s;
  Codec.varint manifest (List.length snapshot.Snapshot.advice);
  List.iter (fun (name, _) -> Codec.str manifest name) snapshot.Snapshot.advice;
  Codec.varint manifest (List.length snapshot.Snapshot.meta);
  List.iter
    (fun (k, v) ->
      Codec.str manifest k;
      Codec.str manifest v)
    snapshot.Snapshot.meta;
  (* One checksum pass per shard: the manifest copy and the frame
     trailer share it (Codec.section's [?crc]). *)
  let crcs = Array.map (fun (p, _, _) -> Crc32.of_string p) parts in
  let rel = ref 0 in
  Array.iteri
    (fun i (payload, local_n, local_m) ->
      let lo, hi = ranges.(i) in
      Codec.varint manifest lo;
      Codec.varint manifest hi;
      Codec.varint manifest local_n;
      Codec.varint manifest local_m;
      Codec.varint manifest !rel;
      Codec.varint manifest (frame_bytes payload);
      Codec.u32 manifest crcs.(i);
      rel := !rel + frame_bytes payload)
    parts;
  let w = Codec.writer ~capacity:(1024 + !rel) () in
  Codec.raw w magic;
  Codec.u16 w version;
  Codec.varint w (1 + s);
  Codec.section w ~tag:tag_manifest (Codec.contents manifest);
  Array.iteri
    (fun i (payload, _, _) -> Codec.section w ~tag:tag_shard ~crc:crcs.(i) payload)
    parts;
  let out = Codec.contents w in
  Obs.Metrics.add m_packed (String.length out);
  out

(* ------------------------------------------------------------------ *)
(* Reading *)

type info = {
  i_index : int;
  i_lo : int;
  i_hi : int;
  i_local_n : int;
  i_local_m : int;
  i_offset : int;
  i_bytes : int;
  i_crc : int;
}

type manifest = {
  m_n : int;
  m_m : int;
  m_halo : int;
  m_advice : string list;
  m_meta : (string * string) list;
  m_shards : info array;
  m_header_bytes : int;
}

type loaded = {
  l_index : int;
  l_lo : int;
  l_hi : int;
  l_graph : Graph.t;
  l_ids : int array;
  l_edge_ids : int array;
  l_advice : (string * Advice.Assignment.t) list;
}

type part = {
  p_graph : Graph.t;
  p_nodes : Idmap.t;
  p_edges : Idmap.t;
  p_advice : (string * Advice.Assignment.t) list;
}

(* Where shard bodies come from: a v2 file's frames, fetched on demand,
   or a v1 file's one shard, parsed at open (the raw bytes are not
   kept). *)
type body = Frames of (pos:int -> len:int -> string) | Parsed of part

(* [path]: the file a container was opened from, which {!revision}
   stats; [None] for bytes held in memory. *)
type t = { body : body; man : manifest; path : string option }

let parse_version prefix ~what =
  if String.length prefix < String.length magic + 2 then
    corrupt "%s: %d byte(s) is too short for a snapshot prefix" what
      (String.length prefix);
  let r = Codec.reader prefix in
  let m = Codec.read_raw r (String.length magic) in
  if m <> magic then corrupt "%s: bad magic %S (expected %S)" what m magic;
  Codec.read_u16 r

let peek_version path =
  parse_version (Io.read_range path ~pos:0 ~len:(String.length magic + 2)) ~what:path

(* Manifest payload parser: [header_bytes] is where shard frames start,
   [size] bounds every recorded byte range.  Every count is bounded by
   the bytes left before anything is allocated for it: a shard row
   spends at least 10 bytes (six varints and a u32), an advice name at
   least 1, a metadata entry at least 2. *)
let parse_manifest ~header_bytes ~size payload =
  let r = Codec.reader payload in
  let bound what count ~per =
    if count > Codec.remaining r / per then
      corrupt "manifest: %d %s cannot fit the %d byte(s) left" count what
        (Codec.remaining r)
  in
  let n = Codec.read_varint r in
  let m = Codec.read_varint r in
  let halo = Codec.read_varint r in
  let s = Codec.read_varint r in
  if s < 1 then corrupt "manifest: shard count %d is not positive" s;
  bound "shard row(s)" s ~per:10;
  let advice_count = Codec.read_varint r in
  bound "advice name(s)" advice_count ~per:1;
  let advice = List.init advice_count (fun _ -> Codec.read_str r) in
  let meta_count = Codec.read_varint r in
  bound "metadata entries" meta_count ~per:2;
  let meta =
    List.init meta_count (fun _ ->
        let k = Codec.read_str r in
        let v = Codec.read_str r in
        (k, v))
  in
  let shards =
    Array.init s (fun i ->
        let lo = Codec.read_varint r in
        let hi = Codec.read_varint r in
        let local_n = Codec.read_varint r in
        let local_m = Codec.read_varint r in
        let rel = Codec.read_varint r in
        let bytes = Codec.read_varint r in
        let crc = Codec.read_u32 r in
        let offset = header_bytes + rel in
        if lo > hi || hi > n then
          corrupt "manifest: shard %d interior [%d, %d) escapes 0..%d" i lo hi n;
        if offset + bytes > size then
          corrupt
            "manifest: shard %d frame [%d, +%d) runs past the %d-byte file" i
            offset bytes size;
        {
          i_index = i;
          i_lo = lo;
          i_hi = hi;
          i_local_n = local_n;
          i_local_m = local_m;
          i_offset = offset;
          i_bytes = bytes;
          i_crc = crc;
        })
  in
  Codec.expect_end r ~what:"shard manifest";
  Array.iteri
    (fun i info ->
      if i > 0 && info.i_lo <> shards.(i - 1).i_hi then
        corrupt "manifest: shard %d interior starts at %d, shard %d ended at %d"
          i info.i_lo (i - 1)
          shards.(i - 1).i_hi)
    shards;
  if shards.(0).i_lo <> 0 then
    corrupt "manifest: first shard interior starts at %d, not 0" shards.(0).i_lo;
  if shards.(s - 1).i_hi <> n then
    corrupt "manifest: last shard interior ends at %d, not n=%d"
      shards.(s - 1).i_hi n;
  {
    m_n = n;
    m_m = m;
    m_halo = halo;
    m_advice = advice;
    m_meta = meta;
    m_shards = shards;
    m_header_bytes = header_bytes;
  }

(* A parsed snapshot as a one-shard container: its shard is the whole
   graph (no halo, identity id maps) and its "frame" [bytes]. *)
let one_shard ~bytes (s : Snapshot.t) =
  let n = Graph.n s.Snapshot.graph and m = Graph.m s.Snapshot.graph in
  let part =
    { p_graph = s.Snapshot.graph; p_nodes = Idmap.identity n; p_edges = Idmap.identity m;
      p_advice = s.Snapshot.advice }
  in
  let row =
    { i_index = 0; i_lo = 0; i_hi = n; i_local_n = n; i_local_m = m;
      i_offset = 0; i_bytes = bytes; i_crc = 0 }
  in
  { path = None;
    body = Parsed part;
    man = { m_n = n; m_m = m; m_halo = 0; m_meta = s.Snapshot.meta;
            m_advice = List.map fst s.Snapshot.advice; m_shards = [| row |];
            m_header_bytes = 0 } }

(* Never serialized: the row counts the 9 bytes of an empty frame, so it
   keeps the positive frame size every manifest row has. *)
let of_snapshot s = one_shard ~bytes:(frame_bytes "") s

(* A v1 file is one shard whose frame is the whole file.  Its section
   checksums detect damage but cannot localize it below the one shard,
   so a file that fails the strict read is refused, as a damaged
   manifest is. *)
let open_v1 ~size raw = one_shard ~bytes:size (Snapshot.read raw)

(* A v2 file: locate the manifest frame after the 6-byte prefix, verify
   its checksum and parse it; shard frames stay behind [fetch]. *)
let open_v2 ~size fetch prefix =
  let r = Codec.reader ~pos:(String.length magic + 2) prefix in
  let declared = Codec.read_varint r in
  let tag = Codec.read_u8 r in
  if tag <> tag_manifest then
    corrupt "first section has tag %d (expected manifest tag %d)" tag
      tag_manifest;
  let len = Codec.read_u32 r in
  let body_pos = Codec.pos r in
  let body = fetch ~pos:body_pos ~len:(len + 4) in
  if String.length body < len + 4 then
    corrupt "manifest frame truncated: %d of %d byte(s) present"
      (String.length body) (len + 4);
  let payload = String.sub body 0 len in
  let stored =
    let r = Codec.reader ~pos:len body in
    Codec.read_u32 r
  in
  if stored <> Crc32.of_string payload then
    corrupt "manifest checksum mismatch (stored %08x, computed %08x)" stored
      (Crc32.of_string payload);
  let man = parse_manifest ~header_bytes:(body_pos + len + 4) ~size payload in
  if declared <> 1 + Array.length man.m_shards then
    corrupt "section count %d does not match 1 manifest + %d shard(s)" declared
      (Array.length man.m_shards);
  { body = Frames fetch; man; path = None }

let open_fetch ~size fetch =
  (* The prefix up to the manifest frame's length field is at most
     magic + version + a varint section count + tag + u32: 21 bytes. *)
  let prefix = fetch ~pos:0 ~len:(Int.min size 32) in
  let v = parse_version prefix ~what:"snapshot" in
  if v = Snapshot.version then open_v1 ~size (fetch ~pos:0 ~len:size)
  else if v = version then open_v2 ~size fetch prefix
  else
    corrupt "unsupported container version %d (this build reads %d and %d)" v
      Snapshot.version version

let open_file path =
  let size = Io.file_size path in
  { (open_fetch ~size (fun ~pos ~len -> Io.read_range path ~pos ~len)) with
    path = Some path }

let open_bytes s =
  let size = String.length s in
  open_fetch ~size (fun ~pos ~len ->
      let len = Int.min len (Int.max 0 (size - pos)) in
      String.sub s (Int.min pos size) len)

let manifest t = t.man

(* What a later read of the container would see, as cheaply as one
   [Unix.stat]: a file's device, inode, size and mtime.  A file rewritten
   in place changes its mtime; one replaced by a rename (as
   {!Io.write_file} publishes) changes its inode.  Bytes held in memory
   never change, and a file that cannot be stat'ed matches nothing, so
   a reader retries it. *)
type revision =
  | Fixed
  | File of { dev : int; ino : int; size : int; mtime : float }
  | Unknown

let revision t =
  match t.path with
  | None -> Fixed
  | Some path -> (
      match Unix.stat path with
      | st ->
          File
            { dev = st.Unix.st_dev; ino = st.Unix.st_ino; size = st.Unix.st_size;
              mtime = st.Unix.st_mtime }
      | exception Unix.Unix_error _ -> Unknown)

let same_revision a b =
  match (a, b) with
  | Fixed, Fixed -> true
  | File a, File b ->
      a.dev = b.dev && a.ino = b.ino && a.size = b.size && Float.equal a.mtime b.mtime
  | (Fixed | File _ | Unknown), _ -> false

(* [stream_ids]'s bound, read off the manifest: a body spends at least
   a byte per stored node id and per edge id, so its payload (the frame
   less tag, length and checksum) must hold [local_n + local_m] bytes.
   A v1 file's one row describes the sections it parsed, not a body. *)
let check_rows t =
  match t.body with
  | Parsed _ -> ()
  | Frames _ ->
      Array.iter
        (fun i ->
          let room = i.i_bytes - frame_bytes "" in
          if not
               (ids_fit i.i_local_n ~bytes:room
               && ids_fit i.i_local_m ~bytes:(room - i.i_local_n))
          then
            corrupt
              "manifest: shard %d claims %d local node(s) and %d local \
               edge(s), more ids than its %d-byte body can hold"
              i.i_index i.i_local_n i.i_local_m (Int.max room 0))
        t.man.m_shards

let shard_of_node man v =
  if v < 0 || v >= man.m_n then
    fail "Shard.shard_of_node: node %d outside 0..%d" v (man.m_n - 1);
  let lo = ref 0 and hi = ref (Array.length man.m_shards - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if man.m_shards.(mid).i_lo <= v then lo := mid else hi := mid - 1
  done;
  !lo

let load_frame t fetch k =
  let info = t.man.m_shards.(k) in
  let frame = fetch ~pos:info.i_offset ~len:info.i_bytes in
  Obs.Metrics.add m_read (String.length frame);
  if String.length frame < info.i_bytes then
    corrupt "shard %d frame truncated: %d of %d byte(s) present" k
      (String.length frame) info.i_bytes;
  let r = Codec.reader frame in
  let tag = Codec.read_u8 r in
  if tag <> tag_shard then
    corrupt "shard %d frame has tag %d (expected %d)" k tag tag_shard;
  let len = Codec.read_u32 r in
  if len + 9 <> info.i_bytes then
    corrupt "shard %d frame length %d disagrees with the manifest's %d" k
      (len + 9) info.i_bytes;
  (* The body is checked and decoded where it lies in [frame]: its
     graph and advice strings are windows, not copies. *)
  let body = Codec.sub r len in
  let stored = Codec.read_u32 r in
  let computed = Crc32.of_substring frame ~pos:(Codec.source_pos body) ~len in
  if stored <> computed || stored <> info.i_crc then
    corrupt "shard %d checksum mismatch (frame %08x, manifest %08x, computed %08x)"
      k stored info.i_crc computed;
  let r = body in
  let index = Codec.read_varint r in
  let lo = Codec.read_varint r in
  let hi = Codec.read_varint r in
  let local_n = Codec.read_varint r in
  let local_m = Codec.read_varint r in
  if index <> k || lo <> info.i_lo || hi <> info.i_hi
     || local_n <> info.i_local_n || local_m <> info.i_local_m
  then
    corrupt "shard %d body header disagrees with its manifest row" k;
  let nodes, last, _ =
    stream_ids r local_n ~what:"shard node ids" ~run:(hi - lo) ~in_run:(fun _ v ->
        v >= lo && v < hi)
  in
  if local_n > 0 && last >= t.man.m_n then
    corrupt "shard %d lists node %d >= n=%d" k last t.man.m_n;
  if nodes.Idmap.hi - nodes.Idmap.lo <> hi - lo then
    corrupt "shard %d stores %d of its %d interior node(s)" k
      (nodes.Idmap.hi - nodes.Idmap.lo) (hi - lo);
  let graph = Snapshot.read_graph (Codec.sub_str r) in
  if Graph.n graph <> local_n || Graph.m graph <> local_m then
    corrupt "shard %d local graph is %d/%d, header says %d/%d" k (Graph.n graph)
      (Graph.m graph) local_n local_m;
  (* Edge ids are lexicographic in their endpoints, so the edges whose
     lower endpoint is interior, the local nodes [[a, b)], are one run
     of local ids, [[e_a, e_b)], and of global ids: every edge of an
     interior node is stored.  Only the halo nodes' rows are read. *)
  let a = nodes.Idmap.lo + nodes.Idmap.shift and b = nodes.Idmap.hi + nodes.Idmap.shift in
  let off = Graph.row_offsets graph and nbr = Graph.row_neighbors graph in
  let upper x =
    let c = ref 0 in
    for j = at off x to at off (x + 1) - 1 do
      if at nbr j > x then incr c
    done;
    !c
  in
  let below = ref 0 and above = ref 0 in
  for x = 0 to a - 1 do
    below := !below + upper x
  done;
  for x = b to local_n - 1 do
    above := !above + upper x
  done;
  let e_a = !below and e_b = local_m - !above in
  let edges, last, consecutive =
    stream_ids r local_m ~what:"shard edge ids" ~run:(e_b - e_a) ~in_run:(fun i _ ->
        i >= e_a && i < e_b)
  in
  if local_m > 0 && last >= t.man.m_m then
    corrupt "shard %d lists edge %d >= m=%d" k last t.man.m_m;
  if not consecutive then
    corrupt "shard %d interior edges are not one run of global ids (%d id(s) from %d)"
      k (e_b - e_a) edges.Idmap.lo;
  let advice_count = Codec.read_varint r in
  let advice =
    List.init advice_count (fun _ ->
        Snapshot.read_advice ~n:local_n (Codec.sub_str r))
  in
  Codec.expect_end r ~what:(Printf.sprintf "shard %d body" k);
  { p_graph = graph; p_nodes = nodes; p_edges = edges; p_advice = advice }

let load_part t k =
  let s = Array.length t.man.m_shards in
  if k < 0 || k >= s then fail "Shard.load: shard %d outside 0..%d" k (s - 1);
  match t.body with Frames fetch -> load_frame t fetch k | Parsed p -> p

(* The expanded tables, from the same decode; a v1 file's one shard
   keeps them empty, its translation being the identity. *)
let load t k =
  let p = load_part t k in
  let info = t.man.m_shards.(k) in
  let expand m = match t.body with Frames _ -> Idmap.to_array m | Parsed _ -> [||] in
  {
    l_index = k;
    l_lo = info.i_lo;
    l_hi = info.i_hi;
    l_graph = p.p_graph;
    l_ids = expand p.p_nodes;
    l_edge_ids = expand p.p_edges;
    l_advice = p.p_advice;
  }
