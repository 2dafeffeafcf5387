(** Snapshot containers, read one shard at a time: the serve stack's
    only reader, for both file versions.

    A version-1 {!Snapshot} is one monolithic file — reading any byte of
    it decodes all of it.  The paper's locality result says that is
    wasteful: a node's answer depends only on its radius-r ball plus its
    own advice bits, so the graph can be cut into [S] contiguous
    node-range shards, each stored with a {e halo} of depth
    [max (serve_radius, 1)] around its interior, and every interior ball
    then decodes shard-locally — no cross-shard hop, ever.  Version 2 is
    that layout: a self-describing manifest up front, followed by one
    independently framed, independently checksummed body per shard, so a
    reader can open a million-node snapshot by fetching a few hundred
    manifest bytes and then page shards in and out on demand
    ({!Io.read_range} underneath — the file is never materialized).  A
    version-1 file is the degenerate case, and {!open_file} presents it
    as one: a one-shard container whose shard is the whole graph.

    Wire layout (all integers little-endian, varints LEB128; framing and
    payload encodings are shared with {!Snapshot} — one codec, two
    containers):

    {v
    magic "LADV"  version:u16 = 2  section-count:varint = 1 + S
    manifest section   (tag 4)     framed tag:u8 len:u32 payload crc32:u32
    shard section * S  (tag 5)     framed the same way
    v}

    Manifest payload:

    {v
    n:varint m:varint halo:varint shard-count:varint
    advice-count:varint  name:str *
    meta-count:varint    (key:str value:str) *
    per shard:  lo:varint hi:varint local-n:varint local-m:varint
                rel-offset:varint frame-bytes:varint crc32:u32
    v}

    [rel-offset] is relative to the first byte after the manifest frame
    (storing absolute offsets would make the manifest's own length
    circular); [frame-bytes] spans the shard's whole frame including tag,
    length and checksum, and the manifest's copy of each shard checksum
    lets [inspect] report per-shard integrity without touching a single
    body byte.

    Shard payload (tag 5):

    {v
    index:varint lo:varint hi:varint local-n:varint local-m:varint
    ids:       local-n varints, delta-encoded (first absolute, then
               strictly positive gaps) — sorted global ids of the
               shard's nodes (interior plus halo)
    graph:     str — a {!Snapshot.graph_payload} of the induced local
               subgraph, nodes in [ids] order
    edge-ids:  local-m varints, delta-encoded — the global edge id of
               each local edge, in local edge-id order (monotone:
               local node order is monotone in global order, and both
               edge-id spaces are lexicographic in their endpoints)
    advice-count:varint  ({!Snapshot.advice_payload} of the local
               slice, as a str) *
    v}

    {b Halo invariant.}  A shard stores the subgraph induced by the
    nodes within distance [halo] of its interior range.  For
    [halo >= r], every path of
    length at most [r] from an interior node stays inside the stored
    node set, so the radius-[r] ball of an interior node in the local
    graph is {e identical} to its ball in the global graph; [halo >= 1]
    additionally keeps every interior node's full incident edge list
    local (the C4 [Edge_member] queries).  {!build} therefore requires
    [halo >= 1], and serving at radius [r] from more than one shard
    requires a container built with [halo >= max r 1].  A shard that
    stores all [n] nodes and [m] edges — every one-shard container —
    serves any radius, and its id tables are the identity.

    Obs: [store.shard.packed_bytes] on {!build},
    [store.shard.bytes_read] on {!load}. *)

(** {1 Writing} *)

val version : int
(** The container version {!build} writes (2); {!open_file} also reads
    version 1. *)

val plan : n:int -> shards:int -> (int * int) array
(** [plan ~n ~shards] is the contiguous interior partition
    [[| (0, n/S); ...; ((S-1)*n/S, n) |]] (after clamping [shards] to
    [1..max 1 n]) — also the cut {!Serve.Router} uses for the node-range
    slots within each shard.
    @raise Invalid_argument when [shards < 1] or [n < 0]. *)

val build :
  ?domains:int ->
  shards:int ->
  halo:int ->
  Snapshot.t ->
  string
(** [build ~shards ~halo snapshot] serializes the snapshot as a
    version-2 container with [shards] interior ranges ({!plan}) and a
    halo of depth [halo] around each.  Each shard's body (halo BFS,
    induced subgraph, advice slicing, payload encoding) is one
    {!Localmodel.Pool} task on [domains] (the pool's default when
    omitted); the bytes do not depend on the count.
    @raise Invalid_argument when [shards < 1], [halo < 1], or the
    snapshot fails {!Snapshot.validate}, before anything is encoded. *)

(** {1 Reading} *)

type info = {
  i_index : int;  (** shard position, [0..S-1] *)
  i_lo : int;  (** interior range start (inclusive) *)
  i_hi : int;  (** interior range end (exclusive) *)
  i_local_n : int;  (** stored nodes: interior + halo *)
  i_local_m : int;  (** stored edges *)
  i_offset : int;  (** absolute byte offset of the shard's frame *)
  i_bytes : int;  (** whole-frame length: tag + len + payload + crc *)
  i_crc : int;  (** the frame payload's checksum, as recorded *)
}
(** Manifest row for one shard — everything [inspect] and the lazy
    loader need, with no body byte read. *)

type manifest = {
  m_n : int;  (** global node count *)
  m_m : int;  (** global edge count *)
  m_halo : int;  (** halo depth every shard was built with *)
  m_advice : string list;  (** advice section names, in order *)
  m_meta : (string * string) list;  (** snapshot metadata, verbatim *)
  m_shards : info array;
  m_header_bytes : int;
      (** bytes before the first shard frame (file prefix + manifest) *)
}
(** A parsed, checksum-verified manifest: the global facts plus one
    {!info} row per shard — everything reachable without body bytes. *)

type t
(** An open container: a bounded-fetch closure plus its parsed, verified
    manifest.  Opening reads {e only} the file prefix and the manifest
    frame; shard bodies stay on disk until {!load}. *)

type loaded = {
  l_index : int;
  l_lo : int;
  l_hi : int;
  l_graph : Netgraph.Graph.t;  (** induced local subgraph, [ids] order *)
  l_ids : int array;  (** local node id -> global node id (sorted) *)
  l_edge_ids : int array;  (** local edge id -> global edge id (sorted) *)
  l_advice : (string * Advice.Assignment.t) list;
      (** advice slices, local node order: the checksum-clean sections,
          then a salvaged version-1 file's quarantined ones *)
  l_report : Snapshot.section_report list;
      (** a salvaged version-1 file's per-section report
          ({!Snapshot.read_salvage}); [[]] otherwise *)
}
(** One decoded shard.  [l_ids] and [l_edge_ids] are the translation
    tables a router needs: both are strictly increasing, so global→local
    is a binary search.  A version-1 file stores no tables: both are
    empty, and its one shard's translation is the identity. *)

val peek_version : string -> int
(** [peek_version path] reads the 6-byte file prefix ({!Io.read_range})
    and returns the container version — how [advice_store inspect]
    picks its report.  @raise Codec.Corrupt on a short file or bad
    magic; @raise Sys_error on I/O failure. *)

val open_file : string -> t
(** Open a container.  Version 2 opens lazily: fetch the prefix, locate
    the manifest frame, verify its checksum, parse it; every later
    {!load} fetches its frame with {!Io.read_range}.  A version-1 file
    is parsed whole (salvaged if the strict read fails, see {!damage})
    and its bytes are not kept: it opens as {!of_snapshot} of the
    parsed snapshot, with the file's size as its frame bytes.
    @raise Codec.Corrupt on bad magic, an unknown version, a damaged
    manifest, or a version-1 file with no intact graph;
    @raise Sys_error on I/O failure. *)

val open_bytes : string -> t
(** Same, over an in-memory container image (tests, and callers that
    already hold the bytes).  Fetches are substring reads; read faults
    do not apply. *)

val of_snapshot : Snapshot.t -> t
(** [of_snapshot s] is [s] as a one-shard container, without
    serializing it: the container a version-1 file of [s] opens as,
    except that its one row records the 9 frame bytes of an empty frame
    (there is no file to measure).  Its shard is the whole graph, so a
    {!Serve.Router} over it serves any radius — how
    {!Serve.Pack.edge_compression} certifies through the router it
    ships.  Unlike {!build} it does not run {!Snapshot.validate}: the
    caller hands in a well-formed snapshot. *)

val manifest : t -> manifest
(** The container's parsed manifest (verified at {!open_file} time).  A
    version-1 file's has one row spanning the whole file, halo 0 and
    checksum 0 (its sections carry their own), and lists quarantined
    advice after the checksum-clean sections. *)

val check_rows : t -> unit
(** Checks every manifest row of a version-2 container against its
    frame size: a body spends at least one byte per stored node id and
    per edge id (the bound {!load} applies to the ids themselves), so a
    row whose [i_local_n + i_local_m] exceeds its payload bytes cannot
    load.  {!open_file} does not run it, so that under salvage such a
    shard is lost alone, at {!load}; [advice_store inspect] runs it
    before it prints the manifest.  Nothing to check for a version-1
    file.
    @raise Codec.Corrupt naming the first impossible shard. *)

val damage : t -> string option
(** The {!Snapshot.read} diagnostic of a version-1 file that failed the
    strict read at open and was salvaged (its {!load} carries
    [l_report]); [None] otherwise — a version-2 container's damage
    surfaces per shard, at {!load}. *)

val shard_of_node : manifest -> int -> int
(** Owner shard of a global node id: the unique [k] with
    [i_lo <= v < i_hi].  @raise Invalid_argument when [v] is outside
    [0..n-1]. *)

val load : t -> int -> loaded
(** [load t k] fetches shard [k]'s byte range — and nothing else — and
    decodes it, verifying the frame checksum against both the payload
    and the manifest's recorded copy, the id tables' sortedness and
    ranges, and that the interior [\[lo, hi)] is fully present.
    A version-1 file's shard 0 is its graph and advice, parsed at open.
    @raise Invalid_argument when [k] is out of range;
    @raise Codec.Corrupt when the shard's bytes are damaged (other
    shards remain loadable — that is the point);
    @raise Sys_error on I/O failure. *)
