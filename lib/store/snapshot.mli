(** Versioned binary snapshots: one graph, named bit-packed advice
    assignments, and schema metadata.

    Wire layout (all integers little-endian, varints LEB128; see
    {!Codec}):

    {v
    magic "LADV"  version:u16  section-count:varint
    section*      where section = tag:u8 length:u32 payload crc32:u32
    v}

    Sections appear in a fixed order — one graph section (tag 1), one
    advice section (tag 2) per named assignment in list order, one
    metadata section (tag 3) — and the payloads are:

    - {b graph}: [n:varint m:varint] then each node's degree as a varint,
      then each node's sorted neighbor list delta-encoded (first neighbor
      absolute, then strictly positive gaps), all varints.
    - {b advice}: [name:str n:varint] then each node's advice bit length
      as a varint, then the concatenation of all nodes' bits packed
      LSB-first ({!Advice.Bits.pack}) — a node's C4 advice occupies
      ⌈d/2⌉+1 bits on the wire, not bytes.
    - {b metadata}: [count:varint] then [key:str value:str] pairs.

    Writing is canonical: graphs store their (already sorted) neighbor
    arrays and packing pads with zero bits, so [write (read s) = s] for
    every valid snapshot — re-packing is byte-identical.  Readers verify
    the magic, version, every section checksum and every internal length,
    raising {!Codec.Corrupt} with an offset-bearing diagnostic otherwise.

    Version policy: the version field is bumped on any incompatible
    layout change; readers reject versions they do not know rather than
    guessing.  Unknown section tags are likewise rejected (the format has
    no skippable optional sections yet, so a stray tag means corruption).

    Obs: writing adds to the [store.bytes_written] counter, reading to
    [store.bytes_read]. *)

(** One snapshot: the graph, its named advice assignments, and free-form
    schema metadata. *)
type t = {
  graph : Netgraph.Graph.t;
  advice : (string * Advice.Assignment.t) list;
      (** Named assignments, e.g. [("c4", a)]; order is preserved. *)
  meta : (string * string) list;
      (** Schema metadata (schema name, parameters, certified serve
          radius...); order is preserved. *)
}

val magic : string
(** The 4-byte file magic ["LADV"], shared with the version-2 sharded
    container ({!Shard}). *)

val version : int
(** The format version this build writes and the only one this module
    reads.  Version 2 is the sharded container: {!read} rejects it with
    a diagnostic pointing at {!Shard}. *)

val tag_graph : int
(** Tag byte of the graph section (exposed for tooling and tests). *)

val tag_advice : int
(** Tag byte of advice sections. *)

val tag_meta : int
(** Tag byte of the metadata section. *)

val validate : t -> unit
(** The one check both writers ({!write} and {!Shard.build}) run before
    they encode anything.  @raise Invalid_argument when an assignment's
    length differs from the graph's node count or contains non-bit
    characters, or when an advice name or metadata key contains a NUL
    byte. *)

val write : t -> string
(** Serialize.  @raise Invalid_argument as {!validate}. *)

val read : string -> t
(** Parse and verify a snapshot.  @raise Codec.Corrupt on any malformed
    input: bad magic, unknown version, checksum mismatch, truncation,
    a graph section {!read_graph} rejects, or trailing bytes. *)

val sections : string -> Codec.section_info list
(** Frame-level description of a snapshot's sections (tag, offset,
    payload length, verified checksum) without decoding the payloads —
    the basis of [advice_store inspect].  @raise Codec.Corrupt on a
    malformed frame. *)

val advice_payload_bits : t -> name:string -> int
(** Total packed advice bits the named assignment occupies on the wire
    (the sum of per-node bit lengths, excluding varint framing).
    @raise Not_found when no section has that name. *)

(** {1 Section payload codecs}

    The raw per-section encoders/decoders, exposed so the version-2
    sharded container ({!Shard}) stores shard-local graphs and advice
    slices in {e exactly} the version-1 payload encodings — one codec,
    two framings. *)

val graph_payload : Netgraph.Graph.t -> string
(** The graph section payload: [n m degrees neighbor-deltas], all
    varints (see the module docs). *)

val read_graph : Codec.reader -> Netgraph.Graph.t
(** Parse a graph section payload, read from a reader that spans exactly
    the payload — a {!Codec.sub} window of a fetched file or shard body,
    decoded where it lies — in O(n + m): the degrees become the graph's
    row offsets, each node's delta list decodes straight into its row,
    and {!Netgraph.Graph.of_rows} checks the rows and numbers the edges
    — three flat rows of 32-bit entries, no edge list, hash table or
    sort.  It checks that [n] and the degree sum fit in the bytes left
    (each costs at least one byte) and below the rows' cap
    {!Netgraph.Graph.max_count} before allocating, that the degrees sum
    to [2m], that
    no bytes trail, and that every neighbor list is strictly
    increasing, in range and loop-free and the adjacency symmetric.
    @raise Codec.Corrupt ["graph section: …"] on any violation. *)

val advice_payload : int -> string * Advice.Assignment.t -> string
(** [advice_payload n (name, a)] is the advice section payload for an
    [n]-node graph.  It trusts its input, as the writers do once
    {!validate} has passed: [a] has [n] entries and [name] no NUL
    byte. *)

val read_advice : n:int -> Codec.reader -> string * Advice.Assignment.t
(** Parse an advice section payload for an [n]-node graph, from a reader
    that spans exactly the payload.  Each node's bits are read where
    they lie in the packed bytes; a string of at most 8 bits is the
    shared copy ({!Advice.Bits.unpack_at}).
    @raise Codec.Corrupt on malformed input or a node-count mismatch. *)
