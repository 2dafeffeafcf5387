(** Query engine: answer per-node questions from a loaded snapshot by
    decoding only the node's radius-r ball (the paper's C4 workload).

    The engine loads a {!Store.Snapshot} once and serves three request
    kinds: [Output_label v] (the membership bits of [v]'s incident
    edges, in sorted-neighbor order), [Edge_member (v, e)] (is incident
    edge [e] in the compressed set — C4 decompression), and
    [Advice_bits v] (the raw advice string).  A ball query stamps the
    node's radius-r ball into the domain-local {!Netgraph.Workspace} with
    one BFS and decodes the label straight from the stamps with
    {!Center_decode}: it searches only the trails through the edges the
    label reads, so a miss builds no fragment, no {!Localmodel.View} and
    no orientation of the whole ball — work bounded by the ball and
    independent of the graph size.

    {b Decode once: one label column.}  A node's label is a pure
    function of its ball, so for a given snapshot it never changes: the
    engine keeps a node-indexed label column over its graph, decodes a
    node the first time a ball query names it, and answers every later
    query for that node with one array load.  The column holds the
    answer itself: for a label of at most 8 bits (every node of degree
    at most 8) the one preallocated [Label] of that string
    ({!Advice.Bits.shared}), otherwise a [Label] box of its own, so a
    hit returns what it reads and allocates nothing.  The column costs
    one word per node, plus, for labels longer than 8 bits, a box and
    the label string (one string per isomorphism class with a memo, one
    per decoded node without).  [Advice_bits] reads a second column of
    [Bits] answers, filled the same way on a node's first such query.
    The engine has no notion
    of shards or batches: {!Router} is the only multi-slot front end and
    the only batch planner.  It keeps one engine per resident shard (the
    column leaves with the shard on eviction) and cuts the shard's nodes
    into slots, so a slot is a node range of that engine's column.  Only
    a range's owner writes it: the serialized {!query} path, or the one
    pool worker that holds the slot for a batch wave.

    {b Canonical-ball memoization.}  With [?memo], a {!Memo} table sits
    {e between} the label column and the decoder.  A column miss hashes
    the stamped ball's fingerprint
    ({!Ethlink.Canonical.ball_fingerprint}: the engine's prefix — its
    radius, decoder parameters and trust mode — the ball size and every
    stamp's advice) and asks the memo's filter.  A first sighting
    records the fingerprint and decodes, with no key built.  A repeat
    sighting writes the key ({!Ethlink.Canonical.write_ball_key}: the
    prefix, then the bytes of {!Ethlink.Canonical.ball_signature},
    straight from the BFS stamps) and probes it in place; a hit is the
    answer, and a miss decodes from the same stamps and stores the
    class, so a class is stored on its second sighting and hits from
    its third.  Nodes with isomorphic balls share one decode (and one
    label string), across engines (the router passes one table to
    every shard engine) and shard evictions.  Answers are
    byte-identical to the unmemoized engine: the key captures the
    decoder's whole input, and hits are decided on the whole key.
    Publication is single-writer: the serialized {!query} path
    publishes at once, while {!staged} callers (the router's pool
    workers) only {e read} the frozen table and filter and hand their
    first sightings and stores back for the calling thread to publish
    after the join.

    The serve radius is the one certified at pack time
    ({!Pack.edge_compression} stores it in the snapshot metadata):
    answers at that radius equal the direct decoder
    ({!Schemas.Edge_compression.decode}) run on the full graph.  At an
    uncertified smaller radius answers may differ — the engine is total
    (a label shorter than the node's degree, e.g. [""] at radius 0,
    reads as '0' past its end for [Edge_member]) but only the certified
    radius carries the equivalence guarantee.

    {b Degraded mode.}  [create ~health] builds an engine from a
    {!Store.Snapshot.read_salvage} result: it serves checksum-clean
    advice sections normally and can fall back to a quarantined section
    (parsed but CRC-failed) best-effort — the decoder is total, so
    damaged advice bits give some label, never an exception.  Every
    query answered by a degraded engine bumps [serve.degraded]; queries
    served from untrusted advice additionally bump [serve.quarantined].

    Obs: [serve.queries], [serve.cache.hits] and [serve.cache.misses]
    (label-column hits and misses: one per [Output_label] or
    [Edge_member] query), [serve.degraded] and [serve.quarantined]
    counters and the [serve.ball_size] histogram (one sample per decoded
    ball), plus everything {!Memo} records. *)

type t
(** A loaded engine: snapshot, decode parameters, serve radius, and one
    node-indexed label column. *)

val create :
  ?cache_capacity:int ->
  ?memo:Memo.t ->
  ?radius:int ->
  ?ids:Localmodel.Ids.t ->
  ?health:(string * Advice.Assignment.t) list * Store.Snapshot.section_report list ->
  Store.Snapshot.t ->
  t
(** [create snapshot] builds an engine over the snapshot's graph and
    its first advice section.  The serve radius and orientation
    parameters are read from the snapshot metadata ([serve.radius],
    [params.*]) as written by {!Pack.edge_compression}; [?radius]
    overrides the stored value.  [cache_capacity] [0] turns the label
    column off (every ball query decodes); any other value, like the
    default, stores every node's label.  [ids] overrides the identifier
    assignment the decoder orders a ball's nodes by (default: the identity
    [v + 1]) — {!Router} hands each container shard's engine its
    {e global} ids, which is what makes shard-local answers
    byte-identical to a whole-graph engine's.  [memo] attaches a
    canonical-ball decode memo (see the module comment; the table may be
    shared with other engines — the keys pin radius, parameters and
    trust).

    [health] is what a {!Store.Snapshot.read_salvage} recovered beyond
    its checksum-clean [partial] snapshot: [(recovered, report)].  The
    advice section is then the first intact one when there is one, and
    the first quarantined [recovered] one otherwise — in the latter case
    the engine serves best-effort answers from untrusted bits and says
    so via {!serving_trusted} — and any non-healthy [report] row makes
    the engine {!degraded}.  Note that when the metadata section itself
    was lost, [?radius] must be supplied.  @raise Invalid_argument when
    no usable advice section exists, the capacity or [radius] is
    negative, or [ids] is not a valid assignment for the graph; @raise
    Store.Codec.Corrupt as {!serve_radius}, or when a [params.*] entry
    is not a non-negative integer. *)

val serve_radius : ?radius:int -> (string * string) list -> int
(** The serve radius: [radius] when given, else the metadata's
    [serve.radius] ({!Router.create} parses it here too).
    @raise Invalid_argument on a negative [radius]; @raise
    Store.Codec.Corrupt when the entry is missing or not a non-negative
    integer (a fault of the file, not of the caller). *)

val graph : t -> Netgraph.Graph.t
(** The snapshot's graph. *)

val radius : t -> int
(** The serve radius in use. *)

val advice_name : t -> string
(** Name of the advice section being served. *)

val memo : t -> Memo.t option
(** The attached canonical-ball memo, if any. *)

val degraded : t -> bool
(** Whether the engine came from a damaged snapshot (any non-healthy
    section in the salvage report, or the served advice is untrusted).
    Always [false] without [~health]. *)

val serving_trusted : t -> bool
(** Whether the served advice section passed its checksum.  [false]
    means answers are best-effort reads of quarantined bits. *)

val quarantined_sections : t -> string list
(** Human-readable damage report carried over from the salvage, one
    line per non-healthy section, in file order.  Empty without
    [~health]. *)

(** One request.  Nodes are the snapshot graph's node ids, edges its
    dense edge ids; [Edge_member (v, e)] requires [v] to be an endpoint
    of [e] — the LOCAL reading of C4, where a node asks about its own
    incident edges. *)
type query =
  | Output_label of int
  | Edge_member of int * int
  | Advice_bits of int

(** One answer, positionally matching the query list. *)
type answer =
  | Label of string  (** incident-edge membership bits, sorted-neighbor order *)
  | Member of bool
  | Bits of string

val query : t -> query -> answer
(** Answer a single request, consulting and filling the label column.
    With a memo attached, first sightings and stores are published
    immediately — callers of [query] serialize, so this path is the
    single writer.  An
    [Edge_member] is checked and placed in one scan of the node's
    incident edges.
    @raise Invalid_argument on an out-of-range node or edge id, or an
    [Edge_member] whose node is not an endpoint of its edge. *)

val output_label : t -> int -> answer
(** [output_label t v] is [query t (Output_label v)], without the
    query box: the router's single-query path calls these three. *)

val edge_member : t -> int -> int -> answer
(** [edge_member t v e] is [query t (Edge_member (v, e))]. *)

val advice_bits : t -> int -> answer
(** [advice_bits t v] is [query t (Advice_bits v)]. *)

val staged : t -> query -> answer * Memo.publication option
(** {!query} for callers that are themselves pool workers (the router's
    batch): the memo and its filter are only {e read}, and what the
    serialized path would publish comes back instead — a first
    sighting's [Sighting fp], or a repeat sighting's table miss as
    [Store (key, label)] — for the caller to {!Memo.publish} on the
    calling thread after its join.  Without a memo, or on a hit, it is
    [None].  Workers may call [staged] on one engine at once as long as
    their node sets are disjoint: each writes only its own nodes'
    column entries. *)

val label_of_view : params:Schemas.Balanced_orientation.params -> Localmodel.View.t -> string
(** The per-ball decode for a materialized view, exposed for perfbench's
    traced replay and for tests: a thin wrapper that re-stamps the view
    ({!Ethlink.Canonical.stamp_view}) and runs the serve path's own
    decoder ({!Center_decode.label}).  The label does not depend on
    [params]: the tolerant orientation decode it reproduces reads them
    only in strict mode.  Total for any view of radius ≥ 0 (unresolvable
    bits read as '0'); equals the direct decoder's bits exactly when the
    view radius is certified. *)
