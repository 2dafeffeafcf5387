(** Query engine: answer per-node questions from a loaded snapshot by
    decoding only the node's radius-r ball (the paper's C4 workload).

    The engine serves three request kinds: [Output_label v] (the
    membership bits of [v]'s incident edges, in sorted-neighbor order),
    [Edge_member (v, e)] (is incident edge [e] in the compressed set —
    C4 decompression), and [Advice_bits v] (the raw advice string).  A
    ball query stamps the node's radius-r ball with one BFS and decodes
    the label from the stamps with {!Center_decode}: no fragment and no
    {!Localmodel.View} is built, and the work is bounded by the ball,
    independent of the graph size.  The decoder and the memo key read
    identifiers only through their order, so an engine keeps no id
    column: its identifiers are its node order.

    Each node is decoded once: a node-indexed label column names the
    answer, so a hit returns a value that already exists and allocates
    nothing.  The column costs two bytes per node, a 16-bit slot that
    names the shared answer of a label of at most 8 bits.  Only a node
    of degree above 8 has a longer label; an engine whose graph has such
    a node adds a side column of one word per node, holding each longer
    label's box, and the label string (one per shipped class with a
    memo, one per decoded node otherwise).
    [Advice_bits] reads the advice string; one of at most 8 bits is
    answered with a shared box, a longer one with a fresh box.  With
    [?memo], the class table the pack shipped ({!Memo}) sits between
    the column and the decoder, so a node whose ball is a shipped class
    is answered without a decode; answers are byte-identical to the
    unmemoized engine's, because the key is the decoder's whole input
    and hits are decided on the whole key.  The table is only read,
    and a range of the column is written only by its owner: the
    serialized {!query} path, or the one pool worker that holds the
    range for a batch wave.  DESIGN.md has the design:
    "Canonical-ball memoization" for the column, the table and the key,
    and "Batch parallelism architecture" for the router's slots, which
    are node ranges of one engine's column.

    The serve radius is the one certified at pack time
    ({!Pack.edge_compression} stores it in the snapshot metadata):
    answers at that radius equal the direct decoder
    ({!Schemas.Edge_compression.decode}) run on the full graph.  At an
    uncertified smaller radius answers may differ — the engine is total
    (a label shorter than the node's degree, e.g. [""] at radius 0,
    reads as '0' past its end for [Edge_member]) but only the certified
    radius carries the equivalence guarantee.  The decoder is total on
    any advice bits, so the engine serves whatever section it is given;
    what a damaged file serves, and how its answers are counted, is
    {!Router}'s to decide.

    Obs: [serve.queries], [serve.cache.hits] and [serve.cache.misses]
    (label-column hits and misses: one per [Output_label] or
    [Edge_member] query) counters and the [serve.ball_size] histogram
    (one sample per decoded ball), plus everything {!Memo} records. *)

type t
(** A loaded engine: snapshot, decode parameters, serve radius, and one
    node-indexed label column (with its side column, when the graph
    needs one). *)

val create :
  ?cache_capacity:int ->
  ?memo:Memo.t ->
  ?radius:int ->
  Store.Snapshot.t ->
  t
(** [create snapshot] builds an engine over the snapshot's graph and
    its first advice section.  The serve radius and orientation
    parameters are read from the snapshot metadata ([serve.radius],
    [params.*]) as written by {!Pack.edge_compression}; [?radius]
    overrides the stored value.  [cache_capacity] [0] turns the label
    column off (every ball query decodes); any other value, like the
    default, stores every node's label.  [memo] is the table to serve
    from: the snapshot's shipped class table, if any, is loaded into it
    ({!Memo.attach}), and an engine whose memo then holds no class
    serves without one and builds no key.  The memo may be shared with
    other engines: the key is the decoder's whole input, so engines of
    any radius can probe one table.
    @raise Invalid_argument when the snapshot has no advice section,
    or the capacity or [radius] is negative; @raise
    Store.Codec.Corrupt as {!serve_radius}, when a [params.*] entry
    is not a non-negative integer, or as {!Memo.read_table} on the
    shipped table when [memo] is given. *)

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
    An [Edge_member] is checked and placed in one scan of the node's
    incident edges.  Pool workers may call [query] on one engine at once
    as long as their node sets are disjoint: each writes only its own
    nodes' column entries.
    @raise Invalid_argument on an out-of-range node or edge id, or an
    [Edge_member] whose node is not an endpoint of its edge. *)

val output_label : t -> int -> answer
(** [output_label t v] is [query t (Output_label v)], without the
    query box: the router's single-query path calls these three. *)

val edge_member : t -> int -> int -> answer
(** [edge_member t v e] is [query t (Edge_member (v, e))]. *)

val advice_bits : t -> int -> answer
(** [advice_bits t v] is [query t (Advice_bits v)]. *)

val label_of_view : params:Schemas.Balanced_orientation.params -> Localmodel.View.t -> string
(** The per-ball decode for a materialized view, exposed for perfbench's
    traced replay and for tests: a thin wrapper that re-stamps the view
    ({!Ethlink.Canonical.stamp_view}) and runs the serve path's own
    decoder ({!Center_decode.label}).  The label does not depend on
    [params]: the tolerant orientation decode it reproduces reads them
    only in strict mode.  Total for any view of radius ≥ 0 (unresolvable
    bits read as '0'); equals the direct decoder's bits exactly when the
    view radius is certified. *)
