(** Pack-time encoding and certification: graph + edge subset → snapshot
    whose metadata carries a serve radius the engine is proven to honor.

    The repo's schema encoders certify their decoders (an encoder that
    cannot be decoded raises rather than producing garbage); packing
    extends the same contract to serving.  {!edge_compression} encodes
    the C4 advice, then searches for a radius at which the serve path
    itself — a {!Router} over the unserialized snapshot — reproduces the
    direct decoder {!Schemas.Edge_compression.decode} on every checked
    node, and records that radius in the snapshot metadata
    ([serve.radius]) together with the orientation parameters
    ([params.*]) and how much was checked ([serve.certified]).  A
    snapshot produced here therefore ships with a machine-checked
    locality claim, mirroring the paper's: decompression is a radius-r
    local map.  It also ships the ball classes that recur at that
    radius, with their labels ({!class_table}): the paper's C2 lookup
    table, which a server given [--memo] answers from without
    decoding. *)

type certification = {
  radius : int;  (** smallest radius found at which all checks pass *)
  checked : int;  (** number of nodes compared against the direct decoder *)
  exhaustive : bool;  (** whether every node was checked (vs. a sample) *)
}
(** What the pack-time search established. *)

val edge_compression :
  ?sample:int ->
  ?domains:int ->
  Netgraph.Graph.t ->
  Netgraph.Bitset.t ->
  Store.Snapshot.t * certification
(** [edge_compression g x] compresses the edge subset [x] with
    {!Schemas.Edge_compression.encode} (so each node stores at most
    ⌈d/2⌉+1 bits) and certifies a serve radius: probe radii grow
    geometrically from 2 and a binary search then tightens to the
    smallest passing value.  [sample] (default 0 = every node) checks an
    evenly spaced node sample instead — exhaustive on small instances,
    sampled when packing benchmark-sized ones; [Graph.n g] bounds the
    search.  A probe at radius [r] is one {!Router.batch} of
    [Output_label] queries for the checked nodes, on a memo-less router
    built with [Router.create ~radius:r] over
    {!Store.Shard.of_snapshot} of the snapshot (nothing is serialized):
    the one-shard container, shard engine, stamped-ball decode and
    {!Localmodel.Pool} that serve the file later.  [domains] is passed
    once, to {!Router.create}, which sets the slot count and the
    batch's pool from it.  The advice
    section is named ["c4"], and the orientation parameters
    ({!Schemas.Balanced_orientation.onebit_params}) are stored in the
    metadata for {!Engine.create} to read back.  The snapshot
    serializes as either file version: {!Store.Snapshot.write}, or
    {!Store.Shard.build} with a halo of [max radius 1] — certification
    ran on the global graph, and the halo invariant transfers the
    radius to every shard.  The last metadata entry is
    {!class_table}'s, at the certified radius.
    @raise Schemas.Balanced_orientation.Encoding_failure when the
    underlying schema cannot encode the graph.
    @raise Invalid_argument when no radius up to [Graph.n g] passes,
    [sample] is negative, or [x] is not an edge set of [g]. *)

val class_table :
  Netgraph.Graph.t -> advice:string array -> radius:int -> string * string
(** [class_table g ~advice ~radius] keys every node's radius-[radius]
    ball ({!Ethlink.Canonical.write_ball_key} in node order, [advice]
    indexed by node), counting classes up to a cap of
    [max 256 (Graph.n g / 64)], and returns the metadata entry that
    ships them: [({!Memo.table_key}, {!Memo.write_table} ...)] with one
    {!Center_decode.label} per class that covers two or more nodes, in
    the order of each class's first node.  When the count passes the
    cap, or no class recurs, it returns a one-line
    [("serve.table.none", reason)] instead.  One BFS and one key per
    node, stopping at the node that passes the cap; a decode per
    shipped class. *)
