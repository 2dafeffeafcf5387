(** Query engine: answer per-node questions from a loaded snapshot by
    decoding only the node's radius-r ball (the paper's C4 workload).

    The engine loads a {!Store.Snapshot} once and serves three request
    kinds: [Output_label v] (the membership bits of [v]'s incident
    edges, in sorted-neighbor order), [Edge_member (v, e)] (is incident
    edge [e] in the compressed set — C4 decompression), and
    [Advice_bits v] (the raw advice string).  A ball query stamps the
    node's radius-r ball into the domain-local {!Netgraph.Workspace} with
    one BFS, builds the fragment straight from the stamps relabelled
    order-preservingly ({!Ethlink.Canonical.ordered_fragment}: the
    canonical trail structure is identifier-ordered, and BFS stamp order
    is not), runs the tolerant orientation decoder on it, and reads the
    membership bits — O(ball) work per miss, independent of the graph
    size, with no {!Localmodel.View} materialized.

    {b Batch parallelism.}  The node-id space is cut into contiguous
    {e shards} (default: one per effective domain), each pinned to its
    own LRU ball {!Cache}.  {!batch} dedups and sorts the request
    nodes, slices them per shard (sorted nodes against contiguous id
    ranges — a single merge pass), and hands each non-empty slice as
    one task to {!Pool.run}: a task owns its shard for the whole batch,
    so it reads and fills the shard cache with no locking, and returns
    its labels for the calling domain to scatter.  Contiguous id ranges
    track CSR locality (builders number neighbors near each other), so
    overlapping balls land on the same shard's cache and domain.
    Single-node {!query} routes through the owner shard's cache.

    {b Canonical-ball memoization.}  With [?memo], a {!Memo} table sits
    {e between} the LRU caches and the decoder: a cache miss first keys
    the stamped ball with {!Ethlink.Canonical.ball_key} — the bytes of
    {!Ethlink.Canonical.ball_signature}, prefixed with the engine's
    radius, decoder parameters and trust mode, written straight from
    the BFS stamps — and only builds the fragment and decodes on a memo
    miss, from the same stamps; a memo hit builds neither a view nor a
    graph.  Nodes with isomorphic balls share one decode, across
    shards, engines (the router passes one table to every per-shard
    engine) and LRU evictions.  Answers are byte-identical to the
    unmemoized engine: the signature captures the decoder's whole
    input.  Publication is single-writer: the serialized {!query} path
    inserts immediately, while {!batch} workers and {!query_staged}
    callers only {e read} the frozen table and stage their misses for
    the calling thread to publish after the join.

    The serve radius is the one certified at pack time
    ({!Pack.edge_compression} stores it in the snapshot metadata):
    answers at that radius equal the direct decoder
    ({!Schemas.Edge_compression.decode}) run on the full graph.  At an
    uncertified smaller radius answers may differ — the engine is total
    but only the certified radius carries the equivalence guarantee.

    {b Degraded mode.}  {!create_salvaged} builds an engine from a
    {!Store.Snapshot.read_salvage} result: it serves checksum-clean
    advice sections normally and can fall back to a quarantined section
    (parsed but CRC-failed) best-effort — the decode stays total by
    degrading any ball the damaged advice makes undecodable to the
    all-['0'] label instead of raising.  Every query answered by a
    degraded engine bumps [serve.degraded]; queries served from
    untrusted advice additionally bump [serve.quarantined], and each
    ball that needed the fallback bumps [serve.fallback_labels].

    Obs: [serve.queries], [serve.batches], [serve.cache.hits],
    [serve.cache.misses], [serve.degraded], [serve.quarantined],
    [serve.fallback_labels], [serve.batch.shards] counters, the
    [serve.ball_size] histogram (one sample per decoded ball), and the
    [serve.batch] trace span (plus everything {!Memo} and {!Pool}
    record). *)

type t
(** A loaded engine: snapshot, decode parameters, serve radius, and the
    sharded ball caches. *)

val create :
  ?cache_capacity:int -> ?shards:int -> ?memo:Memo.t -> ?radius:int ->
  ?ids:Localmodel.Ids.t -> ?name:string -> Store.Snapshot.t -> t
(** [create snapshot] builds an engine over the snapshot's graph and the
    advice section called [name] (default: the snapshot's first advice
    section).  The serve radius and orientation parameters are read from
    the snapshot metadata ([serve.radius], [params.*]) as written by
    {!Pack.edge_compression}; [?radius] overrides the stored value.
    [cache_capacity] bounds the ball caches' {e total} budget, split
    exactly across shards ({!Cache.split}; default 1024 entries; 0
    disables caching on every shard).  [shards] fixes the shard count
    (clamped to the node count); the default is
    {!Localmodel.View.effective_domains}[ ()], one shard per domain the
    host can actually run.  [ids] overrides the identifier assignment
    the decoder orders fragments by (default: the identity [v + 1]) —
    {!Router} hands each per-shard engine its {e global} ids, which is
    what makes shard-local answers byte-identical to a whole-graph
    engine's.  [memo] attaches a canonical-ball decode memo (see the
    module comment; the table may be shared with other engines — the
    keys pin radius, parameters and trust).  @raise Invalid_argument
    when the snapshot has no usable advice section, no radius is
    available, [shards] is not positive, or [ids] is not a valid
    assignment for the graph. *)

val create_salvaged :
  ?cache_capacity:int -> ?shards:int -> ?memo:Memo.t -> ?radius:int ->
  ?ids:Localmodel.Ids.t -> ?name:string -> Store.Snapshot.salvage -> t
(** [create_salvaged sv] builds a (possibly degraded) engine from a
    salvage result: the advice section called [name] (default: first
    surviving) is taken from the intact sections when possible and from
    the quarantined ([sv.recovered]) ones otherwise — in the latter case
    the engine serves best-effort answers from untrusted bits and says
    so via {!serving_trusted}.  Radius and parameters resolve as in
    {!create}, against the salvaged metadata; note that when the
    metadata section itself was lost, [?radius] must be supplied.
    @raise Invalid_argument when no advice section survived, the named
    one did not, or no radius is available. *)

val graph : t -> Netgraph.Graph.t
(** The snapshot's graph. *)

val radius : t -> int
(** The serve radius in use. *)

val shard_count : t -> int
(** Number of cache shards the engine was built with. *)

val advice_name : t -> string
(** Name of the advice section being served. *)

val memoized : t -> bool
(** Whether a canonical-ball memo is attached. *)

val degraded : t -> bool
(** Whether the engine came from a damaged snapshot (any non-healthy
    section in the salvage report, or the served advice is untrusted).
    Always [false] for {!create}. *)

val serving_trusted : t -> bool
(** Whether the served advice section passed its checksum.  [false]
    means answers are best-effort reads of quarantined bits. *)

val quarantined_sections : t -> string list
(** Human-readable damage report carried over from the salvage, one
    line per non-healthy section, in file order.  Empty for {!create}. *)

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
(** Answer a single request, consulting and filling the ball cache.
    With a memo attached, misses are published immediately — callers of
    [query] serialize, so this path is the single writer.
    @raise Invalid_argument on an out-of-range node or edge id, or an
    [Edge_member] whose node is not an endpoint of its edge. *)

val query_staged :
  t -> query -> (string * string) list -> answer * (string * string) list
(** {!query} for callers that are themselves pool workers (the router's
    batch waves): the memo is only {e read}, and each miss is consed
    onto the accumulator as a [(key, label)] pair for the caller to
    hand to {!publish_staged} on the publishing thread after its join.
    Without a memo the accumulator passes through untouched. *)

val publish_staged : t -> (string * string) list -> unit
(** Publish staged memo entries.  Must run on a single thread with no
    concurrent {!query_staged}/{!val:batch} in flight (the memo's
    single-writer discipline); a no-op without a memo. *)

module Batch (_ : Shim.S) : sig
  val batch :
    ?domains:int -> ?pool:Pool.variant -> t -> query array -> answer array
  (** Same contract as the top-level {!val:batch}, with the shard
      fan-out executed through the shim. *)
end
(** The parallel shard/cache handoff, functorized over the concurrency
    shim.  [Batch (Shim.Real)] is the production {!val:batch} below;
    instantiated with the checker's instrumented shim, the identical
    planner + pool + scatter code runs under the schedule-exploring
    scheduler, with one tracked ownership cell per shard cache touched
    around every cache access — so the single-writer-per-shard
    discipline is machine-checked instead of asserted (see DESIGN.md,
    "Concurrency model checking"). *)

val batch :
  ?domains:int -> ?pool:Pool.variant -> t -> query array -> answer array
(** Answer a request list: validates every query, dedups and sorts the
    ball nodes it needs, slices them into per-shard tasks, runs the
    tasks over {!Pool.run} (each task serving hits and misses against
    its own shard cache), and assembles answers in request order.
    [?pool] picks the claiming variant (default {!Pool.default_variant},
    the lock-free one); [?domains] is forwarded to the pool, so its
    default is the hardware-fitted domain count and explicit values are
    honored as requested.  Output is byte-identical to serving each
    query through {!query} sequentially, for every shard count, domain
    count, and pool variant.  This is [Batch (Shim.Real)].
    @raise Invalid_argument as {!query}, before any ball work. *)

val label_of_view : params:Schemas.Balanced_orientation.params -> Localmodel.View.t -> string
(** The per-ball decode for a materialized view, exposed for pack-time
    certification and tests: a thin wrapper that re-stamps the view
    ({!Ethlink.Canonical.stamp_view}) and runs the serve path's own
    stamped-ball decode — relabel the fragment in identifier order,
    recover the orientation with the tolerant fragment decoder, and read
    the center's incident membership bits.  Total for any view of
    radius ≥ 0 (unresolvable bits read as '0'); equals the direct
    decoder's bits exactly when the view radius is certified. *)
