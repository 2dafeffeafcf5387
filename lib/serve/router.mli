(** The serving front end: node → owner shard → shard engine, over one
    {!Store.Shard} container of either file version.  {!Router} is the
    only multi-slot front end and the only batch planner; {!Engine} is
    the decode core each resident shard wraps, with one label column per
    shard.

    {b Shards and slots.}  {!create} keeps at most a byte-budget's
    worth of the container's shards resident, loading each on first
    touch.  A resident shard is a private {!Engine} over the shard's
    local graph and advice slices, on its {e local} node ids: they are
    sorted by global id, and the decoder reads identifiers only through
    their order, so a shard-local ball (the global ball, by the halo
    invariant of {!Store.Shard}) decodes to the {e same bytes} a
    whole-graph engine would produce.  A {e slot} is a node range of
    one shard, and so a range of its engine's label column:
    [~domains:D] cuts each of the [S] shards into [⌈D/S⌉]
    {!Store.Shard.plan} ranges — [D] slots for a one-shard file (every
    version-1 snapshot), one per shard when [S >= D].  Slots exist for
    batches only: a single {!query} goes straight to its owner shard's
    engine.

    {b One translation rule.}  Every resident shard keeps two
    {!Store.Shard.Idmap}s, one for its nodes and one for its edges,
    as {!Store.Shard.load_part} decodes them: an interior run plus the
    sorted global ids of its halo, and no table the size of the shard.
    A queried node [v] is interior to its owner, so it is local node
    [v + shift], with [shift] fixed when the shard loads.  An
    [Edge_member]'s edge is looked up in the edge map (by offset inside
    its run, by binary search of the halo outside it) and must be among
    the node's incident edges.  That is also the endpoint check: it runs
    during translation, on the calling domain, so a batch is rejected
    before its wave does any ball work.  For an edge the shard stores,
    the message is the one a whole-graph {!Engine} gives, each endpoint
    named through the node map; an edge it does not store is named
    without its endpoints.  A version-1 file's one shard has identity
    maps, so the rule is the same for both file versions.

    {b Eviction contract.}  Residency is accounted in {e serialized
    frame bytes} (the manifest's [frame-bytes] per shard; a version-1
    file's whole size): stable, inspectable without loading, and linear
    in the shard's node count, as the loaded engine is (the label
    strings its column gathers later are not counted).  A load that
    would exceed the budget first evicts least-recently-used resident
    shards (never ones pinned by the current batch wave); a single shard
    larger than the budget loads anyway — the budget bounds steady-state
    residency, not the feasibility of serving.  0 means unbounded.

    {b Batches} group queries by owner slot and serve them in waves:
    the longest prefix of needed shards whose summed bytes fit the
    budget loads together, fans one task per slot across
    {!Localmodel.Pool.run}
    on the router's [D] domains (one worker owns a slot's range of the
    shard engine's label column for the wave: distinct array elements
    are distinct memory locations, so disjoint ranges need no lock),
    and is then replaced by the next wave.  Answers are byte-identical
    to a whole-graph {!Engine} over the same snapshot, for every slot
    count, budget and domain count.

    {b Salvage.}  With [~salvage:true], a shard whose bytes are damaged
    (checksum, structure, or I/O) is marked [Lost]: queries for {e its}
    interior raise {!Shard_lost} (surfaced per-query by
    {!batch_results}), and every other node range keeps serving —
    corruption degrades exactly one shard's range.  Without it, the
    first damaged shard propagates its [Codec.Corrupt] — fail-stop.
    [Lost] is a cached diagnostic, not a tombstone: a query for a lost
    range retries the load once the container has changed since the
    failed read ({!Store.Shard.revision}: one [Unix.stat] of the file),
    or on every query after an I/O error, so transient I/O faults and
    repaired container bytes heal in place.  Until the bytes change,
    the recorded diagnostic is raised again without a read, and a
    container over bytes in memory never changes.  Accounting stays
    exact across the
    cycle — a reloaded shard's frame bytes are charged to the resident
    budget exactly once, a failed retry refreshes the diagnostic
    without re-counting the loss, and a heal removes the shard from
    {!lost_shards} (and {!degraded} clears when none remain).  Nothing
    that failed a checksum is ever served: a damaged version-1 file is
    refused when it opens ({!Store.Shard.open_file}), salvage or not,
    so the one damage a router meets is a shard that fails to load.
    An {!Engine} knows nothing of damage.

    {b Degraded answers.}  An answer is degraded when {!degraded} holds
    as it leaves the router: each {!query} answer, each [Ok] of
    {!batch_results}, each answer of a {!batch} that returns.  It comes
    from a shard that loaded intact, so it is exact; it is counted
    because another node range is not being served.
    {!degraded_answers} and the [serve.degraded] counter count them.

    {b Memoization.}  {!create} loads the container's shipped class
    table into the [~memo] it is given, once, and every shard engine
    shares it: a node whose ball is a shipped class is answered without
    a decode on any shard, across eviction and reload.  Nothing writes
    the table after that, so batch workers only read shared state.

    Obs: [store.shard.loads], [store.shard.evictions],
    [store.shard.lost], [serve.batches], [serve.batch.shards] (slots
    served per wave) and [serve.degraded] counters, the
    [store.shard.resident_bytes] peak gauge and the [serve.batch] trace
    span (plus everything the shard engines and {!Localmodel.Pool}
    record). *)

type t
(** A router: a slot table with its LRU state, and one {!Engine} per
    resident shard. *)

exception Shard_lost of { shard : int; reason : string }
(** Raised (in salvage mode) when the owner shard of a queried node
    range could not be loaded.  Other shards keep serving. *)

val create :
  ?cache_capacity:int ->
  ?resident_budget:int ->
  ?salvage:bool ->
  ?memo:Memo.t ->
  ?radius:int ->
  ?domains:int ->
  Store.Shard.t ->
  t
(** [create store] builds a router over an open container.
    [cache_capacity] is passed to {e each} resident shard's engine
    ([0] turns its label column off; see {!Engine.create}) — eviction
    drops the column with the shard, so a reloaded shard decodes its
    nodes again.  [resident_budget] bounds resident shards in
    serialized bytes (default 0 = unbounded).  [salvage] selects
    degraded serving over fail-stop when a shard fails to load.
    [memo] receives the container's class table ({!Memo.attach}) and is
    shared by every shard engine; a container without one serves
    memo-less.  [radius] overrides the
    container's [serve.radius]
    metadata ({!Engine.serve_radius}).  [domains] (default
    {!Localmodel.Pool.effective_domains}[ ()]) sets the slot count (see
    above) and is the pool size of every batch, honored as given, like
    an explicit {!Localmodel.Pool.run} count.  Queries are answered from the
    container's first advice section ({!advice_name}).
    @raise Invalid_argument when [radius] or the budget or the
    capacity is negative, [domains < 1], or a container of several
    shards has a halo too shallow for the radius ([halo >= max radius 1]
    is the byte-identity precondition); @raise Store.Codec.Corrupt
    when the metadata has no valid serve radius (and no override was
    given), the container has no advice section, or [memo] is given and
    the shipped class table is malformed ({!Memo.read_table}). *)

val n : t -> int
(** Global node count. *)

val m : t -> int
(** Global edge count. *)

val radius : t -> int
(** The serve radius every query decodes at. *)

val certified_all : t -> bool
(** Whether the pack certified the radius on every node: the metadata's
    [serve.certified] is [all] (not [sample=K], and not missing). *)

val memo_stats : t -> Memo.stats option
(** The class table's size ({!Memo.stats}), or [None] when the router
    serves without one. *)

val slot_count : t -> int
(** Number of slots: [⌈D/S⌉] node ranges per container shard. *)

val advice_name : t -> string
(** The advice section queries are answered from: the manifest's first,
    the section each shard engine serves. *)

val shard_of : t -> int -> int
(** Owner shard of a global node id.  @raise Invalid_argument out of
    range. *)

val resident_bytes : t -> int
(** Serialized bytes of currently resident shards — the quantity the
    budget bounds. *)

val resident_shards : t -> int
(** How many shards are currently resident. *)

val loads : t -> int
(** Shard loads performed since creation (first touches + reloads). *)

val evictions : t -> int
(** Shards evicted under the budget since creation. *)

val lost_shards : t -> (int * string) list
(** Shards currently marked [Lost], with their diagnostics, in shard
    order.  A shard that healed on a successful reload is absent. *)

val degraded : t -> bool
(** Whether any shard is currently lost (clears when every lost shard
    heals on reload). *)

val degraded_answers : t -> int
(** Degraded answers served since creation (see above), counted
    whether or not metrics are on. *)

val query : t -> Engine.query -> Engine.answer
(** Answer one query through the owner shard's engine, loading the
    shard on first touch (and evicting under the budget).  On a
    resident shard the router adds no allocation of its own: the query
    is translated to local ids, not rebuilt.  Byte-identical to a
    whole-graph engine's answer.
    @raise Invalid_argument on an out-of-range id or an [Edge_member]
    whose node is not an endpoint of its edge;
    @raise Shard_lost (salvage) / [Codec.Corrupt] (fail-stop) when the
    owner shard cannot be loaded. *)

module Batch (_ : Shim.S) : sig
  val batch_results : t -> Engine.query array -> (Engine.answer, string) result array
  (** Same contract as the top-level {!val:batch_results}, with the
      slot fan-out executed through the shim; it counts no degraded
      answers. *)
end
(** The wave planner and slot fan-out, functorized over the
    concurrency shim.  [Batch (Shim.Real)] plans the production
    {!val:batch_results} and {!batch} below; instantiated with the checker's
    instrumented shim, the identical planner + pool + scatter code runs
    under the schedule-exploring scheduler, with one tracked ownership
    cell per slot touched around every engine call — so the
    single-worker-per-slot discipline is machine-checked instead of
    asserted (see DESIGN.md, "Concurrency model checking"). *)

val batch_results : t -> Engine.query array -> (Engine.answer, string) result array
(** Answer a batch, one result per query in request order: [Ok] answers
    are byte-identical to a whole-graph engine's; [Error] carries the
    owner shard's loss diagnostic (salvage mode) and appears only for
    queries whose node range was lost.  Slots load in budget-bounded
    waves and serve one pool task per slot, on the [domains] the router
    was created with.  @raise Invalid_argument on malformed queries
    (range checks before any work; the endpoint check when the owner
    shard's wave is translated, before that wave's ball work — with an
    unbounded budget every shard is in the first wave).  This is
    [Batch (Shim.Real)]'s, plus the count of degraded answers. *)

val batch : t -> Engine.query array -> Engine.answer array
(** {!batch_results} with losses raised: the first lost shard a wave
    meets raises [Codec.Corrupt] carrying the diagnostic its [Error]
    would carry, before that wave's pool runs, so a batch that fails
    decodes nothing in that wave or after it.  Convenient when the
    caller treats any loss as fatal (the server's Batch frame). *)
