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

    {b One translation rule.}  A shard's interior is one run of its
    sorted local ids, so a queried node [v] is local node [v + shift],
    with [shift] fixed when the shard loads (0 for a shard that stores
    every node and edge, whose id tables are the identity and are not
    kept).  A partial shard keeps its global edge-id table and the
    global ids of its halo nodes only, the local nodes below and above
    that run; an [Edge_member]'s local edge is the one among the node's
    incident edges whose global id matches.  That is also the endpoint
    check: it runs during translation, on the calling domain, so a batch
    is rejected before its wave does any ball work.  For an edge the
    shard stores, the message is the one a whole-graph {!Engine} gives;
    an edge it does not store is named without its endpoints.

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
    [Lost] is a cached diagnostic, not a tombstone: the next query for
    a lost range retries the load, so transient I/O faults and repaired
    container bytes heal in place.  Accounting stays exact across the
    cycle — a reloaded shard's frame bytes are charged to the resident
    budget exactly once, a failed retry refreshes the diagnostic
    without re-counting the loss, and a heal removes the shard from
    {!lost_shards} (and {!degraded} clears when none remain).  Only a
    damaged version-1 file's damage is known at open
    ({!Store.Shard.damage}): {!create} fails-stop on it without salvage;
    with salvage it reads the shard's section report and loads the
    shard at once.  The shard lists checksum-clean advice before
    quarantined advice (parsed, but CRC-failed) and its engine serves
    the first, so a file whose only advice is quarantined is served
    best-effort ({!serving_trusted} is [false]; the decoder is total),
    and any non-healthy section makes the router {!degraded}.  An
    {!Engine} knows nothing of damage.

    {b Degraded answers.}  An answer is degraded when {!degraded} holds
    as it leaves the router: each {!query} answer, each [Ok] of
    {!batch_results}, each answer of a {!batch} that returns.
    {!degraded_answers} and the [serve.degraded] counter count them;
    [serve.quarantined] counts the answers served while
    {!serving_trusted} is [false].

    {b Memoization.}  {!create} loads the container's shipped class
    table into the [~memo] it is given, once, and every shard engine
    shares it: a node whose ball is a shipped class is answered without
    a decode on any shard, across eviction and reload.  Nothing writes
    the table after that, so batch workers only read shared state.

    Obs: [store.shard.loads], [store.shard.evictions],
    [store.shard.lost], [serve.batches], [serve.batch.shards] (slots
    served per wave), [serve.degraded] and [serve.quarantined]
    counters, the [store.shard.resident_bytes] peak gauge and the
    [serve.batch] trace span (plus everything the shard engines and
    {!Localmodel.Pool} record). *)

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
    degraded serving over fail-stop.  [memo] receives the container's
    class table ({!Memo.attach}) and is shared by every shard engine; a
    container without one serves memo-less.  [radius] overrides the
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
    given), the container has no advice section, a damaged
    version-1 file is opened without [salvage], or [memo] is given and
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
(** The advice section queries are answered from: the manifest's first
    (a salvaged version-1 file lists quarantined sections after the
    checksum-clean ones), the section each shard engine serves. *)

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
    heals on reload), or the router serves a salvaged version-1 file
    with damaged sections. *)

val serving_trusted : t -> bool
(** Whether the served advice passed its checksum: [false] only for a
    salvaged version-1 file serving quarantined advice best-effort. *)

val quarantined_sections : t -> string list
(** A salvaged version-1 file's damage report, one line per non-healthy
    section, in file order; empty otherwise. *)

val degraded_answers : t -> int
(** Degraded answers served since creation (see above), counted
    whether or not metrics are on. *)

val query : t -> Engine.query -> Engine.answer
(** Answer one query through the owner shard's engine, loading the
    shard on first touch (and evicting under the budget).  On a
    resident shard the router adds no allocation of its own beyond the
    translated local query of a shard that does not store the whole
    graph.  Byte-identical to a whole-graph engine's answer.
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
