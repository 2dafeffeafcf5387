(** Fixed-capacity LRU cache from node ids to decoded ball results.

    {b Off the serve path.}  {!Engine} keeps a node-indexed label column
    instead (each node decodes once); this module stays only because the
    serving benchmark's traced replay ([perfbench/replay.ml]) and its
    Zipf hot-set check model the former per-slot LRU with it.  Once that
    replay models the column, the module can go.

    The cache is four flat int arrays: a node-indexed slot map plus an
    intrusive doubly-linked recency list over the slots.  [find] and
    [insert] are O(1); a full cache evicts the least-recently-used
    entry.  Not domain-safe: one owner per instance. *)

type t
(** One cache instance, bound to a fixed node-id universe. *)

val create : capacity:int -> n:int -> t
(** [create ~capacity ~n] caches up to [capacity] of the nodes
    [0..n-1].  Capacity 0 is a guaranteed no-op cache: {!find} always
    returns [None], {!mem} always [false], {!insert} validates its node
    id and then drops the entry, {!length} stays 0, and — so it can
    serve as the allocation-free "cold" baseline in the pool benches —
    no node-indexed storage is allocated at all.
    @raise Invalid_argument on negative arguments. *)

val capacity : t -> int
(** The configured capacity. *)

val length : t -> int
(** Entries currently held. *)

val mem : t -> int -> bool
(** Presence test that does {e not} touch recency — used by the batch
    planner to classify hits without reordering the eviction queue. *)

val find : t -> int -> string option
(** [find c v] returns the cached value and promotes [v] to
    most-recently-used. *)

val insert : t -> int -> string -> unit
(** [insert c v s] binds [v] to [s] as most-recently-used, replacing any
    previous binding and evicting the least-recently-used entry when the
    cache is full. *)

val clear : t -> unit
(** Drop every entry, keeping the arrays. *)
