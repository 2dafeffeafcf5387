(** Canonical-ball decode memo (toward the paper's C2 order-invariant
    lookup-table simulation).

    A bounded, hash-consed table from canonical ball keys to decoded
    labels, layered {e between} the per-shard label columns and the ball
    decoder: a column remembers {e nodes}, this table remembers
    {e isomorphism classes}.  Keys are
    [engine prefix ^ Ethlink.Canonical.ball_signature view] — written
    without the view by {!Ethlink.Canonical.write_ball_key} — where the
    prefix pins the serve radius, decoder parameters and trust mode —
    everything the decode depends on beyond the ball itself — so one
    table can safely be shared by many engines (the router shares one
    across its shard engines).

    {b Second sighting stores.}  In front of the table sits a filter of
    ball fingerprints ({!Ethlink.Canonical.ball_fingerprint}), one int
    slot per table slot.  A column miss asks {!first_sighting} first: a
    fingerprint the filter has not seen is recorded ({!record}) and the
    ball decoded with no key built; only a repeat sighting builds the
    key and probes ({!find_sub}), and a table miss there stores the
    class.  Hits are decided by full-key equality.  The filter forgets
    (a full bucket overwrites one of its fingerprints), which costs a
    recurring class one more decode.

    {b Publication discipline.}  The probes ({!first_sighting},
    {!find}, {!find_sub}) read no mutable metadata, so any number of
    parallel workers may probe a table that no one is writing.  The
    writes ({!record}, {!insert}, {!publish}) must only ever be called by
    a single thread with no concurrent readers in flight: the engine's
    serialized single-query path publishes immediately, and the
    router's batch stages its workers' {!publication}s and publishes
    them after the pool join.  The byte-identity contract (memoized =
    unmemoized, byte for byte) is what makes dropped or delayed
    publications harmless: a missed publication only costs a future
    hit, never an answer byte.

    {b Capacity.}  [capacity] bounds stored entries; at capacity new
    keys are dropped (the resident class representatives keep their
    slots).  Capacity 0 is a documented no-op: no storage, no filter,
    every ball is a first sighting, every [find] misses, every write is
    ignored, and no counter ticks.

    Obs: [serve.memo.hits] and [serve.memo.misses] (one of the two per
    column miss: a first sighting is a miss), [serve.memo.probes]
    (collision probes beyond the home slot) counters and the
    [serve.memo.bytes] resident-bytes peak gauge. *)

type t
(** An open-addressed canonical-ball table and its fingerprint filter. *)

type stats = {
  s_capacity : int;  (** configured entry bound *)
  s_entries : int;  (** keys currently stored *)
  s_bytes : int;  (** resident key + value bytes — what [serve.memo.bytes] tracks *)
  s_stores : int;  (** publishes that stored a new key *)
  s_drops : int;  (** inserts refused because the table was full *)
  s_first_sightings : int;  (** fingerprints recorded in the filter *)
}
(** A coherent snapshot of the single-writer counters.  Read it from
    the publishing thread (or with no publisher running). *)

val create : capacity:int -> t
(** [create ~capacity] allocates a table bounded to [capacity] entries:
    the smallest power of two at least [2 * capacity] slots, a load
    factor of at most 1/2, and a filter of as many fingerprint slots.
    [capacity = 0] builds the no-op table.
    @raise Invalid_argument when [capacity < 0], or when that slot count
    exceeds [Sys.max_array_length] (any capacity above [2^52] on a 64-bit
    host). *)

val first_sighting : t -> int -> bool
(** [first_sighting t fp]: whether the filter has not seen fingerprint
    [fp].  A first sighting counts one [serve.memo.misses]: the caller
    decodes without building a key, and publishes [fp] ({!record}, or
    a staged [Sighting fp]).  [false] means the class was probably
    sighted before, so its key is worth building and probing.  Always
    [true] at capacity 0.  Reads only, like {!find}. *)

val find : t -> string -> string option
(** [find t key] probes for [key].  Pure with respect to the table
    (only domain-sharded obs counters tick), so concurrent calls from
    pool workers are safe while no write runs. *)

val find_sub : t -> Bytes.t -> int -> string option
(** [find_sub t b n] is [find t (Bytes.sub_string b 0 n)], without
    the copy: the serve path probes the key in the domain's key buffer
    ({!Ethlink.Canonical.key_buffer}).  A hit allocates only its
    [Some]. *)

val record : t -> int -> unit
(** [record t fp] notes a first sighting in the filter.  Single-writer
    only.  Recording a fingerprint the filter holds is a no-op. *)

val insert : t -> string -> string -> unit
(** [insert t key value] publishes a decoded label.  Single-writer
    only (see the publication discipline above).  At capacity the
    insert is dropped; re-inserting an existing key is a no-op (the
    byte-identity contract makes the values equal).  @raise
    Invalid_argument on the empty key (it marks empty slots). *)

(** What a pool worker hands back for the publishing thread: a first
    sighting's fingerprint, or a class to store. *)
type publication = Sighting of int | Store of string * string

val publish : t -> publication -> unit
(** [publish t p] is {!record} or {!insert}.  Single-writer only. *)

val stats : t -> stats
(** Counter snapshot, for the bench harness, tests and the stats
    frame. *)
