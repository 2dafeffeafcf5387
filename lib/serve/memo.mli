(** Canonical-ball decode memo (toward the paper's C2 order-invariant
    lookup-table simulation).

    A bounded, hash-consed table from canonical ball keys to decoded
    labels, layered {e between} the per-shard label columns and the ball
    decoder: a column remembers {e nodes}, this table remembers
    {e isomorphism classes}.  Keys are
    [engine prefix ^ Ethlink.Canonical.ball_signature view] — written
    without the view by {!Ethlink.Canonical.ball_key} — where the
    prefix pins the serve radius, decoder parameters and trust mode —
    everything the decode depends on beyond the ball itself — so one
    table can safely be shared by many engines (the router shares one
    across its shard engines).

    {b Publication discipline.}  [find] reads no mutable metadata, so
    any number of parallel workers may probe a table that no one is
    writing.  [insert] must only ever be called by a single thread with
    no concurrent readers in flight: the engine's serialized
    single-query path publishes immediately, and the router's batch
    stages misses inside each worker and inserts them after the pool
    join.  The
    byte-identity contract (memoized = unmemoized, byte for byte) is
    what makes dropped or delayed publications harmless: a missed
    insert only costs a future hit, never an answer byte.

    {b Capacity.}  [capacity] bounds stored entries; at capacity new
    keys are dropped (first-seen class representatives win — see the
    module comment for why that is the right policy for ball
    signatures).  Capacity 0 is a documented no-op: no storage, every
    [find] misses, every [insert] is ignored.

    Obs: [serve.memo.hits], [serve.memo.misses], [serve.memo.probes]
    (collision probes beyond the home slot) counters and the
    [serve.memo.bytes] resident-bytes peak gauge. *)

type t
(** An open-addressed canonical-ball table. *)

type stats = {
  s_capacity : int;  (** configured entry bound *)
  s_entries : int;  (** keys currently stored *)
  s_bytes : int;  (** resident key + value bytes — what [serve.memo.bytes] tracks *)
  s_stores : int;  (** publishes that stored a new key *)
  s_drops : int;  (** inserts refused because the table was full *)
}
(** A coherent snapshot of the single-writer counters.  Read it from
    the publishing thread (or with no publisher running). *)

val create : capacity:int -> t
(** [create ~capacity] allocates a table bounded to [capacity] entries:
    the smallest power of two at least [2 * capacity] slots, a load
    factor of at most 1/2.  [capacity = 0] builds the no-op table.
    @raise Invalid_argument when [capacity < 0], or when that slot count
    exceeds [Sys.max_array_length] (any capacity above [2^52] on a 64-bit
    host). *)

val find : t -> string -> string option
(** [find t key] probes for [key].  Pure with respect to the table
    (only domain-sharded obs counters tick), so concurrent calls from
    pool workers are safe while no [insert] runs. *)

val insert : t -> string -> string -> unit
(** [insert t key value] publishes a decoded label.  Single-writer
    only (see the publication discipline above).  At capacity the
    insert is dropped; re-inserting an existing key is a no-op (the
    byte-identity contract makes the values equal).  @raise
    Invalid_argument on the empty key (it marks empty slots). *)

val stats : t -> stats
(** Counter snapshot, for the bench harness and tests. *)
