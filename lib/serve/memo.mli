(** The ball-class table: canonical ball keys to decoded labels, the
    serving form of the paper's C2 lookup table for an order-invariant
    decoder.

    {!Pack.edge_compression} counts the snapshot's ball classes at the
    certified radius and ships the classes that recur as one metadata
    entry ({!table_key}, written by {!write_table}).  An engine or
    router given a memo loads that entry into it once ({!attach}), and
    nothing writes the table after that: the probes ({!find},
    {!find_sub}) read frozen arrays, so any number of pool workers may
    probe at once, and what the table holds does not depend on the
    order of the traffic.  Keys are
    {!Ethlink.Canonical.write_ball_key}'s bytes, which are the
    decoder's whole input: a hit returns the label a decode would give,
    at any radius.  DESIGN.md, "Canonical-ball memoization", has the
    design.

    {b Capacity.}  [capacity] bounds stored entries; an insert past it
    is dropped.  Capacity 0 is a documented no-op: no storage, every
    [find] misses, every insert is ignored, and no counter ticks.

    Obs: [serve.memo.hits] and [serve.memo.misses] (one of the two per
    probe), [serve.memo.probes] (collision probes beyond the home slot)
    counters and the [serve.memo.bytes] resident-bytes peak gauge. *)

type t
(** An open-addressed table from canonical ball keys to labels. *)

type stats = {
  s_capacity : int;  (** configured entry bound *)
  s_entries : int;  (** keys currently stored *)
  s_bytes : int;  (** resident key + value bytes — what [serve.memo.bytes] tracks *)
}
(** A snapshot of the table's size. *)

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
    pool workers are safe while no insert runs. *)

val find_sub : t -> Bytes.t -> int -> string option
(** [find_sub t b n] is [find t (Bytes.sub_string b 0 n)], without
    the copy: the serve path probes the key in the domain's key buffer
    ({!Ethlink.Canonical.key_buffer}).  A hit allocates only its
    [Some]. *)

val insert : t -> string -> string -> unit
(** [insert t key value] stores a class.  Not safe with concurrent
    probes: a table is filled before it serves.  At capacity the insert
    is dropped; re-inserting an existing key is a no-op.  @raise
    Invalid_argument on the empty key (it marks empty slots). *)

val stats : t -> stats
(** Size snapshot, for the bench harness, tests and the stats frame. *)

val table_key : string
(** ["serve.table"]: the metadata key of the shipped table. *)

val write_table : covered:int -> (string * string) list -> string
(** [write_table ~covered classes] is the shipped table's bytes:
    [classes:varint covered:varint], then [key:str label:str] per
    class, in {!Store.Codec}'s field encoding.  [covered] is the number
    of nodes whose ball is one of the classes. *)

val read_table : string -> int * int
(** [read_table bytes] checks a shipped table and returns its
    [(classes, covered)].  @raise Store.Codec.Corrupt when the class
    count or a length claims more bytes than remain, a key is empty, or
    bytes trail the last class; nothing is allocated in proportion to a
    count before the bytes behind it are seen. *)

val attach : t -> (string * string) list -> t option
(** [attach t meta] loads the table the metadata ships ({!table_key}),
    if any, into [t], and returns [Some t] when [t] then holds a class:
    a memo with nothing in it would only build a key per miss.
    Single-threaded, before [t] serves.  @raise Store.Codec.Corrupt as
    {!read_table}. *)
