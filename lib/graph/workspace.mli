(** Reusable scratch space for repeated ball extractions.

    A workspace holds a stamped node set in insertion (BFS) order: each
    member's distance, and its {e stamp index}, its position in that
    order (the ball's sub node id).  It is sized for two scales:
    - one {e host-indexed} 32-bit entry per node of the largest graph it
      has served, [mark], the only array as long as the graph: four
      bytes a node, in a block the GC never scans;
    - {e stamp-indexed} [queue] and [dist], as long as the largest set
      stamped, grown geometrically as a set outgrows them, so after a
      radius-[r] ball they hold at most twice that ball.
    The mark is an offset epoch: node [v] is stamped iff its entry is
    at least [base], and its stamp index is then the entry less [base].
    {!add} writes [base + size] to the new member's entry, and {!reset}
    adds the set's size to [base], which leaves every earlier entry
    below it — O(1) without touching an array.  This is what makes
    per-ball work and per-ball memory proportional to the ball — not to
    [n] — in the LOCAL simulator's and the serve path's hot loops.

    The record fields are exposed so that the traversal and extraction
    routines inside [Netgraph] (and performance-sensitive callers) can
    read them without function-call overhead.  Treat them as read-only
    outside this library and mutate only through {!add}. *)

type t = {
  mutable mark : Bytes.t;
      (** host-indexed signed 32-bit entries, entry [v] at byte [4v]
          (read with {!get32}): [base +] stamp index for a member, below
          [base] otherwise *)
  mutable base : int;  (** the current set's offset, below [2^31 - 1] *)
  mutable size : int;  (** number of nodes stamped since the last reset *)
  mutable queue : int array;
      (** stamp-indexed: the stamped nodes in insertion (BFS) order; the
          first [size] entries are valid *)
  mutable dist : int array;
      (** stamp-indexed: each stamped node's BFS distance; the first
          [size] entries are valid *)
}

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
(** [get32 mark (4 * v)] is node [v]'s mark entry, unchecked: [v] must
    be below the mark's length, as every node of a graph the workspace
    was {!ensure}d for is.  A primitive, so a per-neighbor loop in any
    module reads the mark with one load and no call; wrapped as
    [Int32.to_int (get32 mark (v lsl 2))] it allocates nothing. *)

external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
(** [set32 mark (4 * v) x] writes node [v]'s entry, unchecked: for the
    library's own hand-inlined BFS ({!Traversal.bfs_limited_into}),
    which stamps as {!add} does. *)

val create : ?capacity:int -> unit -> t
(** A fresh workspace with a [capacity]-node mark (default 0) and empty
    stamp-indexed arrays; both grow on demand. *)

val ensure : t -> int -> unit
(** [ensure ws n] grows the mark to hold nodes [0..n-1], to exactly [n]
    entries, [4n] bytes (a graph of [n] nodes cost O(n) to build, so
    this costs no more).  Growing forgets the current set. *)

val reserve : t -> int -> unit
(** [reserve ws k] grows [queue] and [dist] to hold at least [k] stamps,
    keeping the current ones (to [max k] twice their length, so growth
    is amortized O(1) per stamp).  {!add} calls it; a hot loop that
    stamps by hand calls it when [size] reaches [Array.length queue],
    then re-reads both fields. *)

val reset : t -> unit
(** Empty the stamped set in O(1) by adding its size to [base].  When
    an entry of the next set (at most one per node of the mark) could
    pass [2^31 - 1], the largest entry the mark holds, the mark is
    refilled with [-1] and [base] restarts from 0, so a stale entry can
    never read as stamped; amortized over the ~2^31 stamps between
    refills, the cost stays O(1). *)

val mem : t -> int -> bool
(** Is the node stamped in the current set?
    @raise Invalid_argument on a node outside the mark. *)

val add : t -> int -> dist:int -> unit
(** Stamp a node that is not yet a member: its stamp index is the set's
    size before the call, and its distance and node are appended to
    [dist] and [queue]. *)

val size : t -> int
(** Number of nodes stamped since the last {!reset}. *)

val dist : t -> int -> int
(** Recorded distance of a stamped node.
    @raise Invalid_argument on a node that is not stamped. *)

val sub_index : t -> int -> int
(** Stamp (insertion-order) index of a stamped node; negative for a node
    that is not stamped. *)

val node_at : t -> int -> int
(** [node_at ws i] is the [i]-th stamped node in insertion order. *)

val domain_local : unit -> t
(** The calling domain's shared scratch workspace.  Each domain gets its
    own, so parallel simulation over a read-only graph is safe.  Users must
    not retain it across calls that themselves use the domain-local
    workspace (every routine in this library copies its results out before
    returning, so composing them is safe). *)
