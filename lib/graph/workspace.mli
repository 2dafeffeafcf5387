(** Reusable scratch space for repeated ball extractions.

    A workspace holds a stamped node set in insertion (BFS) order: each
    member's distance, and its {e stamp index}, its position in that
    order (the ball's sub node id).  It is sized for two scales:
    - one {e host-indexed} word per node of the largest graph it has
      served, [mark], the only array as long as the graph;
    - {e stamp-indexed} [queue] and [dist], as long as the largest set
      stamped, grown geometrically as a set outgrows them, so after a
      radius-[r] ball they hold at most twice that ball.
    The mark is an offset epoch: node [v] is stamped iff [mark.(v) >=
    base], and its stamp index is then [mark.(v) - base].  {!add} writes
    [base + size] to the new member's mark, and {!reset} adds the set's
    size to [base], which leaves every earlier mark below it — O(1)
    without touching an array.  This is what makes per-ball work and
    per-ball memory proportional to the ball — not to [n] — in the
    LOCAL simulator's and the serve path's hot loops.

    The record fields are exposed so that the traversal and extraction
    routines inside [Netgraph] (and performance-sensitive callers) can
    read them without function-call overhead.  Treat them as read-only
    outside this library and mutate only through {!add}. *)

type t = {
  mutable mark : int array;
      (** host-indexed: [base +] stamp index for a member, below [base]
          otherwise *)
  mutable base : int;  (** the current set's offset *)
  mutable size : int;  (** number of nodes stamped since the last reset *)
  mutable queue : int array;
      (** stamp-indexed: the stamped nodes in insertion (BFS) order; the
          first [size] entries are valid *)
  mutable dist : int array;
      (** stamp-indexed: each stamped node's BFS distance; the first
          [size] entries are valid *)
}

val create : ?capacity:int -> unit -> t
(** A fresh workspace with a [capacity]-node mark (default 0) and empty
    stamp-indexed arrays; both grow on demand. *)

val ensure : t -> int -> unit
(** [ensure ws n] grows the mark to hold nodes [0..n-1], to exactly [n]
    words (a graph of [n] nodes cost O(n) to build, so this costs no
    more).  Growing forgets the current set. *)

val reserve : t -> int -> unit
(** [reserve ws k] grows [queue] and [dist] to hold at least [k] stamps,
    keeping the current ones (to [max k] twice their length, so growth
    is amortized O(1) per stamp).  {!add} calls it; a hot loop that
    stamps by hand calls it when [size] reaches [Array.length queue],
    then re-reads both fields. *)

val reset : t -> unit
(** Empty the stamped set in O(1) by adding its size to [base].  When
    [base] could overflow within the next set, the mark is refilled with
    [-1] and [base] restarts from 0, so a stale mark can never read as
    stamped; amortized cost stays O(1). *)

val mem : t -> int -> bool
(** Is the node stamped in the current set? *)

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
