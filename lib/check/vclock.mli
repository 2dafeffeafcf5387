(** Fixed-width vector clocks for the scheduler's happens-before
    tracker.

    A clock maps fiber ids ([0 .. width - 1]) to operation counts,
    ordered componentwise: two events are concurrent exactly when
    neither clock is ≤ the other.
    Width is fixed at the scheduler's fiber cap so clocks are flat
    arrays — cheap to {!copy} on every tracked write and to {!merge} on
    every acquire edge. *)

val width : int
(** Number of components (the scheduler's maximum fiber count). *)

type t = int array
(** A clock; component [i] belongs to fiber [i].  Exposed as an array
    so tests can build literals, but mutate only through this API. *)

val make : unit -> t
(** All-zero clock. *)

val copy : t -> t
(** Independent snapshot. *)

val get : t -> int -> int
(** [get c i] is component [i]. *)

val tick : t -> int -> unit
(** [tick c i] increments component [i] in place — fiber [i] advancing
    its own time. *)

val merge : t -> t -> unit
(** [merge dst src] joins [src] into [dst] componentwise (in-place
    least upper bound) — the acquire side of a release/acquire pair. *)

val to_string : t -> string
(** Compact rendering ([[1 0 2]], trailing zeros elided) for violation
    traces. *)
