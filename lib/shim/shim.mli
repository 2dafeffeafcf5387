(** Concurrency-primitive shim: the seam the model checker plugs into.

    Every concurrent subsystem in this repository ({!Serve.Pool}, the
    slot fan-out of {!Serve.Router}'s batch, the per-domain cell push of
    {!Obs.Metrics}) is written against {!S} — three tiny module types:
    atomic references, thread spawn/join, and tracked plain cells —
    instead of calling [Atomic] / [Domain] directly.  Two
    implementations exist:

    - {!Real} (below): a zero-cost pass-through to the stdlib
      primitives.  Type equalities are exposed, so production code that
      instantiates a functor with [Real] interoperates freely with code
      holding plain ['a Atomic.t] / ['a Domain.t] values.
    - [Check.Sched.Model]: the instrumented implementation used by the
      schedule-exploring checker — every operation becomes a scheduling
      point (an OCaml effect yielding to a deterministic scheduler) and
      feeds the vector-clock happens-before tracker.

    The discipline this buys: a subsystem functorized over {!S} can be
    exhaustively model-checked under a preemption bound (see
    DESIGN.md, "Concurrency model checking") while its production
    instantiation compiles to the exact same primitive calls as before,
    one indirect call away. *)

(** Sequentially consistent atomic references — the signature of the
    subset of [Stdlib.Atomic] the repository uses. *)
module type ATOMIC = sig
  type 'a t
  (** An atomic reference holding one ['a]. *)

  val make : 'a -> 'a t
  (** Fresh atomic reference. *)

  val get : 'a t -> 'a
  (** Atomic load. *)

  val set : 'a t -> 'a -> unit
  (** Atomic store. *)

  val compare_and_set : 'a t -> 'a -> 'a -> bool
  (** [compare_and_set r seen v] stores [v] iff the current value is
      physically equal to [seen]; returns whether it stored. *)

  val fetch_and_add : int t -> int -> int
  (** Atomic add returning the previous value — the work-claiming
      primitive of {!Serve.Pool}. *)
end

(** Thread creation and joining — [Domain.spawn]/[Domain.join] in
    production, cooperatively scheduled fibers under the checker. *)
module type THREAD = sig
  type 'a handle
  (** A running (or finished) thread producing an ['a]. *)

  val spawn : (unit -> 'a) -> 'a handle
  (** Starts [f] concurrently with the caller. *)

  val join : 'a handle -> 'a
  (** Waits for termination and returns the thread's result.
      @raise exn the thread's exception, if it ended with one. *)
end

(** Tracked non-atomic shared locations.  In production these are plain
    references (a single store / load, no synchronization).  Under the
    checker every access is recorded, and two accesses from different
    fibers with no happens-before edge between them — at least one a
    write — are reported as a data race.  Use a [Raw.t] to mark the
    shared-but-single-writer-by-construction state whose ownership
    discipline the checker should audit (e.g. one cell per slot in
    {!Serve.Router}'s batch path). *)
module type RAW = sig
  type 'a t
  (** A tracked plain mutable cell. *)

  val make : 'a -> 'a t
  (** Fresh cell. *)

  val get : 'a t -> 'a
  (** Plain (non-atomic) load. *)

  val set : 'a t -> 'a -> unit
  (** Plain (non-atomic) store. *)
end

(** The full shim: what functorized subsystems take as their one
    parameter. *)
module type S = sig
  module Atomic : ATOMIC
  (** Atomic references. *)

  module Thread : THREAD
  (** Thread spawn/join. *)

  module Raw : RAW
  (** Tracked non-atomic cells. *)
end

module Real :
  S
    with type 'a Atomic.t = 'a Stdlib.Atomic.t
     and type 'a Thread.handle = 'a Domain.t
     and type 'a Raw.t = 'a ref
(** The production shim: [Atomic] is [Stdlib.Atomic], [Thread] is
    [Domain] spawn/join, and [Raw] is a plain [ref].  All functions are
    direct aliases, so instantiating a functor with [Real] adds no
    behavior — only the (negligible, and bench-guarded: see the
    [store.pool] block) cost of calls through the functor boundary. *)
