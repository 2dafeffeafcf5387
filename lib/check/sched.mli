(** Schedule-exploring concurrency checker (systematic concurrency
    testing in the dscheck/CHESS tradition).

    A {e scenario} is ordinary code written against the {!Shim.S}
    signature.  The checker runs it with {!Model} — an instrumented
    shim whose every operation is a scheduling point: shim threads
    become cooperative fibers (effect handlers on a single domain), and
    a deterministic scheduler decides, at each operation, which fiber
    runs next.  {!explore} enumerates interleavings depth-first,
    exhaustively under a preemption bound; {!explore_random} samples
    schedules from a seeded {!Netgraph.Prng} stream beyond it.  Both
    stop at the first violation and report a replayable trace — the
    exact sequence of fiber choices — which {!replay} re-executes.

    Violations come from three sources: a vector-clock happens-before
    tracker flags unsynchronized conflicting accesses to {!Shim.RAW}
    cells ({!Race}); the scheduler itself detects stuck states (a
    {!Deadlock}: the only blocking operation is a join) and shim misuse;
    and the scenario's own assertions
    (raise {!Check_failed} for {!Invariant}, any other escaping
    exception is {!Uncaught}).

    Constraints on scenarios: create all shared state {e inside} the
    scenario (it re-runs once per schedule); spawn at most
    {!Vclock.width}[ - 1] threads; be deterministic apart from
    scheduling (the checker detects divergence during replay and raises
    {!Check_failed}).  Code under test may freely use untracked
    effects — metrics, tracing, I/O — since everything runs on one
    real domain. *)

exception Check_failed of string
(** Raise from a scenario to report a failed invariant; {!explore}
    converts it into an {!Invariant} violation carrying the schedule
    that produced it. *)

(** What went wrong. *)
type kind =
  | Race  (** conflicting unsynchronized accesses to a {!Shim.RAW} cell *)
  | Deadlock  (** live fibers, none enabled: each joins one that never ends *)
  | Uncaught  (** an exception escaped the scenario *)
  | Invariant  (** {!Check_failed}, shim misuse, or the step limit *)

(** A found violation, with the schedule that produced it. *)
type violation = {
  kind : kind;
  message : string;  (** human-readable diagnosis *)
  trace : int list;
      (** the schedule: fiber chosen at each scheduling point, in
          order — feed to {!replay} *)
}

(** The outcome of an exploration. *)
type report = {
  schedules : int;  (** interleavings executed *)
  complete : bool;
      (** [true] iff the bounded state space was exhausted (never set
          by {!explore_random} or {!replay}) *)
  violation : violation option;  (** first violation found, if any *)
}

type scenario = (module Shim.S) -> unit
(** A checkable workload: instantiate the functorized subsystem under
    test with the given shim, drive it, assert its contract. *)

module Model : Shim.S
(** The instrumented shim.  Outside an exploration its atomics and
    raws degrade to plain single-threaded behavior and
    [Thread.spawn] raises — only use it through {!explore},
    {!explore_random} or {!replay}. *)

val explore :
  ?preemptions:int -> ?max_schedules:int -> scenario -> report
(** Depth-first enumeration of schedules.  The default policy is
    non-preemptive (keep running the current fiber until it blocks or
    finishes); alternatives that switch away from a runnable fiber
    count as preemptions, and schedules with more than [preemptions]
    (default 2) of them are pruned — the classic bounding that keeps
    exploration tractable while catching almost all real bugs.
    Stops at the first violation, after [max_schedules] (default
    50_000) schedules, or when the bounded space is exhausted
    ([complete = true]). *)

val explore_random : ?seed:int -> schedules:int -> scenario -> report
(** [schedules] runs with uniformly random choices drawn from a
    {!Netgraph.Prng} stream seeded with [seed] (default 0): same seed,
    same schedules — a cheap way to probe beyond the preemption bound
    while staying reproducible.  Stops at the first violation. *)

val replay : scenario -> int list -> report
(** Re-execute one schedule from a violation's [trace] (choices beyond
    the trace fall back to the non-preemptive default policy).
    @raise Check_failed when the trace diverges from what the scenario
    enables — the scenario changed or is nondeterministic. *)

val pp_violation : violation -> string
(** Multi-line rendering: kind, message, and the replayable trace. *)
