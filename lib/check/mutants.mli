(** The mutant gallery: deliberately buggy miniatures of the serve
    stack's concurrency, one per bug class, used to verify that
    {!Sched.explore} still catches what it is supposed to catch.  Each
    is a {!Sched.scenario}; {!Scenarios.all} registers them with the
    [Caught] expectation, so the modelcheck suite fails if any mutant
    ever explores clean.

    The gallery (bug class → what the checker reports):
    - {!torn_cursor}: claim cursor updated by a get/set pair instead of
      fetch-and-add → duplicate claim → race on a single-owner cell or
      a failed exactly-once invariant.
    - {!unfenced_publish}: data published through a non-atomic ready
      flag → reader's data access races with initialization.
    - {!shared_shard_writer}: two pool tasks handed the same
      slot-owner cell → write-write race under the two-worker split.
    - {!lost_exception_drain}: drain loop swallows a task failure →
      invariant violation (the pool's failure-replay contract).
    - {!lost_cell_push}: metrics cell registration by get/set instead
      of compare-and-set → lost update → invariant violation. *)

val torn_cursor : Sched.scenario
(** Claim cursor read-modify-write torn into a get/set pair. *)

val unfenced_publish : Sched.scenario
(** Publication through a plain (non-atomic) ready flag. *)

val shared_shard_writer : Sched.scenario
(** Two pool tasks writing the same slot-owner cell. *)

val lost_exception_drain : Sched.scenario
(** Drain loop that swallows a task's exception. *)

val lost_cell_push : Sched.scenario
(** Metrics cell registration by get/set instead of CAS. *)
