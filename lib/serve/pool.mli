(** Work-distribution layer for batch serving: a fixed task array mapped
    over a small OCaml 5 domain pool by dynamic claiming, one
    [Atomic.fetch_and_add] on a shared cursor per task, so a slow task
    (a slot whose balls are large) cannot strand the other domains
    behind a static partition.  DESIGN.md, "Batch parallelism
    architecture", has the design.

    Tasks execute {e exactly once} each, results land at their task's
    index, and an exception raised by a task is caught, carried across
    the join, and re-raised on the calling domain — the one from the
    lowest task index when several tasks fail, so failure is
    deterministic under any interleaving.  All domains drain the queue
    to completion even when a task fails (a failing ball must not
    abandon the rest of the batch mid-flight).

    A run takes one path: it spawns [domains - 1] fresh domains and
    runs the remaining worker on the calling domain, so with one domain
    (or one task) nothing is spawned.  Unlike
    {!Localmodel.View.effective_domains}-fitted fan-outs, an explicit
    [?domains] here is honored literally (clamped only to the task count
    and the runtime's domain cap): the pool is the mechanism tests and
    smoke runs use to exercise genuine cross-domain execution on hosts
    with fewer cores than the request.

    Obs: [pool.runs] counts runs, [pool.tasks] tasks executed. *)

module Make (_ : Shim.S) : sig
  val run : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
  (** Same contract as the top-level {!val:run}, executed through the
      shim's atomics and threads. *)
end
(** The pool implementation, functorized over the concurrency shim.
    [Make (Shim.Real)] is the production pool below; [Make] applied to
    the checker's instrumented shim ([Check.Sched.Model]) runs the
    identical claim/drain/join code under the schedule-exploring
    scheduler, which is how the exactly-once and deterministic-failure
    contracts are verified against adversarial interleavings (see
    DESIGN.md, "Concurrency model checking"). *)

val run : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [run f tasks] applies [f] to every element of [tasks] across the
    domain pool and returns the results in task order, equal to
    [Array.map f tasks] whenever [f] is pure ([f] must additionally be
    safe to call from several domains at once).  [domains] defaults to
    [Localmodel.View.effective_domains ()] — the hardware-fitted count —
    and is otherwise honored as requested.  Each worker domain carries
    its own [Workspace.domain_local] scratch, so ball-extracting tasks
    compose with the LOCAL simulator's epoch workspaces for free.
    This is [Make (Shim.Real)]: the real [Atomic]/[Domain] primitives,
    one functor indirection away.
    @raise exn the exception of the failed task with the lowest index,
    after every remaining task has run and all domains have joined. *)
