(** The checked surface: the registry walked by the [modelcheck] CLI
    and the runtest suite.  Clean entries are the real components —
    {!Localmodel.Pool} (its lock-free claim plus the failure-replay
    contract), {!Serve.Router}'s two-slot batch over a packed cycle,
    and {!Obs.Metrics}'s cell push — which must explore without a
    violation.  Caught entries are the {!Mutants} gallery, which must
    each produce one. *)

(** What {!Sched.explore} is expected to conclude. *)
type expect =
  | Clean  (** no violation on any explored schedule *)
  | Caught  (** a violation must be found *)

(** A registered scenario with its expectation and exploration budget. *)
type t = {
  name : string;  (** stable id, e.g. ["pool.lockless"] *)
  expect : expect;
  scenario : Sched.scenario;
  preemptions : int;  (** bound to pass to {!Sched.explore} *)
  max_schedules : int;  (** cap to pass to {!Sched.explore} *)
}

val all : unit -> t list
(** Every registered scenario, clean components first.  A function
    because the engine fixture is built lazily (a packed snapshot). *)
