(* The mutant gallery: each function is a small concurrent workload
   seeded with one real bug class from the serve stack's history (or
   its code review).  They exist to keep the checker honest — a
   scheduler or happens-before tracker that stops catching one of
   these has regressed, so the modelcheck suite runs every mutant and
   FAILS if any explores clean.  Keep the workloads tiny: exploration
   cost is exponential in scheduling points.

   Every mutant is written against the shim, like the real code, so
   the exact same exploration drives both; the difference is only the
   expectation (Scenarios.Caught vs Scenarios.Clean). *)

(* A structured stand-in for a failing task. *)
exception Task_boom of int

(* Bug class: torn read-modify-write on the claim cursor — what
   Localmodel.Pool's claim would be if fetch_and_add were replaced by a get/set
   pair.  Two workers can read the same cursor value and claim the
   same task; the checker sees the duplicate claim as a write-write
   race on the task's (single-owner by contract) result cell, or as
   the exactly-once invariant failing. *)
let torn_cursor (module S : Shim.S) =
  let n = 2 in
  let cursor = S.Atomic.make 0 in
  let runs = Array.init n (fun _ -> S.Raw.make 0) in
  let worker () =
    let rec drain () =
      let i = S.Atomic.get cursor in
      if i < n then begin
        S.Atomic.set cursor (i + 1) (* MUTANT: torn claim, not fetch_and_add *);
        S.Raw.set runs.(i) (S.Raw.get runs.(i) + 1);
        drain ()
      end
    in
    drain ()
  in
  let h = S.Thread.spawn worker in
  worker ();
  S.Thread.join h;
  Array.iteri
    (fun i c ->
      let k = S.Raw.get c in
      if k <> 1 then
        raise
          (Sched.Check_failed (Printf.sprintf "task %d ran %d times" i k)))
    runs

(* Bug class: publishing without a fence — a writer initializes data
   and raises a plain (non-atomic) ready flag; the reader's flag load
   carries no acquire edge, so its read of the data races with the
   writer's initialization.  [Scenarios] pairs this with a clean twin
   whose flag is atomic, which the checker must pass. *)
let unfenced_publish (module S : Shim.S) =
  let data = S.Raw.make 0 in
  let ready = S.Raw.make false (* MUTANT: should be S.Atomic *) in
  let reader =
    S.Thread.spawn (fun () -> if S.Raw.get ready then S.Raw.get data else 0)
  in
  S.Raw.set data 42;
  S.Raw.set ready true;
  ignore (S.Thread.join reader : int)

(* Bug class: two pool tasks sharing one slot-owner cell — what
   Router's batch would be if the wave planner ever handed two tasks
   the same slot.  The real planner makes one task per slot; here both
   tasks touch one cell, and the checker must find the interleaving
   where the two workers' accesses race (schedules where a single
   worker happens to claim both tasks are clean, so this also checks
   that exploration actually reaches the two-worker split). *)
let shared_shard_writer (module S : Shim.S) =
  let module P = Localmodel.Pool.Make (S) in
  let owner = S.Raw.make 0 in
  ignore
    (P.run ~domains:2
       (fun _ -> S.Raw.set owner (S.Raw.get owner + 1))
       [| 0; 1 |]
      : unit array)

(* Bug class: the drain loop swallowing task failures — what Pool's
   worker would be if the [match f tasks.(i)] outcome recording were
   replaced by a catch-all.  The task's exception never reaches the
   caller, violating the pool's failure-replay contract; the checker
   reports the scenario's invariant on every schedule. *)
let lost_exception_drain (module S : Shim.S) =
  let n = 3 in
  let cursor = S.Atomic.make 0 in
  let worker () =
    let rec drain () =
      let i = S.Atomic.fetch_and_add cursor 1 in
      if i < n then begin
        (try if i = 1 then raise (Task_boom i) with _ -> ())
        (* MUTANT: failure dropped instead of recorded *);
        drain ()
      end
    in
    drain ()
  in
  let h = S.Thread.spawn worker in
  worker ();
  S.Thread.join h;
  raise (Sched.Check_failed "task 1 failed but no exception surfaced")

(* Bug class: lock-free list push without compare-and-set — what
   Obs.Metrics.Cellpush would be with a get/set pair.  Two domains
   pushing their first cell concurrently can lose one; the checker
   must find the interleaving where the final list is short. *)
let lost_cell_push (module S : Shim.S) =
  let cells = S.Atomic.make [] in
  let push c =
    let old = S.Atomic.get cells in
    S.Atomic.set cells (c :: old) (* MUTANT: lost-update push, not CAS *)
  in
  let h = S.Thread.spawn (fun () -> push 1) in
  push 2;
  S.Thread.join h;
  let k = List.length (S.Atomic.get cells) in
  if k <> 2 then
    raise
      (Sched.Check_failed
         (Printf.sprintf "2 cells pushed but %d registered" k))
