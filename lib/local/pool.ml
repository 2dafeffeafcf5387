(* Dynamic work distribution over a fixed task array.

   A shared cursor names the next unclaimed task, every worker loops
   { claim; execute; record locally } until the cursor runs past the
   end, and the calling domain scatters the recorded results after the
   join.  Claiming — one atomic fetch-and-add — is the only shared
   write.

   Workers mutate nothing they capture: each accumulates (index,
   outcome) pairs in a private list and returns it through Thread.join.
   That is the discipline advicelint's domain-race rule enforces for
   closures reaching Pool.run, and following it here keeps the pool
   auditable by the same rule it anchors.

   The whole implementation is a functor over the Shim concurrency
   primitives: the production [run] below is [Make (Shim.Real)] — a
   pass-through to Atomic / Domain — while Check.Sched instantiates the
   same code with its instrumented shim and explores the
   claim/drain/join interleavings systematically (the mutant gallery in
   lib/check documents the bug classes that exploration catches). *)

let m_runs = Obs.Metrics.counter "pool.runs"
let m_tasks = Obs.Metrics.counter "pool.tasks"

let fail fmt = Format.kasprintf invalid_arg fmt

let default_domains () =
  match Sys.getenv_opt "LOCAL_ADVICE_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> d
      | _ -> 1)
  | None -> Domain.recommended_domain_count ()

(* Fan-outs are pure-CPU sweeps: domains beyond the hardware only
   timeshare one core and pay spawn + GC-coordination overhead for it
   (measured at ~3x slower on a 1-core host), so a default or a CLI
   request is fitted to the machine.  The OCaml runtime also caps
   simultaneous domains (128); stay comfortably below it. *)
let effective_domains ?requested () =
  let req = match requested with Some d -> Int.max 1 d | None -> default_domains () in
  Int.max 1 (Int.min (Int.min req 64) (Domain.recommended_domain_count ()))

module Make (S : Shim.S) = struct
  let run ?domains f tasks =
    let n = Array.length tasks in
    let d =
      match domains with
      (* Explicit requests are honored (oversubscription is how tests
         exercise cross-domain execution on small hosts); only the
         runtime's domain cap and the task count bound them. *)
      | Some d -> Int.min d 64
      | None -> effective_domains ()
    in
    (* At least one worker, so an empty task array still returns [||];
       with one, the calling domain claims every task and nothing is
       spawned. *)
    let d = Int.max 1 (Int.min d n) in
    Obs.Metrics.incr m_runs;
    Obs.Metrics.add m_tasks n;
    let next = S.Atomic.make 0 in
    (* A failing task is recorded, not raised: the queue drains fully so
       one poisoned task cannot abandon the rest of the run, and the
       failure is replayed deterministically after the join. *)
    let worker () =
      let rec drain acc =
        let i = S.Atomic.fetch_and_add next 1 in
        if i >= n then acc
        else
          let outcome = match f tasks.(i) with
            | y -> Ok y
            | exception e -> Error e
          in
          drain ((i, outcome) :: acc)
      in
      drain []
    in
    let spawned = Array.init (d - 1) (fun _ -> S.Thread.spawn worker) in
    let own = worker () in
    let parts = Array.map S.Thread.join spawned in
    let slots = Array.make n None in
    let place (i, outcome) = slots.(i) <- Some outcome in
    List.iter place own;
    Array.iter (fun part -> List.iter place part) parts;
    (* Exactly-once by construction: the cursor hands out each index once
       and every claimed index below [n] is executed and recorded.  Scan
       for the lowest failed index first so the raised exception does not
       depend on the domain interleaving. *)
    for i = 0 to n - 1 do
      match slots.(i) with Some (Error e) -> raise e | _ -> ()
    done;
    Array.map
      (function
        | Some (Ok y) -> y
        | Some (Error _) | None ->
            fail "Pool.run: task slot left unfilled (claim cursor bug)")
      slots
end

include Make (Shim.Real)
