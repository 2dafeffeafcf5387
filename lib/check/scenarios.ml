(* The checked surface: every entry is either a real component that
   must explore clean, or a gallery mutant that must be caught.  The
   modelcheck CLI and the runtest suite both walk [all ()], so adding
   a scenario here is all it takes to put a workload under the
   scheduler. *)

type expect = Clean | Caught

type t = {
  name : string;
  expect : expect;
  scenario : Sched.scenario;
  preemptions : int;
  max_schedules : int;
}

(* ------------------------------------------------------------------ *)
(* Real components (must verify clean) *)

let pool_scenario (module S : Shim.S) =
  let module P = Serve.Pool.Make (S) in
  let n = 3 in
  let runs = Array.init n (fun _ -> S.Raw.make 0) in
  let out =
    P.run ~domains:2
      (fun i ->
        S.Raw.set runs.(i) (S.Raw.get runs.(i) + 1);
        2 * i)
      (Array.init n Fun.id)
  in
  Array.iteri
    (fun i y ->
      if y <> 2 * i then
        raise (Sched.Check_failed (Printf.sprintf "task %d returned %d" i y)))
    out;
  Array.iteri
    (fun i c ->
      let k = S.Raw.get c in
      if k <> 1 then
        raise (Sched.Check_failed (Printf.sprintf "task %d ran %d times" i k)))
    runs

(* The pool's failure contract, under adversarial schedules: every
   interleaving must drain all tasks and re-raise the lowest-index
   failure — never task 2's, never none. *)
exception Task_boom of int

let pool_failure_replay (module S : Shim.S) =
  let module P = Serve.Pool.Make (S) in
  match
    P.run ~domains:2
      (fun i -> if i >= 1 && i <= 2 then raise (Task_boom i) else i)
      [| 0; 1; 2; 3 |]
  with
  | _ -> raise (Sched.Check_failed "two tasks failed yet the run returned")
  | exception Task_boom i ->
      if i <> 1 then
        raise
          (Sched.Check_failed
             (Printf.sprintf
                "re-raised task %d, not the lowest failed index 1" i))

(* The router's batch path: wave planner + pool + slot-owner cells +
   scatter, over a packed cycle whose one shard is cut into two slots,
   two ranges of one engine's label column, served by a two-domain pool
   (an explicit [~domains:2] is honored on any host).  The router
   (untracked: graph, advice, the shard's label column) is built once
   and shared across schedules — only the per-batch tracked state (claim
   cursor, owner cells) is re-created inside each run, which is what
   the checker needs to see.  Answers must equal the sequential ones on
   every interleaving. *)
let router_fixture =
  lazy
    (let rng = Netgraph.Prng.create 11 in
     let g = Netgraph.Builders.cycle 10 in
     let x = Netgraph.Bitset.create (Netgraph.Graph.m g) in
     Netgraph.Graph.iter_edges
       (fun e _ -> if Netgraph.Prng.bool rng then Netgraph.Bitset.add x e)
       g;
     let snapshot, _cert = Serve.Pack.edge_compression g x in
     let router =
       Serve.Router.create ~domains:2
         (Store.Shard.open_bytes (Store.Snapshot.write snapshot))
     in
     let queries =
       [| Serve.Engine.Output_label 0; Serve.Engine.Output_label 3; Serve.Engine.Output_label 7;
          Serve.Engine.Advice_bits 5 |]
     in
     let expected = Array.map (fun q -> Ok (Serve.Router.query router q)) queries in
     (router, queries, expected))

let router_batch (module S : Shim.S) =
  let router, queries, expected = Lazy.force router_fixture in
  if Serve.Router.slot_count router <> 2 then
    raise (Sched.Check_failed "the fixture router does not have two slots");
  let module B = Serve.Router.Batch (S) in
  let got = B.batch_results router queries in
  if got <> expected then
    raise (Sched.Check_failed "batch answers differ from sequential serving")

(* The metrics cell-registration push: the production CAS loop,
   instantiated with the model's atomics, raced by two fresh fibers
   and the root.  No interleaving may lose a cell. *)
let metrics_cellpush (module S : Shim.S) =
  let module P = Obs.Metrics.Cellpush (S.Atomic) in
  let cells = S.Atomic.make [] in
  let h1 = S.Thread.spawn (fun () -> P.push cells 1) in
  let h2 = S.Thread.spawn (fun () -> P.push cells 2) in
  P.push cells 3;
  S.Thread.join h1;
  S.Thread.join h2;
  let got = List.sort Int.compare (S.Atomic.get cells) in
  if got <> [ 1; 2; 3 ] then
    raise
      (Sched.Check_failed
         (Printf.sprintf "3 cells pushed but %d registered"
            (List.length got)))

(* ------------------------------------------------------------------ *)
(* Registry *)

let clean name ?(preemptions = 2) ?(max_schedules = 20_000) scenario =
  { name; expect = Clean; scenario; preemptions; max_schedules }

let caught name ?(preemptions = 2) ?(max_schedules = 20_000) scenario =
  { name; expect = Caught; scenario; preemptions; max_schedules }

let all () =
  [
    clean "pool.lockless" pool_scenario;
    clean "pool.failure-replay" pool_failure_replay;
    clean "router.batch" ~max_schedules:4_000 router_batch;
    clean "metrics.cellpush" metrics_cellpush;
    caught "mutant.torn-cursor" Mutants.torn_cursor;
    caught "mutant.unfenced-publish" Mutants.unfenced_publish;
    caught "mutant.shared-shard-writer" Mutants.shared_shard_writer;
    caught "mutant.lost-exception-drain" Mutants.lost_exception_drain;
    caught "mutant.lost-cell-push" Mutants.lost_cell_push;
  ]
