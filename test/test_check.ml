(* Check.Sched self-tests: the vector-clock model, determinism and
   replayability of the explorer, the full scenario registry (real
   components clean, gallery mutants caught), and the seeded-schedule
   regression corpus for the pool's deterministic failure replay. *)

module Sched = Check.Sched
module Scenarios = Check.Scenarios
module Vclock = Check.Vclock

(* ------------------------------------------------------------------ *)
(* Vector clocks *)

let test_vclock_laws () =
  let a = Vclock.make () and b = Vclock.make () in
  Vclock.tick a 0;
  Vclock.tick a 0;
  Vclock.tick a 3;
  Alcotest.(check int) "tick accumulates" 2 (Vclock.get a 0);
  Vclock.tick b 1;
  Vclock.merge b a;
  Alcotest.(check int) "merge keeps own component" 1 (Vclock.get b 1);
  let c = Vclock.copy b in
  Vclock.tick b 1;
  Alcotest.(check int) "copy is independent" 1 (Vclock.get c 1);
  Alcotest.(check string) "rendering elides trailing zeros" "[2 1 0 1]"
    (Vclock.to_string c)

(* ------------------------------------------------------------------ *)
(* Explorer mechanics, on the simplest racy scenario *)

let racy_increment (module S : Shim.S) =
  let cell = S.Raw.make 0 in
  let h = S.Thread.spawn (fun () -> S.Raw.set cell (S.Raw.get cell + 1)) in
  S.Raw.set cell (S.Raw.get cell + 1);
  S.Thread.join h

let test_explore_finds_race () =
  let r = Sched.explore racy_increment in
  match r.violation with
  | Some v ->
      Alcotest.(check bool) "kind is Race" true (v.kind = Sched.Race);
      Alcotest.(check bool) "trace is non-empty" true (v.trace <> [])
  | None -> Alcotest.fail "racy increment explored clean"

let test_explore_deterministic () =
  let r1 = Sched.explore racy_increment in
  let r2 = Sched.explore racy_increment in
  Alcotest.(check int) "same schedule count" r1.schedules r2.schedules;
  match (r1.violation, r2.violation) with
  | Some v1, Some v2 ->
      Alcotest.(check (list int)) "same trace" v1.trace v2.trace;
      Alcotest.(check string) "same message" v1.message v2.message
  | _ -> Alcotest.fail "explorations disagreed on finding a violation"

let test_replay_reproduces () =
  let r = Sched.explore racy_increment in
  match r.violation with
  | None -> Alcotest.fail "no violation to replay"
  | Some v -> (
      let again = Sched.replay racy_increment v.trace in
      match again.violation with
      | Some v' ->
          Alcotest.(check bool) "same kind" true (v'.kind = v.kind);
          Alcotest.(check string) "same message" v.message v'.message
      | None -> Alcotest.fail "replay of the violating schedule was clean")

let test_random_replayable () =
  let r = Sched.explore_random ~seed:3 ~schedules:200 racy_increment in
  match r.violation with
  | None -> Alcotest.fail "200 random schedules missed the race"
  | Some v -> (
      match (Sched.replay racy_increment v.trace).violation with
      | Some v' -> Alcotest.(check bool) "kind replays" true (v'.kind = v.kind)
      | None -> Alcotest.fail "random-found violation did not replay")

let test_clean_is_exhaustive () =
  let independent (module S : Shim.S) =
    let a = S.Raw.make 0 and b = S.Raw.make 0 in
    let h = S.Thread.spawn (fun () -> S.Raw.set b 1) in
    S.Raw.set a 1;
    S.Thread.join h
  in
  let r = Sched.explore independent in
  Alcotest.(check bool) "no violation" true (r.violation = None);
  Alcotest.(check bool) "space exhausted" true r.complete;
  Alcotest.(check bool) "interleavings explored" true (r.schedules > 1)

(* The deadlock detector: a join is the one blocking operation, so a
   fiber that reads its own handle from a cell and joins it waits
   forever.  The non-preemptive first schedule publishes the handle
   before the fiber runs, so the root and the fiber both end up
   joining fiber 1. *)
let self_join (module S : Shim.S) =
  let cell = S.Atomic.make None in
  let h =
    S.Thread.spawn (fun () ->
        match S.Atomic.get cell with Some h -> S.Thread.join h | None -> ())
  in
  S.Atomic.set cell (Some h);
  S.Thread.join h

let test_self_join_deadlocks () =
  let stuck = "fiber 0 joining fiber 1; fiber 1 joining fiber 1" in
  match (Sched.explore self_join).violation with
  | None -> Alcotest.fail "a self-join explored clean"
  | Some v -> (
      Alcotest.(check bool) "kind is Deadlock" true (v.kind = Sched.Deadlock);
      Alcotest.(check string) "names both joins" stuck v.message;
      match (Sched.replay self_join v.trace).violation with
      | Some v' ->
          Alcotest.(check bool) "replay: Deadlock" true (v'.kind = Sched.Deadlock);
          Alcotest.(check string) "replay: same message" stuck v'.message
      | None -> Alcotest.fail "replay of the self-join was clean")

(* ------------------------------------------------------------------ *)
(* The registry: what @modelcheck gates, as a runtest entry *)

let test_scenarios () =
  List.iter
    (fun (s : Scenarios.t) ->
      let r =
        Sched.explore ~preemptions:s.preemptions
          ~max_schedules:s.max_schedules s.scenario
      in
      match (s.expect, r.violation) with
      | Scenarios.Clean, None -> ()
      | Scenarios.Clean, Some v ->
          Alcotest.fail
            (Printf.sprintf "%s: unexpected %s" s.name (Sched.pp_violation v))
      | Scenarios.Caught, None ->
          Alcotest.fail (Printf.sprintf "%s: mutant explored clean" s.name)
      | Scenarios.Caught, Some v -> (
          match (Sched.replay s.scenario v.trace).violation with
          | Some v' when v'.kind = v.kind -> ()
          | _ ->
              Alcotest.fail
                (Printf.sprintf "%s: violation did not replay: %s" s.name
                   (Sched.pp_violation v))))
    (Scenarios.all ())

(* ------------------------------------------------------------------ *)
(* Seeded-schedule regression corpus: the pool's deterministic
   lowest-index failure replay, pushed through adversarial random
   schedules.  These seeds are pinned — a scheduler change may alter
   which interleavings they denote, but whatever they denote must keep
   the pool's contract. *)

let corpus_seeds = [ 1; 2; 5; 11; 23; 42; 97; 1009 ]

let find_scenario name =
  match List.find_opt (fun (s : Scenarios.t) -> s.name = name) (Scenarios.all ())
  with
  | Some s -> s
  | None -> Alcotest.fail ("scenario missing from registry: " ^ name)

let test_failure_replay_corpus () =
  let s = find_scenario "pool.failure-replay" in
  List.iter
    (fun seed ->
      let r = Sched.explore_random ~seed ~schedules:150 s.scenario in
      match r.violation with
      | None -> ()
      | Some v ->
          Alcotest.fail
            (Printf.sprintf "seed %d broke failure replay: %s" seed
               (Sched.pp_violation v)))
    corpus_seeds

let () =
  Alcotest.run "check"
    [
      ( "vclock",
        [ Alcotest.test_case "clock laws" `Quick test_vclock_laws ] );
      ( "sched",
        [
          Alcotest.test_case "finds a race" `Quick test_explore_finds_race;
          Alcotest.test_case "deterministic exploration" `Quick
            test_explore_deterministic;
          Alcotest.test_case "violations replay" `Quick test_replay_reproduces;
          Alcotest.test_case "random schedules replay" `Quick
            test_random_replayable;
          Alcotest.test_case "clean space exhausts" `Quick
            test_clean_is_exhaustive;
          Alcotest.test_case "a self-join deadlocks" `Quick
            test_self_join_deadlocks;
        ] );
      ( "scenarios",
        [ Alcotest.test_case "registry expectations" `Quick test_scenarios ] );
      ( "corpus",
        [
          Alcotest.test_case "pool failure replay under seeded schedules"
            `Quick test_failure_replay_corpus;
        ] );
    ]
