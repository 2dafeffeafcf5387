(* Localmodel.Pool model checks (exactly-once execution, index-ordered
   results, deterministic failure replay) and the slot-batch
   equivalence property: a router's batch over a file's slots is
   byte-identical to sequential serving for every graph family, slot
   count and domain count — the correctness contract behind the
   store.pool bench comparisons. *)

open Netgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Pool model: exactly-once, in order, over every small shape *)

let test_pool_model () =
  List.iter
    (fun n ->
      List.iter
        (fun domains ->
          let ran = Array.init n (fun _ -> Atomic.make 0) in
          let tasks = Array.init n (fun i -> i) in
          let out =
            Localmodel.Pool.run ~domains
              (fun i ->
                Atomic.incr ran.(i);
                (i * i) + 1)
              tasks
          in
          let where = Printf.sprintf "n=%d d=%d" n domains in
          check_int (where ^ ": result count") n (Array.length out);
          Array.iteri
            (fun i y ->
              check_int (where ^ ": result at its own index") ((i * i) + 1) y;
              check_int (where ^ ": task ran exactly once") 1 (Atomic.get ran.(i)))
            out)
        [ 1; 2; 3; 4 ])
    [ 0; 1; 2; 7; 100 ]

exception Boom of int

let test_pool_exceptions () =
  List.iter
    (fun domains ->
      let n = 40 in
      let ran = Array.init n (fun _ -> Atomic.make 0) in
      let tasks = Array.init n (fun i -> i) in
      (match
         Localmodel.Pool.run ~domains
           (fun i ->
             Atomic.incr ran.(i);
             if i mod 13 = 5 then raise (Boom i);
             i)
           tasks
       with
      | _ -> Alcotest.fail "a failing task did not fail the run"
      | exception Boom i ->
          (* Deterministic replay: always the lowest failing index,
             regardless of which domain hit which task. *)
          check_int "lowest failing index raised" 5 i);
      (* The queue drained fully despite the failures. *)
      Array.iteri
        (fun i c ->
          check_int (Printf.sprintf "task %d still ran exactly once" i) 1 (Atomic.get c))
        ran)
    [ 1; 2; 4 ]

let pool_equals_map =
  QCheck.Test.make ~count:100 ~name:"Pool.run f = Array.map f"
    QCheck.(pair (array_of_size (Gen.int_bound 60) small_int) (int_range 1 4))
    (fun (xs, domains) ->
      let f x = (2 * x) - 7 in
      Marshal.to_string (Localmodel.Pool.run ~domains f xs) []
      = Marshal.to_string (Array.map f xs) [])

(* ------------------------------------------------------------------ *)
(* Slot batch = sequential serving, byte for byte *)

(* Trusted engine over a packed cycle (the family the C4 encoder
   certifies end to end). *)
let cycle_snapshot n seed =
  let rng = Prng.create seed in
  let g = Builders.cycle n in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let snapshot, _cert = Serve.Pack.edge_compression g x in
  (g, snapshot)

(* An engine over arbitrary advice on an arbitrary graph: the decoder is
   total, so any graph family works, which is what lets the property
   range over grids and random regular graphs that the one-bit encoder
   cannot pack. *)
let raw_engine g advice =
  Serve.Engine.create ~radius:2
    { Store.Snapshot.graph = g; advice = [ ("c4", advice) ]; meta = [] }

let random_advice rng g =
  Array.init (Graph.n g) (fun _ ->
      String.init (Prng.int rng 9) (fun _ -> if Prng.bool rng then '1' else '0'))

let random_queries rng g count =
  Array.init count (fun _ ->
      let v = Prng.int rng (Graph.n g) in
      match Prng.int rng 3 with
      | 0 -> Serve.Engine.Output_label v
      | 1 ->
          let es = Graph.incident_edges g v in
          if Array.length es = 0 then Serve.Engine.Advice_bits v
          else Serve.Engine.Edge_member (v, es.(Prng.int rng (Array.length es)))
      | _ -> Serve.Engine.Advice_bits v)

type family = Cycle | Grid | Regular

let family_name = function Cycle -> "cycle" | Grid -> "grid" | Regular -> "regular"

let build_graph family rng =
  match family with
  | Cycle -> Builders.cycle (3 + Prng.int rng 60)
  | Grid -> Builders.grid (2 + Prng.int rng 5) (2 + Prng.int rng 5)
  | Regular -> Builders.random_regular rng (2 * (4 + Prng.int rng 12)) 3

let engine_of family rng =
  match family with
  | Cycle ->
      let _g, snapshot = cycle_snapshot (20 + (2 * Prng.int rng 40)) (Prng.int rng 1000) in
      Serve.Engine.create snapshot
  | Grid | Regular ->
      let g = build_graph family rng in
      raw_engine g (random_advice rng g)

(* The same snapshot state as [engine_of] (same rng consumption), as a
   file opened through Store.Shard: a packed cycle, or the hand-built
   advice written as a v1 file and served at radius 2 (the decoder is
   total).  The file's one shard is cut into [domains] slots, served by
   a pool of [domains]. *)
let router_of family ~domains rng =
  let open_v1 ?radius bytes =
    Serve.Router.create ?radius ~domains (Store.Shard.open_bytes bytes)
  in
  match family with
  | Cycle ->
      let _g, snapshot = cycle_snapshot (20 + (2 * Prng.int rng 40)) (Prng.int rng 1000) in
      open_v1 (Store.Snapshot.write snapshot)
  | Grid | Regular ->
      let g = build_graph family rng in
      open_v1 ~radius:2
        (Store.Snapshot.write
           { Store.Snapshot.graph = g; advice = [ ("c4", random_advice rng g) ]; meta = [] })

let case_gen =
  QCheck.Gen.(
    tup3 (int_bound 100_000)
      (oneofl [ Cycle; Grid; Regular ])
      (oneofl [ 1; 2; 3; 8 ]))

let case_print (seed, family, domains) =
  Printf.sprintf "seed=%d family=%s domains=%d" seed (family_name family)
    domains

let batch_equals_sequential =
  QCheck.Test.make ~count:40
    ~name:"sharded parallel batch = sequential batch = singles (bytes)"
    (QCheck.make ~print:case_print case_gen)
    (fun (seed, family, domains) ->
      let rng = Prng.create seed in
      (* Three independently built engines over the same snapshot state:
         the parallel path must not be able to lean on cache state the
         sequential one left behind, or vice versa. *)
      let rng2 = Prng.copy rng in
      let rng3 = Prng.copy rng in
      let singles = engine_of family rng3 in
      let parallel = router_of family ~domains rng in
      let sequential = router_of family ~domains:1 rng2 in
      let qrng = Prng.create (seed + 1) in
      let qs = random_queries qrng (Serve.Engine.graph singles) 120 in
      let a = Serve.Router.batch parallel qs in
      let b = Serve.Router.batch sequential qs in
      let c = Array.map (Serve.Engine.query singles) qs in
      let bytes x = Marshal.to_string x [] in
      bytes a = bytes b && bytes b = bytes c)

(* The parallel path must actually cross domains on every runtest, not
   only when a multi-core host happens to run the QCheck case: explicit
   [~domains:2] is honored by the router's pool even on one core. *)
let test_batch_two_domains () =
  let _g, snapshot = cycle_snapshot 160 5 in
  let reference =
    let e = Serve.Engine.create snapshot in
    Array.init 160 (fun v -> Serve.Engine.query e (Serve.Engine.Output_label v))
  in
  let r =
    Serve.Router.create ~domains:2 (Store.Shard.open_bytes (Store.Snapshot.write snapshot))
  in
  check_int "two slots" 2 (Serve.Router.slot_count r);
  let qs = Array.init 160 (fun v -> Serve.Engine.Output_label v) in
  let cold = Serve.Router.batch r qs in
  let warm = Serve.Router.batch r qs in
  check "cold 2-domain batch = singles" true
    (Marshal.to_string cold [] = Marshal.to_string reference []);
  check "warm 2-domain batch = cold" true
    (Marshal.to_string warm [] = Marshal.to_string cold [])

let test_shard_plumbing () =
  let _g, snapshot = cycle_snapshot 24 9 in
  let v1 = Store.Snapshot.write snapshot in
  let slots ?domains () =
    Serve.Router.slot_count (Serve.Router.create ?domains (Store.Shard.open_bytes v1))
  in
  (match slots ~domains:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted zero slots");
  (* More slots than nodes clamps instead of creating empty slots. *)
  check_int "slots clamped to node count" 24 (slots ~domains:99 ());
  (* A container cuts each of its S shards into ⌈D/S⌉ slots: one per
     shard when S >= D. *)
  let v2 = Store.Shard.build ~shards:3 ~halo:24 snapshot in
  let v2_slots domains =
    Serve.Router.slot_count (Serve.Router.create ~domains (Store.Shard.open_bytes v2))
  in
  check_int "S >= D: one slot per shard" 3 (v2_slots 2);
  check_int "S < D: ceil(D/S) slots per shard" 6 (v2_slots 4);
  check "default slot count is the effective domain count" true
    (slots () = Localmodel.Pool.effective_domains ());
  (* Requests clamp to the machine: an absurd ask never exceeds it. *)
  check "effective_domains clamps" true
    (Localmodel.Pool.effective_domains ~requested:4096 ()
    <= Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Capacity-0 caches stay no-ops across the router's slots *)

let test_cache_zero () =
  let c = Serve.Cache.create ~capacity:0 ~n:5 in
  check_int "cap" 0 (Serve.Cache.capacity c);
  Serve.Cache.insert c 3 "x";
  check "never stores" true (Serve.Cache.find c 3 = None);
  check "never mem" false (Serve.Cache.mem c 3);
  check_int "never grows" 0 (Serve.Cache.length c);
  (match Serve.Cache.insert c 9 "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity-0 insert skipped node validation");
  Serve.Cache.clear c;
  check_int "clear is a no-op" 0 (Serve.Cache.length c);
  (* n = 0 and capacity = 0 together. *)
  let c0 = Serve.Cache.create ~capacity:0 ~n:0 in
  check "empty universe, no storage" true (Serve.Cache.find c0 0 = None);
  (* A capacity-0 engine still serves correctly through every path. *)
  let _g, snapshot = cycle_snapshot 60 13 in
  let cold =
    Serve.Router.create ~cache_capacity:0 ~domains:2
      (Store.Shard.open_bytes (Store.Snapshot.write snapshot))
  in
  let reference = Serve.Engine.create snapshot in
  let qs = Array.init 60 (fun v -> Serve.Engine.Output_label v) in
  let a = Serve.Router.batch cold qs in
  let b = Array.map (Serve.Engine.query reference) qs in
  check "uncached batch = cached singles" true
    (Marshal.to_string a [] = Marshal.to_string b [])

let () =
  Alcotest.run "pool"
    [
      ( "pool",
        [
          Alcotest.test_case "exactly-once, index-ordered" `Quick
            test_pool_model;
          Alcotest.test_case "deterministic failure replay" `Quick
            test_pool_exceptions;
          QCheck_alcotest.to_alcotest pool_equals_map;
        ] );
      ( "sharded-batch",
        [
          QCheck_alcotest.to_alcotest batch_equals_sequential;
          Alcotest.test_case "2-domain batch on every runtest" `Quick
            test_batch_two_domains;
          Alcotest.test_case "shard plumbing" `Quick test_shard_plumbing;
        ] );
      ( "cache0",
        [ Alcotest.test_case "capacity-0 is a no-op" `Quick test_cache_zero ] );
    ]
