(* Sharded snapshot container (Store.Shard) + routing (Serve.Router):
   wire round-trips, lazy loads under a resident-byte budget,
   byte-identity of sharded answers against the monolithic engine
   across families × shard counts × budgets, the unified front end
   (v1 files and v2 containers, both through Store.Shard) against the
   direct decoder on every node, one-shard corruption quarantine, v1/v2 version
   compatibility, and bounded range reads with fault injection. *)

open Netgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Builders shared by the tests *)

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

(* Every ball query of each listed node: its label, then one membership
   per incident edge. *)
let ball_queries g nodes =
  Array.concat
    (List.map
       (fun v ->
         Array.append
           [| Serve.Engine.Output_label v |]
           (Array.map (fun e -> Serve.Engine.Edge_member (v, e)) (Graph.incident_edges g v)))
       nodes)

(* [g] packed with a seeded random edge subset, certified exhaustively. *)
let packed_snapshot g seed =
  let rng = Prng.create seed in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let snapshot, cert = Serve.Pack.edge_compression g x in
  (g, snapshot, cert)

let cycle_snapshot n seed = packed_snapshot (Builders.cycle n) seed

(* A mono engine and a router over the *same* snapshot state.  The
   router serves from a sharded serialization with halo = max radius 1;
   byte-identity of every answer is the contract under test. *)
let mono_and_router ?(budget = 0) ?domains ~radius ~shards snapshot =
  let mono = Serve.Engine.create ~radius snapshot in
  let bytes = Store.Shard.build ~shards ~halo:(max radius 1) snapshot in
  let store = Store.Shard.open_bytes bytes in
  let router =
    Serve.Router.create ~resident_budget:budget ~salvage:true ~radius ?domains store
  in
  (mono, router)

(* Label-column traffic: [serve.cache.hits]/[serve.cache.misses] count
   column hits and misses.  Counters record only while metrics are
   enabled, so the tests that read them run under [with_metrics]. *)
let counter name =
  List.fold_left
    (fun acc e ->
      match e.Obs.Metrics.value with
      | Obs.Metrics.Counter_v { total; _ } when String.equal e.Obs.Metrics.name name -> total
      | _ -> acc)
    0 (Obs.Metrics.snapshot ())

let misses () = counter "serve.cache.misses"
let hits () = counter "serve.cache.hits"

let with_metrics f =
  Obs.Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) f

(* Decoders over arbitrary advice may raise; identical balls + ids +
   advice must then raise identically, so compare *outcomes*. *)
let outcome f =
  match f () with
  | a -> Ok (Marshal.to_string a [])
  | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Wire round-trip *)

let test_round_trip () =
  let _g, snapshot, cert = cycle_snapshot 64 7 in
  let bytes =
    Store.Shard.build ~shards:3 ~halo:(max cert.Serve.Pack.radius 1) snapshot
  in
  let store = Store.Shard.open_bytes bytes in
  let man = Store.Shard.manifest store in
  check_int "n" 64 man.Store.Shard.m_n;
  check_int "m" 64 man.Store.Shard.m_m;
  check_int "shards" 3 (Array.length man.Store.Shard.m_shards);
  check "advice names" true (man.Store.Shard.m_advice = [ "c4" ]);
  check "meta carried" true
    (List.mem_assoc "serve.radius" man.Store.Shard.m_meta);
  let seen = Array.make 64 false in
  Array.iteri
    (fun k info ->
      let loaded = Store.Shard.load store k in
      check_int "index" k loaded.Store.Shard.l_index;
      check_int "local n" info.Store.Shard.i_local_n
        (Array.length loaded.Store.Shard.l_ids);
      check_int "local graph n" info.Store.Shard.i_local_n
        (Graph.n loaded.Store.Shard.l_graph);
      check_int "local m" info.Store.Shard.i_local_m
        (Array.length loaded.Store.Shard.l_edge_ids);
      (* ids strictly increasing and interior covered *)
      Array.iteri
        (fun i v ->
          if i > 0 then
            check "ids sorted" true (v > loaded.Store.Shard.l_ids.(i - 1)))
        loaded.Store.Shard.l_ids;
      for v = info.Store.Shard.i_lo to info.Store.Shard.i_hi - 1 do
        check "interior present" true
          (Array.exists (Int.equal v) loaded.Store.Shard.l_ids);
        check "owner" true (Store.Shard.shard_of_node man v = k);
        seen.(v) <- true
      done)
    man.Store.Shard.m_shards;
  check "interiors partition the nodes" true (Array.for_all Fun.id seen);
  (* The manifest's byte ranges tile the file exactly. *)
  let last = man.Store.Shard.m_shards.(2) in
  check_int "frames end at EOF" (String.length bytes)
    (last.Store.Shard.i_offset + last.Store.Shard.i_bytes)

let test_version_dispatch () =
  let g, snapshot, cert = cycle_snapshot 32 3 in
  let v1 = Store.Snapshot.write snapshot in
  let v2 =
    Store.Shard.build ~shards:2 ~halo:(max cert.Serve.Pack.radius 1) snapshot
  in
  (* v1 still loads through Snapshot — the compatibility regression. *)
  let round = Store.Snapshot.read v1 in
  check_string "v1 re-pack byte-identical" v1 (Store.Snapshot.write round);
  (* Snapshot.read rejects a v2 container with a pointed hint. *)
  (match Store.Snapshot.read v2 with
  | _ -> Alcotest.fail "Snapshot.read accepted a v2 container"
  | exception Store.Codec.Corrupt msg ->
      check "v2 hint names Store.Shard" true
        (String.length msg > 0
        && Option.is_some
             (String.index_opt msg 'S' (* crude: message mentions Shard *))));
  (* Store.Shard reads both: a v1 file is a one-shard container whose
     one row spans the whole graph. *)
  let man = Store.Shard.manifest (Store.Shard.open_bytes v1) in
  check_int "v1 n" (Graph.n g) man.Store.Shard.m_n;
  check_int "v1 m" (Graph.m g) man.Store.Shard.m_m;
  check "v1 advice names" true (man.Store.Shard.m_advice = [ "c4" ]);
  check "v1 meta verbatim" true (man.Store.Shard.m_meta = snapshot.Store.Snapshot.meta);
  check "v1 one row over the whole graph" true
    (match man.Store.Shard.m_shards with
    | [| i |] ->
        i.Store.Shard.i_lo = 0 && i.Store.Shard.i_hi = Graph.n g
        && i.Store.Shard.i_local_n = Graph.n g
        && i.Store.Shard.i_local_m = Graph.m g
        && i.Store.Shard.i_bytes = String.length v1
    | _ -> false);
  (* Bad magic and an unknown version still fail at open. *)
  let patched at c =
    let b = Bytes.of_string v1 in
    Bytes.set b at c;
    Bytes.to_string b
  in
  List.iter
    (fun (what, bytes) ->
      match Store.Shard.open_bytes bytes with
      | _ -> Alcotest.failf "Shard.open_bytes accepted %s" what
      | exception Store.Codec.Corrupt _ -> ())
    [ ("bad magic", patched 0 'X'); ("version 3", patched 4 '\003') ];
  (* In-file version peek drives inspect's report. *)
  let dir = Filename.temp_file "shardv" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let p1 = Filename.concat dir "a.ladv" and p2 = Filename.concat dir "b.ladv" in
  Store.Io.write_file p1 v1;
  Store.Io.write_file p2 v2;
  check_int "peek v1" 1 (Store.Shard.peek_version p1);
  check_int "peek v2" 2 (Store.Shard.peek_version p2);
  List.iter
    (fun p ->
      let router = Serve.Router.create (Store.Shard.open_file p) in
      check_int "router radius from metadata" cert.Serve.Pack.radius
        (Serve.Router.radius router))
    [ p1; p2 ];
  Sys.remove p1;
  Sys.remove p2;
  Unix.rmdir dir

(* Both writers reject what Snapshot.validate rejects, before encoding:
   a NUL metadata key used to reach the manifest of a container. *)
let test_build_validates () =
  let _, snapshot, _ = cycle_snapshot 40 5 in
  let n = Graph.n snapshot.Store.Snapshot.graph in
  let bad =
    [
      ("NUL metadata key",
       { snapshot with
         Store.Snapshot.meta = snapshot.Store.Snapshot.meta @ [ ("k\000ey", "v") ] });
      ("NUL advice name",
       { snapshot with Store.Snapshot.advice = [ ("c\0004", Array.make n "1") ] });
      ("short assignment",
       { snapshot with Store.Snapshot.advice = [ ("c4", [| "1" |]) ] });
      ("non-bit assignment",
       { snapshot with Store.Snapshot.advice = [ ("c4", Array.make n "10x") ] });
    ]
  in
  List.iter
    (fun (what, s) ->
      (match Store.Shard.build ~shards:2 ~halo:1 s with
      | _ -> Alcotest.failf "Shard.build accepted a %s" what
      | exception Invalid_argument _ -> ());
      match Store.Snapshot.write s with
      | _ -> Alcotest.failf "Snapshot.write accepted a %s" what
      | exception Invalid_argument _ -> ())
    bad

(* ------------------------------------------------------------------ *)
(* Byte-identity: router answers = monolithic engine answers *)

type family = Cycle | Grid | Regular

let family_name = function Cycle -> "cycle" | Grid -> "grid" | Regular -> "regular"

let family_state family rng =
  match family with
  | Cycle ->
      let _g, snapshot, cert =
        cycle_snapshot (20 + (2 * Prng.int rng 40)) (Prng.int rng 1000)
      in
      (snapshot, cert.Serve.Pack.radius)
  | Grid ->
      let g = Builders.grid (2 + Prng.int rng 5) (2 + Prng.int rng 5) in
      ( { Store.Snapshot.graph = g;
          advice = [ ("c4", random_advice rng g) ];
          meta = [] },
        2 )
  | Regular ->
      let g = Builders.random_regular rng (2 * (4 + Prng.int rng 12)) 3 in
      ( { Store.Snapshot.graph = g;
          advice = [ ("c4", random_advice rng g) ];
          meta = [] },
        2 )

let identity_case_gen =
  QCheck.Gen.(
    tup4 (int_bound 100_000)
      (oneofl [ Cycle; Grid; Regular ])
      (oneofl [ 1; 2; 3; 8 ])
      (oneofl [ 0; 1 ] (* resident budget: unbounded / one-shard thrash *)))

let identity_case_print (seed, family, shards, budget) =
  Printf.sprintf "seed=%d family=%s shards=%d budget=%d" seed
    (family_name family) shards budget

let prop_query_identity =
  QCheck.Test.make ~count:60 ~name:"router query outcomes = mono engine"
    (QCheck.make ~print:identity_case_print identity_case_gen)
    (fun (seed, family, shards, budget) ->
      let rng = Prng.create (seed + 17) in
      let snapshot, radius = family_state family rng in
      let mono, router = mono_and_router ~budget ~radius ~shards snapshot in
      let g = snapshot.Store.Snapshot.graph in
      let qs = random_queries rng g 40 in
      Array.for_all
        (fun q ->
          outcome (fun () -> Serve.Engine.query mono q)
          = outcome (fun () -> Serve.Router.query router q))
        qs)

let batch_case_gen =
  QCheck.Gen.(
    tup4 (int_bound 100_000)
      (oneofl [ 1; 2; 3; 8 ])
      (oneofl [ 0; 1 ])
      (int_range 1 3))

let batch_case_print (seed, shards, budget, domains) =
  Printf.sprintf "seed=%d shards=%d budget=%d domains=%d" seed shards budget
    domains

let prop_batch_identity =
  QCheck.Test.make ~count:40
    ~name:"router batch = mono batch (certified cycles), byte for byte"
    (QCheck.make ~print:batch_case_print batch_case_gen)
    (fun (seed, shards, budget, domains) ->
      let rng = Prng.create (seed + 23) in
      let snapshot, radius = family_state Cycle rng in
      let mono, router = mono_and_router ~budget ~domains ~radius ~shards snapshot in
      let g = snapshot.Store.Snapshot.graph in
      let qs = random_queries rng g 60 in
      let expect = Array.map (Serve.Engine.query mono) qs in
      let got = Serve.Router.batch router qs in
      Marshal.to_string expect [] = Marshal.to_string got [])

let prop_pack_sharded_identity =
  QCheck.Test.make ~count:25
    ~name:"container of one pack serves = mono pack"
    (QCheck.make
       ~print:(fun (seed, shards) -> Printf.sprintf "seed=%d shards=%d" seed shards)
       QCheck.Gen.(tup2 (int_bound 100_000) (oneofl [ 1; 2; 5 ])))
    (fun (seed, shards) ->
      let rng = Prng.create seed in
      let n = 24 + (2 * Prng.int rng 30) in
      let g = Builders.cycle n in
      let x = Bitset.create (Graph.m g) in
      Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
      let snapshot, cert_mono = Serve.Pack.edge_compression ~domains:1 g x in
      let packed, cert_par = Serve.Pack.edge_compression ~domains:2 g x in
      let bytes =
        Store.Shard.build ~shards ~halo:(max cert_par.Serve.Pack.radius 1)
          ~domains:2
          packed
      in
      let mono = Serve.Engine.create snapshot in
      let router = Serve.Router.create ~domains:1 (Store.Shard.open_bytes bytes) in
      let qs = random_queries rng g 40 in
      cert_mono.Serve.Pack.radius = cert_par.Serve.Pack.radius
      && Marshal.to_string (Array.map (Serve.Engine.query mono) qs) []
         = Marshal.to_string (Serve.Router.batch router qs) [])

(* The unified front end against the direct decoder, on every node of a
   packed cycle or circulant: v1 files opened through Store.Shard as
   routers of 1, 2 or 3 slots and v2 containers of 1 or 3 shards, memo
   on and off, trusted and salvaged (a v1 file with a damaged decoy
   section, a v2 container opened in salvage mode), single queries and
   batches at 1 or 2 domains (a v1 front batches on its slot count) —
   each front end serves the batch cold or warm.  A second full pass
   must then give the same bytes without a single label-column miss:
   each node is decoded once, also when a slot
   holds more than a thousand nodes (one case in three serves one of two
   packed cycles of over 1024 nodes, packed once for the whole run).
   One case in three packs the CLI's other family, the degree-4
   circulant C_n(1, 2), at 60 <= n < 80. *)
type front = V1 of int | Container of int

let front_name = function
  | V1 k -> Printf.sprintf "v1 %d slot(s)" k
  | Container k -> Printf.sprintf "v2 %d shard(s)" k

(* [snapshot] with a second, damaged advice section: salvage keeps the
   intact c4 section trusted and reports the decoy quarantined. *)
let salvaged_v1 snapshot =
  let a = List.assoc "c4" snapshot.Store.Snapshot.advice in
  let bytes =
    Store.Snapshot.write
      { snapshot with Store.Snapshot.advice = [ ("c4", a); ("decoy", a) ] }
  in
  let decoy =
    List.nth
      (List.filter
         (fun s -> s.Store.Codec.tag = Store.Snapshot.tag_advice)
         (Store.Snapshot.sections bytes))
      1
  in
  let b = Bytes.of_string bytes in
  let pos = decoy.Store.Codec.offset + 5 + decoy.Store.Codec.length - 1 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
  Bytes.to_string b

(* A [V1 k] front's domain count is its slot count [k]; a container's
   is [domains]. *)
let front_router ~front ~memo ~salvaged ~radius ~domains snapshot =
  match front with
  | V1 slots ->
      let bytes =
        if salvaged then salvaged_v1 snapshot else Store.Snapshot.write snapshot
      in
      Serve.Router.create ?memo ~salvage:salvaged ~domains:slots
        (Store.Shard.open_bytes bytes)
  | Container shards ->
      Serve.Router.create ?memo ~salvage:salvaged ~domains
        (Store.Shard.open_bytes (Store.Shard.build ~shards ~halo:(max radius 1) snapshot))

let large_cycles = lazy [| cycle_snapshot 1030 1; cycle_snapshot 1052 2 |]

let prop_front_end_matches_decoder =
  QCheck.Test.make ~count:30 ~name:"front end = direct decoder on every node"
    (QCheck.make
       ~print:(fun (seed, front, memo, salvaged, domains) ->
         Printf.sprintf "seed=%d %s memo=%b salvaged=%b domains=%d" seed
           (front_name front) memo salvaged domains)
       QCheck.Gen.(
         tup5 (int_bound 100_000)
           (oneofl [ V1 1; V1 2; V1 3; Container 1; Container 3 ])
           bool bool (int_range 1 2)))
    (fun (seed, front, memo, salvaged, domains) ->
      let rng = Prng.create seed in
      let g, snapshot, cert =
        match Prng.int rng 3 with
        | 0 -> (Lazy.force large_cycles).(Prng.int rng 2)
        | 1 -> packed_snapshot (Builders.circulant (60 + Prng.int rng 20) [ 1; 2 ]) seed
        | _ -> cycle_snapshot (20 + (2 * Prng.int rng 30)) seed
      in
      let a = List.assoc "c4" snapshot.Store.Snapshot.advice in
      let decoded = Schemas.Edge_compression.decode g a in
      let memo = if memo then Some (Serve.Memo.create ~capacity:256) else None in
      let router =
        front_router ~front ~memo ~salvaged ~radius:cert.Serve.Pack.radius ~domains snapshot
      in
      let per_node v =
        let es = Graph.incident_edges g v in
        let label =
          String.init (Graph.degree g v) (fun i ->
              let u = (Graph.neighbors g v).(i) in
              if Bitset.mem decoded (Graph.edge_id g v u) then '1' else '0')
        in
        (Serve.Engine.Output_label v, Serve.Engine.Label label)
        :: (Serve.Engine.Advice_bits v, Serve.Engine.Bits a.(v))
        :: List.map
             (fun e -> (Serve.Engine.Edge_member (v, e), Serve.Engine.Member (Bitset.mem decoded e)))
             (Array.to_list es)
      in
      let cases = Array.of_list (List.concat_map per_node (List.init (Graph.n g) Fun.id)) in
      (* Structural equality compares every label byte; Marshal would
         also compare sharing, which memo hits legitimately add. *)
      let qs = Array.map fst cases and expected = Array.map snd cases in
      let singles () = Array.map (Serve.Router.query router) qs = expected in
      let batch () =
        Serve.Router.batch_results router qs = Array.map (fun a -> Ok a) expected
      in
      let pass () =
        if seed mod 2 = 0 then
          let b = batch () in
          b && singles ()
        else
          let s = singles () in
          s && batch ()
      in
      with_metrics @@ fun () ->
      let first = pass () in
      let before = misses () in
      let second = pass () in
      first && second
      && misses () = before
      && Serve.Router.degraded router
         = (salvaged && match front with V1 _ -> true | Container _ -> false))

(* The same instance as a v1 file and as a one-shard v2 container: two
   encodings of one shard, answering byte-identically on every node,
   with the same health and owner map.  The container's halo is 1, far
   below the serve radius: one shard stores the whole graph, so it
   serves any radius. *)
let test_v1_equals_one_shard () =
  let g, snapshot, cert = cycle_snapshot 90 4 in
  check "radius above the halo" true (cert.Serve.Pack.radius > 1);
  let open_router bytes = Serve.Router.create ~domains:2 (Store.Shard.open_bytes bytes) in
  let v1 = open_router (Store.Snapshot.write snapshot) in
  let one = open_router (Store.Shard.build ~shards:1 ~halo:1 snapshot) in
  let qs = ball_queries g (List.init (Graph.n g) Fun.id) in
  let qs = Array.append qs (Array.init (Graph.n g) (fun v -> Serve.Engine.Advice_bits v)) in
  check "singles byte-identical" true
    (Marshal.to_string (Array.map (Serve.Router.query v1) qs) []
    = Marshal.to_string (Array.map (Serve.Router.query one) qs) []);
  check "batches byte-identical" true
    (Marshal.to_string (Serve.Router.batch v1 qs) []
    = Marshal.to_string (Serve.Router.batch one qs) []);
  check "degraded equal" (Serve.Router.degraded one) (Serve.Router.degraded v1);
  check "serving_trusted equal" (Serve.Router.serving_trusted one)
    (Serve.Router.serving_trusted v1);
  check_int "slot counts equal" (Serve.Router.slot_count one) (Serve.Router.slot_count v1);
  Graph.iter_nodes
    (fun v ->
      check_int "shard_of equal" (Serve.Router.shard_of one v) (Serve.Router.shard_of v1 v))
    g

(* Below the certified radius the engine stays total.  At radius 0 a
   ball is its center alone and every label is [""], so an
   [Edge_member] reads its incident position past the label as '0' —
   through the engine, the router's single queries and its batches, for
   v1 slots and v2 shards alike. *)
let test_radius_zero_total () =
  let g, snapshot, _cert = cycle_snapshot 16 3 in
  let qs = ball_queries g (List.init (Graph.n g) Fun.id) in
  let expected =
    Array.map
      (function
        | Serve.Engine.Edge_member _ -> Serve.Engine.Member false
        | Serve.Engine.Output_label _ | Serve.Engine.Advice_bits _ -> Serve.Engine.Label "")
      qs
  in
  let engine = Serve.Engine.create ~radius:0 snapshot in
  check "Engine.query" true (Array.map (Serve.Engine.query engine) qs = expected);
  let fronts =
    [
      ( "v1",
        fun () ->
          Serve.Router.create ~radius:0 ~domains:2
            (Store.Shard.open_bytes (Store.Snapshot.write snapshot)) );
      ( "v2",
        fun () ->
          Serve.Router.create ~radius:0 ~domains:2
            (Store.Shard.open_bytes (Store.Shard.build ~shards:3 ~halo:1 snapshot)) );
    ]
  in
  List.iter
    (fun (name, make) ->
      check (name ^ " Router.query") true (Array.map (Serve.Router.query (make ())) qs = expected);
      check (name ^ " batch_results") true
        (Serve.Router.batch_results (make ()) qs
        = Array.map (fun a -> Ok a) expected))
    fronts

(* The packer's fast induction path: [Graph.induced_sorted] must agree
   with the general [Graph.induced] on every sorted node subset — same
   adjacency, same edge enumeration, same incident tables. *)
let prop_induced_sorted_identity =
  QCheck.Test.make ~count:80
    ~name:"induced_sorted = induced on sorted subsets"
    (QCheck.make
       ~print:(fun (seed, fam) -> Printf.sprintf "seed=%d family=%d" seed fam)
       QCheck.Gen.(tup2 (int_bound 100_000) (int_bound 2)))
    (fun (seed, fam) ->
      let rng = Prng.create (seed + 71) in
      let g =
        match fam with
        | 0 -> Builders.cycle (8 + Prng.int rng 60)
        | 1 ->
            let side = 3 + Prng.int rng 6 in
            Builders.grid side side
        | _ -> Builders.random_regular rng (2 * (8 + Prng.int rng 10)) 4
      in
      let picked =
        List.filter (fun _ -> Prng.bool rng)
          (List.init (Graph.n g) (fun v -> v))
      in
      let ids = Array.of_list picked in
      let fast = Graph.induced_sorted g ids in
      let slow, _to_sub, to_orig = Graph.induced g picked in
      let adj_of h = Array.init (Graph.n h) (fun v -> Graph.neighbors h v) in
      Array.for_all2 (fun a b -> a = b) to_orig ids
      && Graph.n fast = Graph.n slow
      && Graph.m fast = Graph.m slow
      && adj_of fast = adj_of slow
      && Graph.edges fast = Graph.edges slow
      && Array.init (Graph.n fast) (fun v -> Graph.incident_edges fast v)
         = Array.init (Graph.n slow) (fun v -> Graph.incident_edges slow v))

(* The writer serializes each shard's subgraph in a fused pass over the
   host graph (no local Graph.t is built); what comes back from [load]
   must still be exactly [induced_sorted] of the shard's id table, with
   every edge id agreeing with the host graph's numbering. *)
let prop_fused_writer_matches_induced =
  QCheck.Test.make ~count:40
    ~name:"loaded shard graph = induced_sorted of its ids"
    (QCheck.make
       ~print:(fun (seed, shards) -> Printf.sprintf "seed=%d shards=%d" seed shards)
       QCheck.Gen.(tup2 (int_bound 100_000) (oneofl [ 1; 3; 4; 7 ])))
    (fun (seed, shards) ->
      let rng = Prng.create (seed + 19) in
      let g =
        if Prng.bool rng then Builders.cycle (16 + Prng.int rng 60)
        else
          let side = 4 + Prng.int rng 5 in
          Builders.grid side side
      in
      let x = Bitset.create (Graph.m g) in
      Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
      let snapshot, _ = Serve.Pack.edge_compression g x in
      let halo = 1 + Prng.int rng 3 in
      let bytes = Store.Shard.build ~shards ~halo snapshot in
      let store = Store.Shard.open_bytes bytes in
      let man = Store.Shard.manifest store in
      Array.for_all
        (fun info ->
          let l = Store.Shard.load store info.Store.Shard.i_index in
          let h = Graph.induced_sorted g l.Store.Shard.l_ids in
          let adj_of k = Array.init (Graph.n k) (fun v -> Graph.neighbors k v) in
          Graph.n l.Store.Shard.l_graph = Graph.n h
          && Graph.m l.Store.Shard.l_graph = Graph.m h
          && adj_of l.Store.Shard.l_graph = adj_of h
          && Graph.edges l.Store.Shard.l_graph = Graph.edges h
          && Array.for_all2
               (fun gid (u, v) ->
                 gid
                 = Graph.edge_id g
                     l.Store.Shard.l_ids.(u)
                     l.Store.Shard.l_ids.(v))
               l.Store.Shard.l_edge_ids
               (Graph.edges l.Store.Shard.l_graph))
        man.Store.Shard.m_shards)

(* ------------------------------------------------------------------ *)
(* Budget: lazy loads, LRU eviction, bounded residency *)

let test_budget_eviction () =
  let _g, snapshot, cert = cycle_snapshot 120 11 in
  let radius = cert.Serve.Pack.radius in
  let bytes = Store.Shard.build ~shards:4 ~halo:(max radius 1) snapshot in
  let store = Store.Shard.open_bytes bytes in
  let man = Store.Shard.manifest store in
  let max_frame =
    Array.fold_left
      (fun acc i -> max acc i.Store.Shard.i_bytes)
      0 man.Store.Shard.m_shards
  in
  (* Budget of exactly one largest shard: every cross-shard hop evicts. *)
  let router =
    Serve.Router.create ~resident_budget:max_frame ~radius store
  in
  check_int "nothing resident before first query" 0
    (Serve.Router.resident_bytes router);
  let mono = Serve.Engine.create ~radius snapshot in
  let peak = ref 0 in
  for v = 0 to 119 do
    let q = Serve.Engine.Output_label v in
    check_string
      (Printf.sprintf "label %d identical under eviction" v)
      (Marshal.to_string (Serve.Engine.query mono q) [])
      (Marshal.to_string (Serve.Router.query router q) []);
    peak := max !peak (Serve.Router.resident_bytes router)
  done;
  check "peak residency within budget" true (!peak <= max_frame);
  check "budget well below full container" true
    (max_frame < String.length bytes);
  check "loads counted" true (Serve.Router.loads router >= 4);
  check "evictions happened" true (Serve.Router.evictions router > 0);
  check_int "one shard resident at the end" 1
    (Serve.Router.resident_shards router)

(* The column switched off, and residency, read off the column counters. *)

let capacity_fronts snapshot ~radius =
  [
    ( "v1 3 slots",
      fun ~memo cap ->
        Serve.Router.create ?cache_capacity:cap ?memo ~domains:3
          (Store.Shard.open_bytes (Store.Snapshot.write snapshot)) );
    ( "v2 3 shards",
      fun ~memo cap ->
        Serve.Router.create ?cache_capacity:cap ?memo ~domains:2
          (Store.Shard.open_bytes (Store.Shard.build ~shards:3 ~halo:(max radius 1) snapshot)) );
  ]

(* [~cache_capacity:0] stores nothing: every ball query decodes, through
   single queries and batches alike, and answers stay byte-identical. *)
let test_capacity_zero_decodes () =
  let g, snapshot, cert = cycle_snapshot 60 13 in
  let rng = Prng.create 5 in
  let qs = random_queries rng g 200 in
  let balls =
    Array.fold_left
      (fun acc q -> match q with Serve.Engine.Advice_bits _ -> acc | _ -> acc + 1)
      0 qs
  in
  let reference = Serve.Engine.create snapshot in
  let expected = Array.map (Serve.Engine.query reference) qs in
  with_metrics @@ fun () ->
  List.iter
    (fun (name, make) ->
      List.iter
        (fun memo ->
          let router = make ~memo (Some 0) in
          let h0 = hits () and m0 = misses () in
          for _ = 1 to 2 do
            check (name ^ ": singles") true (Array.map (Serve.Router.query router) qs = expected);
            check (name ^ ": batch") true
              (Serve.Router.batch_results router qs = Array.map (fun a -> Ok a) expected)
          done;
          check_int (name ^ ": no column hit") 0 (hits () - h0);
          check_int (name ^ ": every ball query decodes") (4 * balls) (misses () - m0))
        [ None; Some (Serve.Memo.create ~capacity:64) ])
    (capacity_fronts snapshot ~radius:cert.Serve.Pack.radius)

(* Under a one-frame budget a shard's column leaves with its engine: the
   nodes of an evicted shard decode again once it reloads, with the
   same bytes, and hit again while it stays resident — memo on or off
   (the memo survives eviction; the column does not). *)
let test_evicted_shard_decodes_again () =
  let g, snapshot, cert = cycle_snapshot 120 11 in
  let radius = cert.Serve.Pack.radius in
  let store = Store.Shard.open_bytes (Store.Shard.build ~shards:4 ~halo:(max radius 1) snapshot) in
  let man = Store.Shard.manifest store in
  let max_frame =
    Array.fold_left (fun acc i -> max acc i.Store.Shard.i_bytes) 0 man.Store.Shard.m_shards
  in
  let interior k =
    let info = man.Store.Shard.m_shards.(k) in
    List.init (info.Store.Shard.i_hi - info.Store.Shard.i_lo) (fun i -> info.Store.Shard.i_lo + i)
  in
  let q0 = ball_queries g (interior 0) and q1 = ball_queries g (interior 1) in
  let nodes0 = List.length (interior 0) in
  let mono = Serve.Engine.create ~radius snapshot in
  let expected = Array.map (Serve.Engine.query mono) q0 in
  with_metrics @@ fun () ->
  List.iter
    (fun memo ->
      let router = Serve.Router.create ~resident_budget:max_frame ?memo ~radius store in
      let serve qs = Array.map (Serve.Router.query router) qs in
      let decoded f =
        let m0 = misses () in
        let answers = f () in
        (answers, misses () - m0)
      in
      let first, d1 = decoded (fun () -> serve q0) in
      let _, d2 = decoded (fun () -> serve q0) in
      check "first touch = mono" true (first = expected);
      check_int "each node decoded once" nodes0 d1;
      check_int "resident shard: column hits only" 0 d2;
      ignore (serve q1);
      check "shard 0 was evicted" true (Serve.Router.evictions router > 0);
      let again, d3 = decoded (fun () -> serve q0) in
      check "reload = first touch, byte for byte" true (again = first);
      check_int "evicted nodes decode again on reload" nodes0 d3)
    [ None; Some (Serve.Memo.create ~capacity:256) ]

(* ------------------------------------------------------------------ *)
(* Corruption: flipping any byte of one shard quarantines only it *)

let test_one_shard_corruption () =
  let _g, snapshot, cert = cycle_snapshot 48 5 in
  let radius = cert.Serve.Pack.radius in
  let bytes = Store.Shard.build ~shards:3 ~halo:(max radius 1) snapshot in
  let store = Store.Shard.open_bytes bytes in
  let man = Store.Shard.manifest store in
  let victim = man.Store.Shard.m_shards.(1) in
  let mono = Serve.Engine.create ~radius snapshot in
  let expect v =
    Marshal.to_string (Serve.Engine.query mono (Serve.Engine.Output_label v)) []
  in
  for at = victim.Store.Shard.i_offset
      to victim.Store.Shard.i_offset + victim.Store.Shard.i_bytes - 1 do
    let damaged = Bytes.of_string bytes in
    Bytes.set damaged at
      (Char.chr (Char.code (Bytes.get damaged at) lxor 0x01));
    let store = Store.Shard.open_bytes (Bytes.unsafe_to_string damaged) in
    let router = Serve.Router.create ~salvage:true ~radius ~domains:1 store in
    (* Other shards serve, byte-identically. *)
    let v0 = 0 and v2 = 47 in
    check_string
      (Printf.sprintf "flip@%d: shard 0 unaffected" at)
      (expect v0)
      (Marshal.to_string
         (Serve.Router.query router (Serve.Engine.Output_label v0))
         []);
    check_string
      (Printf.sprintf "flip@%d: shard 2 unaffected" at)
      (expect v2)
      (Marshal.to_string
         (Serve.Router.query router (Serve.Engine.Output_label v2))
         []);
    (* The victim's interior is lost — and only it. *)
    let vmid = victim.Store.Shard.i_lo in
    (match Serve.Router.query router (Serve.Engine.Output_label vmid) with
    | _ -> Alcotest.failf "flip@%d: damaged shard still answered" at
    | exception Serve.Router.Shard_lost { shard; _ } ->
        check_int (Printf.sprintf "flip@%d: lost shard index" at) 1 shard);
    check "router reports degraded" true (Serve.Router.degraded router);
    check_int "exactly one shard lost" 1
      (List.length (Serve.Router.lost_shards router));
    (* Batch over all three ranges: per-query degradation. *)
    let qs =
      [| Serve.Engine.Output_label v0; Serve.Engine.Output_label vmid;
         Serve.Engine.Output_label v2 |]
    in
    let rs = Serve.Router.batch_results router qs in
    check "batch: healthy range 0 answered" true (Result.is_ok rs.(0));
    check "batch: lost range errored" true (Result.is_error rs.(1));
    check "batch: healthy range 2 answered" true (Result.is_ok rs.(2))
  done

(* Corrupt -> salvage -> repair -> heal, against a real file (open_file
   re-reads the byte range on every load, so overwriting the container
   under the router models damage and repair in place).  [Lost] must be
   a cached diagnostic, not a tombstone: the reload heals, answers stay
   byte-identical, and the healed shard's frame bytes are charged to
   the resident budget exactly once. *)
let test_lost_shard_heals_on_repair () =
  let _g, snapshot, cert = cycle_snapshot 96 9 in
  let radius = cert.Serve.Pack.radius in
  let good = Store.Shard.build ~shards:3 ~halo:(max radius 1) snapshot in
  let man = Store.Shard.manifest (Store.Shard.open_bytes good) in
  let victim = man.Store.Shard.m_shards.(1) in
  let damaged =
    let b = Bytes.of_string good in
    let at = victim.Store.Shard.i_offset + (victim.Store.Shard.i_bytes / 2) in
    Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
    Bytes.unsafe_to_string b
  in
  let max_frame =
    Array.fold_left
      (fun acc i -> max acc i.Store.Shard.i_bytes)
      0 man.Store.Shard.m_shards
  in
  let path = Filename.temp_file "heal" ".ladv" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Store.Io.write_file path good;
  let router =
    Serve.Router.create ~salvage:true ~resident_budget:max_frame ~radius
      (Store.Shard.open_file path)
  in
  let mono = Serve.Engine.create ~radius snapshot in
  let expect v =
    Marshal.to_string (Serve.Engine.query mono (Serve.Engine.Output_label v)) []
  in
  let peak = ref 0 in
  let ask v =
    let a =
      Marshal.to_string
        (Serve.Router.query router (Serve.Engine.Output_label v))
        []
    in
    peak := max !peak (Serve.Router.resident_bytes router);
    a
  in
  (* Healthy pass over every node, cycling loads under the one-shard
     budget. *)
  for v = 0 to 95 do
    check_string (Printf.sprintf "healthy pass node %d" v) (expect v) (ask v)
  done;
  (* Damage the container under the router: the victim's interior is
     lost, everything else keeps serving. *)
  Store.Io.write_file path damaged;
  let vmid = victim.Store.Shard.i_lo in
  (match ask vmid with
  | _ -> Alcotest.fail "damaged shard still answered"
  | exception Serve.Router.Shard_lost { shard; _ } ->
      check_int "lost shard index" 1 shard);
  check "degraded while damaged" true (Serve.Router.degraded router);
  check_int "one shard lost" 1 (List.length (Serve.Router.lost_shards router));
  (* A retry against still-damaged bytes refreshes the diagnostic
     without re-counting the loss. *)
  (match ask vmid with
  | _ -> Alcotest.fail "retry against damaged bytes answered"
  | exception Serve.Router.Shard_lost { shard; _ } ->
      check_int "retry reports the same shard" 1 shard);
  check_int "failed retry does not double-count the loss" 1
    (List.length (Serve.Router.lost_shards router));
  check_string "shard 0 serves while 1 is lost" (expect 0) (ask 0);
  check_string "shard 2 serves while 1 is lost" (expect 95) (ask 95);
  (* Repair the file: the next query for the lost range heals it. *)
  Store.Io.write_file path good;
  check_string "healed answer byte-identical" (expect vmid) (ask vmid);
  check "heal clears degraded" false (Serve.Router.degraded router);
  check_int "heal empties the lost set" 0
    (List.length (Serve.Router.lost_shards router));
  (* Exact accounting: with a one-shard budget the healed shard is the
     sole resident and is charged its frame once — a double-counted
     reload would leave residency at twice the frame (over budget). *)
  check_int "one shard resident after heal" 1
    (Serve.Router.resident_shards router);
  check_int "healed shard charged exactly once" victim.Store.Shard.i_bytes
    (Serve.Router.resident_bytes router);
  (* Full post-heal sweep: byte-identical, still budget-bounded. *)
  for v = 0 to 95 do
    check_string (Printf.sprintf "post-heal node %d" v) (expect v) (ask v)
  done;
  check "peak residency within budget across the whole cycle" true
    (!peak <= max_frame)

let test_manifest_corruption_fails_open () =
  let _g, snapshot, cert = cycle_snapshot 30 2 in
  let bytes =
    Store.Shard.build ~shards:2 ~halo:(max cert.Serve.Pack.radius 1) snapshot
  in
  let store = Store.Shard.open_bytes bytes in
  let header = (Store.Shard.manifest store).Store.Shard.m_header_bytes in
  (* Any flip before the shard frames (magic, version, count, manifest
     frame) must fail open_bytes — the manifest is the trust root. *)
  let failures = ref 0 in
  for at = 0 to header - 1 do
    let damaged = Bytes.of_string bytes in
    Bytes.set damaged at
      (Char.chr (Char.code (Bytes.get damaged at) lxor 0x01));
    match Store.Shard.open_bytes (Bytes.unsafe_to_string damaged) with
    | _ -> ()
    | exception Store.Codec.Corrupt _ -> incr failures
  done;
  check_int "every header flip rejected at open" header !failures

(* ------------------------------------------------------------------ *)
(* Io.read_range: windows, methods, and fault-plan coordinates *)

let with_temp_file data f =
  let path = Filename.temp_file "range" ".bin" in
  Store.Io.write_file path data;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_read_range () =
  let data = String.init 257 (fun i -> Char.chr (i * 7 mod 256)) in
  with_temp_file data @@ fun path ->
  check_int "file_size" 257 (Store.Io.file_size path);
  check_string "interior window" (String.sub data 100 57)
    (Store.Io.read_range path ~pos:100 ~len:57);
  check_string "whole file" data (Store.Io.read_range path ~pos:0 ~len:257);
  check_string "short read at EOF" (String.sub data 250 7)
    (Store.Io.read_range path ~pos:250 ~len:100);
  check_string "window past EOF" "" (Store.Io.read_range path ~pos:400 ~len:8);
  check_string "empty window" "" (Store.Io.read_range path ~pos:10 ~len:0);
  (match Store.Io.read_range path ~pos:(-1) ~len:4 with
  | _ -> Alcotest.fail "negative pos accepted"
  | exception Invalid_argument _ -> ())

let test_read_range_faults () =
  let data = String.init 200 (fun i -> Char.chr (i mod 256)) in
  with_temp_file data @@ fun path ->
  Fun.protect ~finally:Store.Io.Faults.disarm @@ fun () ->
  (* Truncation is in absolute file coordinates: a window wholly past
     the cut reads empty, a window across it reads short. *)
  Store.Io.Faults.arm
    { Store.Io.Faults.none with read = Some (Store.Io.Faults.Truncate_at 120) };
  check_int "window before the cut is whole" 50
    (String.length (Store.Io.read_range path ~pos:50 ~len:50));
  check_int "window across the cut reads short" 20
    (String.length (Store.Io.read_range path ~pos:100 ~len:60));
  check_int "window past the cut reads empty" 0
    (String.length (Store.Io.read_range path ~pos:150 ~len:20));
  check_int "whole-file read agrees with the range view" 120
    (String.length (Store.Io.read_file path));
  (* Flips land at [at_byte mod size] regardless of the window. *)
  Store.Io.Faults.arm
    { Store.Io.Faults.none with
      read = Some (Store.Io.Faults.Flip_byte { at_byte = 130; mask = 0x10 })
    };
  let w = Store.Io.read_range path ~pos:100 ~len:60 in
  check_int "flip hits the covering window" (Char.code data.[130] lxor 0x10)
    (Char.code w.[30]);
  check_string "window missing the byte is untouched"
    (String.sub data 0 40)
    (Store.Io.read_range path ~pos:0 ~len:40);
  let whole = Store.Io.read_file path in
  check_int "whole-file read flips the same byte"
    (Char.code data.[130] lxor 0x10)
    (Char.code whole.[130])

let test_lazy_load_respects_faults () =
  (* The existing Truncate_at / Flip_byte harness must exercise lazy
     shard reads: damage injected below read_range surfaces as a lost
     shard, not a wrong answer. *)
  let _g, snapshot, cert = cycle_snapshot 60 19 in
  let radius = cert.Serve.Pack.radius in
  let bytes = Store.Shard.build ~shards:3 ~halo:(max radius 1) snapshot in
  with_temp_file bytes @@ fun path ->
  Fun.protect ~finally:Store.Io.Faults.disarm @@ fun () ->
  let store = Store.Shard.open_file path in
  let man = Store.Shard.manifest store in
  let victim = man.Store.Shard.m_shards.(2) in
  (* Arm after open: the manifest read is clean, the body read is not. *)
  Store.Io.Faults.arm
    { Store.Io.Faults.none with
      read =
        Some
          (Store.Io.Faults.Flip_byte
             { at_byte = victim.Store.Shard.i_offset + 20; mask = 0x40 })
    };
  let router = Serve.Router.create ~salvage:true ~radius store in
  (match
     Serve.Router.query router (Serve.Engine.Output_label victim.Store.Shard.i_lo)
   with
  | _ -> Alcotest.fail "flipped shard body still served"
  | exception Serve.Router.Shard_lost { shard; _ } ->
      check_int "lost the faulted shard" 2 shard);
  (* Other shards load through the same armed plan untouched (the flip
     is outside their windows). *)
  let a = Serve.Router.query router (Serve.Engine.Output_label 0) in
  let mono = Serve.Engine.create ~radius snapshot in
  check_string "clean shard unaffected by the armed plan"
    (Marshal.to_string (Serve.Engine.query mono (Serve.Engine.Output_label 0)) [])
    (Marshal.to_string a [])

(* An Edge_member naming an edge the owner shard stores but the node is
   not an endpoint of gets the whole-graph engine's diagnostic, each
   endpoint named by its global id: by the offset inside the interior
   run, through the halo table below and above it.  An edge the shard
   does not store is named without its endpoints. *)
let test_non_incident_diagnostic () =
  let n = 400 in
  let g, snapshot, cert = cycle_snapshot n 5 in
  let radius = cert.Serve.Pack.radius in
  let mono = Serve.Engine.create ~radius snapshot in
  let store = Store.Shard.open_bytes (Store.Shard.build ~shards:4 ~halo:(max radius 1) snapshot) in
  let info = (Store.Shard.manifest store).Store.Shard.m_shards.(1) in
  check "shard 1 stores part of the graph" true (info.Store.Shard.i_local_n < n);
  let router = Serve.Router.create store in
  let lo = info.Store.Shard.i_lo and hi = info.Store.Shard.i_hi in
  let message serve q =
    match serve q with
    | _ -> Alcotest.failf "a non-incident edge was answered"
    | exception Invalid_argument msg -> msg
  in
  List.iter
    (fun (what, a) ->
      let q = Serve.Engine.Edge_member (lo + 5, Graph.edge_id g a (a + 1)) in
      check_string what (message (Serve.Engine.query mono) q) (message (Serve.Router.query router) q))
    [
      ("both endpoints interior", lo + 20);
      ("an endpoint in the halo above", hi - 1);
      ("both endpoints in the halo below", lo - 2);
    ];
  let far = Graph.edge_id g (n - 50) (n - 49) in
  check_string "an edge the shard does not store"
    (Printf.sprintf "Engine: Edge_member node %d is not an endpoint of edge %d" (lo + 5) far)
    (message (Serve.Router.query router) (Serve.Engine.Edge_member (lo + 5, far)))

(* ------------------------------------------------------------------ *)

let qtests tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "shard"
    [
      ( "wire",
        [
          Alcotest.test_case "round trip" `Quick test_round_trip;
          Alcotest.test_case "version dispatch + v1 compat" `Quick
            test_version_dispatch;
          Alcotest.test_case "build validates like Snapshot.write" `Quick
            test_build_validates;
        ] );
      ( "identity",
        qtests
          [
            prop_query_identity;
            prop_batch_identity;
            prop_pack_sharded_identity;
            prop_front_end_matches_decoder;
            prop_induced_sorted_identity;
            prop_fused_writer_matches_induced;
          ]
        @ [
            Alcotest.test_case "radius 0 Edge_member is total" `Quick test_radius_zero_total;
            Alcotest.test_case "v1 file = one-shard container on every node" `Quick
              test_v1_equals_one_shard;
            Alcotest.test_case "non-incident edge: the engine's message" `Quick
              test_non_incident_diagnostic;
          ] );
      ( "budget",
        [
          Alcotest.test_case "lazy loads + LRU eviction" `Quick test_budget_eviction;
          Alcotest.test_case "cache_capacity 0 decodes every query" `Quick
            test_capacity_zero_decodes;
          Alcotest.test_case "evicted shard decodes again on reload" `Quick
            test_evicted_shard_decodes_again;
        ] );
      ( "corruption",
        [
          Alcotest.test_case "one-shard flips quarantine one shard" `Slow
            test_one_shard_corruption;
          Alcotest.test_case "lost shard heals on repair, charged once" `Quick
            test_lost_shard_heals_on_repair;
          Alcotest.test_case "header flips fail open" `Quick
            test_manifest_corruption_fails_open;
        ] );
      ( "io",
        [
          Alcotest.test_case "read_range windows" `Quick
            test_read_range;
          Alcotest.test_case "read_range fault coordinates" `Quick
            test_read_range_faults;
          Alcotest.test_case "lazy loads honor the fault harness" `Quick
            test_lazy_load_respects_faults;
        ] );
    ]
