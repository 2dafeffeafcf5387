(* Serve.Memo: the ball-class table's transparency contract — answers
   byte-identical (Marshal) to the unmemoized engine across graph
   families, shard counts, domain counts, pool variants, packed and
   hand-built advice, and through the sharded router — plus the table's
   own semantics: capacity-0 no-op, bounded residency with
   drop-at-capacity, exact byte accounting, and the shipped table's
   bytes. *)

open Netgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* A counter's total in the current obs snapshot. *)
let counter name =
  List.fold_left
    (fun acc (e : Obs.Metrics.entry) ->
      match e.Obs.Metrics.value with
      | Obs.Metrics.Counter_v { total; _ } when String.equal e.Obs.Metrics.name name ->
          total
      | _ -> acc)
    0 (Obs.Metrics.snapshot ())

(* Balls decoded so far: the [serve.ball_size] histogram's count. *)
let decoded_balls () =
  List.fold_left
    (fun acc (e : Obs.Metrics.entry) ->
      match e.Obs.Metrics.value with
      | Obs.Metrics.Histogram_v h when String.equal e.Obs.Metrics.name "serve.ball_size" ->
          h.Obs.Metrics.count
      | _ -> acc)
    0 (Obs.Metrics.snapshot ())

(* ------------------------------------------------------------------ *)
(* Table semantics *)

let test_table_basics () =
  let m = Serve.Memo.create ~capacity:3 in
  check "miss on empty table" true (Serve.Memo.find m "a" = None);
  Serve.Memo.insert m "a" "1";
  (match Serve.Memo.find m "a" with
  | Some v -> check_string "hit returns the stored value" "1" v
  | None -> Alcotest.fail "inserted key missed");
  Serve.Memo.insert m "a" "1";
  let entries () = (Serve.Memo.stats m).Serve.Memo.s_entries in
  check_int "re-inserting an existing key is a no-op" 1 (entries ());
  Serve.Memo.insert m "bb" "22";
  Serve.Memo.insert m "ccc" "333";
  check_int "filled to capacity" 3 (entries ());
  check_int "bytes are key + value lengths" (2 + 4 + 6)
    (Serve.Memo.stats m).Serve.Memo.s_bytes;
  Serve.Memo.insert m "dddd" "4444";
  let s = Serve.Memo.stats m in
  check_int "insert past capacity is dropped" 3 s.Serve.Memo.s_entries;
  check_int "a drop keeps no bytes" (2 + 4 + 6) s.Serve.Memo.s_bytes;
  check "dropped key stays a miss" true (Serve.Memo.find m "dddd" = None);
  check "resident keys keep hitting" true (Serve.Memo.find m "bb" = Some "22");
  (match Serve.Memo.create ~capacity:(-1) with
  | _ -> Alcotest.fail "negative capacity accepted"
  | exception Invalid_argument _ -> ());
  (* 2 * max_int wraps negative: the table must refuse, not build one
     slot that a second key would probe forever. *)
  (match Serve.Memo.create ~capacity:max_int with
  | _ -> Alcotest.fail "a capacity no array can hold was accepted"
  | exception Invalid_argument _ -> ());
  match Serve.Memo.insert m "" "x" with
  | _ -> Alcotest.fail "empty key accepted"
  | exception Invalid_argument _ -> ()

let test_capacity_zero_is_noop () =
  let m = Serve.Memo.create ~capacity:0 in
  Serve.Memo.insert m "k" "v";
  check "capacity 0 never hits" true (Serve.Memo.find m "k" = None);
  let s = Serve.Memo.stats m in
  check_int "capacity 0 holds nothing" 0 s.Serve.Memo.s_entries;
  check_int "capacity 0 accounts nothing" 0 s.Serve.Memo.s_bytes

(* The shipped table: what write_table writes, read_table and attach
   read back, and a probe from a buffer reads only the key's bytes. *)
let test_shipped_table () =
  let long = String.init 37 (fun i -> Char.chr (i * 7 land 0xff)) in
  let classes = [ ("key", "101"); (long, "1"); ("x", "") ] in
  let table = Serve.Memo.write_table ~covered:9 classes in
  check "read_table counts the classes" true (Serve.Memo.read_table table = (3, 9));
  let m = Serve.Memo.create ~capacity:3 in
  (match Serve.Memo.attach m [ ("serve.radius", "2"); (Serve.Memo.table_key, table) ] with
  | Some m' -> check "attach keeps the memo it loads" true (m' == m)
  | None -> Alcotest.fail "a loaded memo was dropped");
  check_int "every class loaded" 3 (Serve.Memo.stats m).Serve.Memo.s_entries;
  check "an empty label is a label" true (Serve.Memo.find m "x" = Some "");
  let buf = Bytes.of_string "keyGARBAGE" in
  check "a probe reads only the key's bytes" true
    (Serve.Memo.find_sub m buf 3 = Some "101");
  check "a prefix of a stored key misses" true (Serve.Memo.find_sub m buf 2 = None);
  (* Keys longer than a word compare eight bytes a step. *)
  let near = Bytes.of_string long in
  Bytes.set near 20 (Char.chr (Char.code (Bytes.get near 20) lxor 0x80));
  check "a long key hits from a buffer" true
    (Serve.Memo.find_sub m (Bytes.of_string (long ^ "tail")) 37 = Some "1");
  check "one flipped high bit misses" true (Serve.Memo.find_sub m near 37 = None);
  check "no table, nothing loaded: dropped" true
    (Serve.Memo.attach (Serve.Memo.create ~capacity:3) [ ("serve.radius", "2") ] = None);
  check "capacity 0 loads nothing: dropped" true
    (Serve.Memo.attach (Serve.Memo.create ~capacity:0) [ (Serve.Memo.table_key, table) ]
    = None);
  (* Hostile bytes: a count past the bytes left, a key length past the
     end, an empty key, trailing bytes. *)
  let corrupt what bytes =
    match Serve.Memo.read_table bytes with
    | _ -> Alcotest.failf "%s: read" what
    | exception Store.Codec.Corrupt _ -> (
        match Serve.Memo.attach (Serve.Memo.create ~capacity:4) [ (Serve.Memo.table_key, bytes) ] with
        | _ -> Alcotest.failf "%s: attached" what
        | exception Store.Codec.Corrupt _ -> ())
  in
  let table_of f =
    let w = Store.Codec.writer () in
    f w;
    Store.Codec.contents w
  in
  let head w classes =
    Store.Codec.varint w classes;
    Store.Codec.varint w 5
  in
  corrupt "2^62 - 1 classes"
    (table_of (fun w ->
         head w ((1 lsl 62) - 1);
         Store.Codec.str w "k";
         Store.Codec.str w "1"));
  corrupt "a key past the end"
    (table_of (fun w ->
         head w 1;
         Store.Codec.varint w 127;
         Store.Codec.raw w "key"));
  corrupt "an empty key"
    (table_of (fun w ->
         head w 1;
         Store.Codec.str w "";
         Store.Codec.str w "101"));
  corrupt "trailing bytes" (table ^ "\x00")

(* ------------------------------------------------------------------ *)
(* Engine identity: memo on = memo off, byte for byte (test_pool's
   family/engine idioms, with the memo dimension added) *)

let periodic_snapshot n =
  let g = Builders.cycle n in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if e mod 4 < 2 then Bitset.add x e) g;
  Serve.Pack.edge_compression g x

let cycle_snapshot n seed =
  let rng = Prng.create seed in
  let g = Builders.cycle n in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  Serve.Pack.edge_compression g x

(* An engine over arbitrary advice on an arbitrary graph: the decoder is
   total, so any family serves. *)
let raw_engine ?cache_capacity ?memo g advice =
  Serve.Engine.create ?cache_capacity ?memo ~radius:2
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

let family_name = function
  | Cycle -> "cycle"
  | Grid -> "grid"
  | Regular -> "regular"

let build_graph family rng =
  match family with
  | Cycle -> Builders.cycle (3 + Prng.int rng 60)
  | Grid -> Builders.grid (2 + Prng.int rng 5) (2 + Prng.int rng 5)
  | Regular -> Builders.random_regular rng (2 * (4 + Prng.int rng 12)) 3

(* [hand_built] serves random advice even for cycles, as [router_of]'s
   hand-built file does; grids and random-regular graphs only exist
   with it (the one-bit encoder packs cycles alone), so the flag is
   absorbed. *)
let engine_of ?memo family ~hand_built rng =
  match (family, hand_built) with
  | Cycle, false ->
      let snapshot, _cert =
        cycle_snapshot (20 + (2 * Prng.int rng 40)) (Prng.int rng 1000)
      in
      Serve.Engine.create ?memo snapshot
  | (Cycle | Grid | Regular), _ ->
      let g = build_graph family rng in
      raw_engine ?memo g (random_advice rng g)

(* [engine_of]'s snapshot state (same rng consumption) as a file opened
   through Store.Shard: a packed cycle, or the random advice written as
   a v1 file and served at radius 2 (the decoder is total).  Either file
   ships the class table of its serve radius, as pack builds it. *)
let router_of ~memo family ~hand_built ~domains rng =
  match (family, hand_built) with
  | Cycle, false ->
      let snapshot, _cert =
        cycle_snapshot (20 + (2 * Prng.int rng 40)) (Prng.int rng 1000)
      in
      Serve.Router.create ~memo ~domains
        (Store.Shard.open_bytes (Store.Snapshot.write snapshot))
  | (Cycle | Grid | Regular), _ ->
      let g = build_graph family rng in
      let advice = random_advice rng g in
      let bytes =
        Store.Snapshot.write
          {
            Store.Snapshot.graph = g;
            advice = [ ("c4", advice) ];
            meta = [ Serve.Pack.class_table g ~advice ~radius:2 ];
          }
      in
      Serve.Router.create ~memo ~radius:2 ~domains (Store.Shard.open_bytes bytes)

let case_gen =
  QCheck.Gen.(
    tup4 (int_bound 100_000)
      (oneofl [ Cycle; Grid; Regular ])
      bool
      (int_range 1 2))

let case_print (seed, family, hand_built, domains) =
  Printf.sprintf "seed=%d family=%s hand_built=%b domains=%d" seed
    (family_name family) hand_built domains

let memo_transparent =
  QCheck.Test.make ~count:40
    ~name:"memoized serving = unmemoized serving (bytes)"
    (QCheck.make ~print:case_print case_gen)
    (fun (seed, family, hand_built, domains) ->
      (* Identical construction (same rng consumption) modulo the memo. *)
      let rng = Prng.create seed in
      let rng2 = Prng.copy rng in
      let memo = Serve.Memo.create ~capacity:256 in
      let memoized = router_of ~memo family ~hand_built ~domains rng in
      let plain = engine_of family ~hand_built rng2 in
      let qs =
        random_queries (Prng.create (seed + 1)) (Serve.Engine.graph plain) 150
      in
      (* The router batch (one slot per domain) has its workers probe
         the shared table at once; the single-query sweep afterwards
         serves the same queries from the label columns. *)
      let batched = Serve.Router.batch memoized qs in
      let expected = Array.map (Serve.Engine.query plain) qs in
      let warm = Array.map (Serve.Router.query memoized) qs in
      Marshal.to_string batched [] = Marshal.to_string expected []
      && Marshal.to_string warm [] = Marshal.to_string expected [])

(* Capacity 0 end to end: a memo that can hold nothing is dropped at
   create, so a file that ships a table still serves memo-less, with
   identical answers. *)
let test_engine_capacity_zero () =
  let snapshot, _ = periodic_snapshot 400 in
  check "the file ships a table" true
    (List.mem_assoc Serve.Memo.table_key snapshot.Store.Snapshot.meta);
  let memo = Serve.Memo.create ~capacity:0 in
  let memoized = Serve.Engine.create ~memo snapshot in
  let plain = Serve.Engine.create snapshot in
  let qs = random_queries (Prng.create 17) (Serve.Engine.graph plain) 80 in
  check_string "capacity-0 answers identical"
    (Marshal.to_string (Array.map (Serve.Engine.query plain) qs) [])
    (Marshal.to_string (Array.map (Serve.Engine.query memoized) qs) []);
  check_int "capacity-0 table stayed empty" 0 (Serve.Memo.stats memo).Serve.Memo.s_entries

(* Adversarial near-zero-collision family: every node carries distinct
   advice bits, so (radius-2) ball classes are pairwise distinct, no
   class recurs, and the pack ships no table: the metadata says why,
   and an engine given a memo drops it and builds no key.  A table too
   big for its memo drops the classes past the capacity at load and
   stays transparent. *)
let test_adversarial_low_collision () =
  let g = Builders.cycle 200 in
  (* 16 advice bits = the node id in binary: all distinct. *)
  let advice =
    Array.init (Graph.n g) (fun v ->
        String.init 16 (fun i -> if (v lsr i) land 1 = 1 then '1' else '0'))
  in
  (match Serve.Pack.class_table g ~advice ~radius:2 with
  | "serve.table.none", reason ->
      check_string "the reason" "no ball class recurs (200 classes over 200 nodes)" reason
  | key, _ -> Alcotest.failf "distinct balls shipped %s" key);
  let memo = Serve.Memo.create ~capacity:32 in
  let memoized = raw_engine ~cache_capacity:0 ~memo g advice in
  let plain = raw_engine g advice in
  let qs = Array.init 400 (fun i -> Serve.Engine.Output_label (i / 2)) in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) (fun () ->
      check_string "adversarial answers identical"
        (Marshal.to_string (Array.map (Serve.Engine.query plain) qs) [])
        (Marshal.to_string (Array.map (Serve.Engine.query memoized) qs) []);
      check_int "no key built" 0 (counter "serve.memo.hits" + counter "serve.memo.misses"));
  let snapshot, _ = periodic_snapshot 400 in
  let classes, _ =
    Serve.Memo.read_table (List.assoc Serve.Memo.table_key snapshot.Store.Snapshot.meta)
  in
  let small = Serve.Memo.create ~capacity:4 in
  let memoized = Serve.Engine.create ~cache_capacity:0 ~memo:small snapshot in
  let plain = Serve.Engine.create snapshot in
  check "more classes than the memo holds" true (classes > 4);
  check_int "filled to capacity" 4 (Serve.Memo.stats small).Serve.Memo.s_entries;
  let qs = Array.init 400 (fun v -> Serve.Engine.Output_label v) in
  check_string "a full memo stays transparent"
    (Marshal.to_string (Array.map (Serve.Engine.query plain) qs) [])
    (Marshal.to_string (Array.map (Serve.Engine.query memoized) qs) [])

(* The table ships exactly the classes that recur: counted by hand over
   every node's key, a periodic cycle's shipped classes are the keys
   met at least twice, [covered] is the nodes they hold, and each label
   is the one every member decodes to.  Past the cap (a random subset,
   every ball its own class) nothing ships. *)
let test_table_ships_recurring_classes () =
  let snapshot, cert = periodic_snapshot 400 in
  let g = snapshot.Store.Snapshot.graph in
  let advice = snd (List.hd snapshot.Store.Snapshot.advice) in
  let radius = cert.Serve.Pack.radius in
  let ids = Localmodel.Ids.identity g in
  let ws = Workspace.domain_local () in
  let seen = Hashtbl.create 256 in
  for v = 0 to Graph.n g - 1 do
    ignore (Traversal.bfs_limited_into ws g v radius);
    let key = Ethlink.Canonical.ball_key ws g ~ids ~advice in
    let label = Serve.Center_decode.label ws g ~ids ~advice ~center:0 in
    match Hashtbl.find_opt seen key with
    | Some (l, count) ->
        check_string "a class has one label" l label;
        Hashtbl.replace seen key (l, count + 1)
    | None -> Hashtbl.replace seen key (label, 1)
  done;
  let recurring = Hashtbl.fold (fun _ (_, c) acc -> if c > 1 then c :: acc else acc) seen [] in
  let table = List.assoc Serve.Memo.table_key snapshot.Store.Snapshot.meta in
  check "classes and covered nodes" true
    (Serve.Memo.read_table table
    = (List.length recurring, List.fold_left ( + ) 0 recurring));
  let memo = Serve.Memo.create ~capacity:(List.length recurring) in
  ignore (Serve.Memo.attach memo snapshot.Store.Snapshot.meta);
  Hashtbl.iter
    (fun key (label, count) ->
      check "shipped iff recurring, with its label" true
        (Serve.Memo.find memo key = if count > 1 then Some label else None))
    seen;
  (* A cold sweep of every node through a 4-shard router serving the
     table decodes exactly the balls outside it. *)
  let covered = snd (Serve.Memo.read_table table) in
  let store =
    Store.Shard.open_bytes (Store.Shard.build ~shards:4 ~halo:(max radius 1) snapshot)
  in
  let router = Serve.Router.create ~memo:(Serve.Memo.create ~capacity:256) ~domains:1 store in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) (fun () ->
      for v = 0 to Graph.n g - 1 do
        ignore (Serve.Router.query router (Serve.Engine.Output_label v))
      done;
      check_int "hits: the covered nodes" covered (counter "serve.memo.hits");
      check_int "decodes: the nodes outside the table" (Graph.n g - covered)
        (decoded_balls ()));
  let snapshot, _ = cycle_snapshot 400 3 in
  check "past the cap nothing ships" true
    (List.assoc_opt "serve.table.none" snapshot.Store.Snapshot.meta
    = Some "more than 256 ball classes among the first 257 nodes")

(* ------------------------------------------------------------------ *)
(* Router identity: one memo shared across every per-shard engine,
   surviving eviction, equals the memo-less monolithic engine. *)

let test_router_memo_identity () =
  (* A periodic subset long enough that balls recur (48 classes cover
     278 of the 400 nodes at the certified radius 43), so one shipped
     class serves nodes of several shards. *)
  let snapshot, cert =
    let g = Builders.cycle 400 in
    let x = Bitset.create (Graph.m g) in
    Graph.iter_edges (fun e _ -> if e mod 4 < 2 then Bitset.add x e) g;
    Serve.Pack.edge_compression g x
  in
  let radius = cert.Serve.Pack.radius in
  let bytes = Store.Shard.build ~shards:4 ~halo:(max radius 1) snapshot in
  let store = Store.Shard.open_bytes bytes in
  let man = Store.Shard.manifest store in
  let max_frame =
    Array.fold_left
      (fun acc i -> max acc i.Store.Shard.i_bytes)
      0 man.Store.Shard.m_shards
  in
  let memo = Serve.Memo.create ~capacity:1024 in
  (* One-shard budget: every cross-shard hop evicts, and the table,
     loaded once at create, serves every reload. *)
  let router =
    Serve.Router.create ~memo ~resident_budget:max_frame ~radius ~domains:2 store
  in
  let mono = Serve.Engine.create ~radius snapshot in
  let qs = random_queries (Prng.create 23) (Serve.Engine.graph mono) 300 in
  let expected = Array.map (Serve.Engine.query mono) qs in
  let batched = Serve.Router.batch_results router qs in
  Array.iteri
    (fun i r ->
      match r with
      | Ok a ->
          check_string
            (Printf.sprintf "router+memo answer %d identical" i)
            (Marshal.to_string expected.(i) [])
            (Marshal.to_string a [])
      | Error msg -> Alcotest.failf "healthy container lost a shard: %s" msg)
    batched;
  check "the router holds the shipped classes" true
    (Serve.Router.memo_stats router = Some (Serve.Memo.stats memo)
    && (Serve.Memo.stats memo).Serve.Memo.s_entries
       = fst (Serve.Memo.read_table (List.assoc Serve.Memo.table_key man.Store.Shard.m_meta)));
  (* Single-query sweep after the batch, served from the label
     columns and, past an eviction, the table again. *)
  Array.iteri
    (fun i q ->
      check_string
        (Printf.sprintf "router+memo single %d identical" i)
        (Marshal.to_string expected.(i) [])
        (Marshal.to_string (Serve.Router.query router q) []))
    qs

(* ------------------------------------------------------------------ *)
(* Workspace key and center-local decode: the serve path keys and
   decodes a stamped BFS ball without materializing a view or a
   fragment.  Every node, every radius from 0 to two past the certified
   one, against the view-based constructions this replaced — the key
   encoder and the whole-fragment decode, kept here verbatim as the
   reference. *)

(* The view-based key encoder: structure, ranks (stable insertion sort),
   length-prefixed advice, all LEB128. *)
let reference_ball_signature (view : Localmodel.View.t) =
  let add_varint buf x =
    let x = ref x in
    while !x >= 0x80 do
      Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!x land 0x7f)));
      x := !x lsr 7
    done;
    Buffer.add_char buf (Char.unsafe_chr !x)
  in
  let g = view.Localmodel.View.graph in
  let n = Graph.n g in
  let buf = Buffer.create (8 * n) in
  add_varint buf n;
  add_varint buf view.Localmodel.View.center;
  add_varint buf (Graph.m g);
  Graph.iter_edges
    (fun _ (u, v) ->
      add_varint buf u;
      add_varint buf v)
    g;
  let ids : int array = view.Localmodel.View.ids in
  let order = Array.init n (fun i -> i) in
  for i = 1 to n - 1 do
    let v = order.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && ids.(order.(!j)) > ids.(v) do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- v
  done;
  let r = Array.make n 0 in
  Array.iteri (fun pos v -> r.(v) <- pos) order;
  Array.iter (add_varint buf) r;
  Array.iter
    (fun s ->
      add_varint buf (String.length s);
      Buffer.add_string buf s)
    view.Localmodel.View.advice;
  Buffer.contents buf

(* The view-based fragment: closure sort by id, then [Graph.of_edges]
   over the relabelled edge list. *)
let reference_fragment (view : Localmodel.View.t) =
  let k = Graph.n view.Localmodel.View.graph in
  let perm = Array.init k (fun i -> i) in
  let ids = view.Localmodel.View.ids in
  Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) perm;
  let rank = Array.make k 0 in
  Array.iteri (fun r i -> rank.(i) <- r) perm;
  let edges =
    Graph.fold_edges
      (fun _ (u, v) acc -> (rank.(u), rank.(v)) :: acc)
      view.Localmodel.View.graph []
  in
  (Graph.of_edges ~n:k edges, perm, rank)

(* The view-based ball decode over [reference_fragment]; exceptions are
   part of the observable result (damaged advice may not decode). *)
let reference_label ~params (view : Localmodel.View.t) =
  match
    let h, perm, rank = reference_fragment view in
    let k = Graph.n h in
    let advice = Array.init k (fun r -> view.Localmodel.View.advice.(perm.(r))) in
    let ones = Bitset.create k in
    Array.iteri
      (fun r s -> if String.length s > 0 && s.[0] = '1' then Bitset.add ones r)
      advice;
    let varlen = Advice.Onebit.decode h ones in
    let o = Schemas.Balanced_orientation.decode_tolerant ~params h varlen in
    let c = rank.(view.Localmodel.View.center) in
    let nbrs = Graph.neighbors h c in
    String.init (Array.length nbrs) (fun i ->
        let u = nbrs.(i) in
        let tail, head =
          if Orientation.points_from o c u then (c, u) else (u, c)
        in
        let out = Orientation.out_neighbors o tail in
        let idx = ref 0 in
        Array.iter (fun w -> if w < head then incr idx) out;
        let s = advice.(tail) in
        if 1 + !idx < String.length s then s.[1 + !idx] else '0')
  with
  | label -> Ok label
  | exception e -> Error (Printexc.to_string e)

type ids_kind = Identity | Permuted | Sparse

let ids_name = function
  | Identity -> "identity"
  | Permuted -> "permutation"
  | Sparse -> "sparse"

type ball_family =
  | Cycle_periodic
  | Cycle_random
  | Cycle_long
  | Circulant_f
  | Grid_f
  | Regular_f
  | Tree_f

let ball_family_name = function
  | Cycle_periodic -> "cycle-periodic"
  | Cycle_random -> "cycle-random"
  | Cycle_long -> "cycle-long"
  | Circulant_f -> "circulant(1,2)"
  | Grid_f -> "grid"
  | Regular_f -> "random-regular"
  | Tree_f -> "tree"

(* Arbitrary bytes of arbitrary length, as damaged advice could be;
   lengths past 127 take multi-byte varints. *)
let damaged_advice rng g =
  Array.init (Graph.n g) (fun _ ->
      let len = if Prng.int rng 8 = 0 then 100 + Prng.int rng 60 else Prng.int rng 6 in
      String.init len (fun _ ->
          match Prng.int rng 4 with
          | 0 -> '1'
          | 1 -> '0'
          | _ -> Char.chr (Prng.int rng 256)))

(* Packed advice with a few bits flipped: partial one-bit messages and
   misplaced anchors, which random bytes rarely produce. *)
let flipped_advice rng advice =
  let a = Array.copy advice in
  for _ = 1 to 1 + Prng.int rng 6 do
    let v = Prng.int rng (Array.length a) in
    let s = a.(v) in
    if String.length s > 0 then begin
      let i = Prng.int rng (String.length s) in
      a.(v) <- String.mapi (fun j c -> if j = i then (if c = '0' then '1' else '0') else c) s
    end
  done;
  a

(* (graph, advice, top radius) for one case.  Packed families serve
   their packed advice, or damaged advice when [damaged] (a few
   flipped bits or random bytes, by a coin), and go two past their
   certified radius R; the other families only reach the serve stack
   with damaged advice.  A long cycle is longer than its top ball, so
   that ball does not wrap. *)
let ball_case family ~damaged rng =
  let packed g pick =
    let x = Bitset.create (Graph.m g) in
    Graph.iter_edges (fun e _ -> if pick e then Bitset.add x e) g;
    let snapshot, cert = Serve.Pack.edge_compression g x in
    let advice = snd (List.hd snapshot.Store.Snapshot.advice) in
    let top = cert.Serve.Pack.radius + 2 in
    if not damaged then (g, advice, top)
    else if Prng.bool rng then (g, flipped_advice rng advice, top)
    else (g, damaged_advice rng g, top)
  in
  match family with
  | Cycle_periodic -> packed (Builders.cycle (12 + Prng.int rng 50)) (fun e -> e mod 4 < 2)
  | Cycle_random -> packed (Builders.cycle (12 + Prng.int rng 50)) (fun _ -> Prng.bool rng)
  | Cycle_long ->
      let ((g, _, top) as case) =
        packed (Builders.cycle (120 + Prng.int rng 40)) (fun _ -> Prng.bool rng)
      in
      if Graph.n g <= (2 * top) + 1 then
        Alcotest.failf "a %d-node cycle wraps at radius %d" (Graph.n g) top;
      case
  | Circulant_f ->
      packed (Builders.circulant (64 + Prng.int rng 40) [ 1; 2 ]) (fun _ -> Prng.bool rng)
  | Grid_f ->
      let g = Builders.grid (2 + Prng.int rng 6) (2 + Prng.int rng 6) in
      (g, damaged_advice rng g, 4)
  | Regular_f ->
      let g = Builders.random_regular rng (2 * (4 + Prng.int rng 12)) 3 in
      (g, damaged_advice rng g, 3)
  | Tree_f ->
      let g = Builders.random_tree rng (5 + Prng.int rng 40) in
      (g, damaged_advice rng g, 5)

let ball_case_gen =
  QCheck.Gen.(
    tup4 (int_bound 100_000)
      (* The two large families cost about ten small cases each. *)
      (frequencyl
         [
           (3, Cycle_periodic);
           (3, Cycle_random);
           (1, Cycle_long);
           (1, Circulant_f);
           (3, Grid_f);
           (3, Regular_f);
           (3, Tree_f);
         ])
      (oneofl [ Identity; Permuted; Sparse ])
      bool)

let ball_case_print (seed, family, kind, damaged) =
  Printf.sprintf "seed=%d family=%s ids=%s damaged=%b" seed
    (ball_family_name family) (ids_name kind) damaged

let ids_of kind rng g =
  match kind with
  | Identity -> Localmodel.Ids.identity g
  | Permuted -> Localmodel.Ids.random_permutation rng g
  | Sparse -> Localmodel.Ids.random_sparse rng g

let workspace_key_and_fragment =
  QCheck.Test.make ~count:30
    ~name:"workspace key and fragment = view-based constructions"
    (QCheck.make ~print:ball_case_print ball_case_gen)
    (fun (seed, family, kind, damaged) ->
      let rng = Prng.create seed in
      let g, advice, top = ball_case family ~damaged rng in
      let ids = ids_of kind rng g in
      let identity = Localmodel.Ids.identity g in
      let params = Schemas.Balanced_orientation.onebit_params in
      let snapshot =
        { Store.Snapshot.graph = g; advice = [ ("c4", advice) ]; meta = [] }
      in
      (* The whole-fragment decode raises on no ball: its tolerant
         decoders drop every malformed message and anchor. *)
      let reference view where =
        match reference_label ~params view with
        | Ok s -> s
        | Error e -> Alcotest.failf "reference decode raised %s, %s" e where
      in
      for radius = 0 to top do
        (* The engine serves the class table of this radius, as pack
           builds it. *)
        let snapshot =
          { snapshot with Store.Snapshot.meta = [ Serve.Pack.class_table g ~advice ~radius ] }
        in
        let memo = Serve.Memo.create ~capacity:(Graph.n g) in
        let engine = Serve.Engine.create ~memo ~radius snapshot in
        for v = 0 to Graph.n g - 1 do
          let where = Printf.sprintf "node %d radius %d" v radius in
          let view = Localmodel.View.make ~advice g ~ids ~radius v in
          let signature = Ethlink.Canonical.ball_signature view in
          check_string ("ball_signature bytes, " ^ where)
            (reference_ball_signature view) signature;
          let ws = Workspace.domain_local () in
          ignore (Traversal.bfs_limited_into ws g v radius);
          check_string ("workspace key, " ^ where) signature
            (Ethlink.Canonical.ball_key ws g ~ids ~advice);
          (* The engine's decoder on these stamps, with these ids; read
             before anything else stamps the domain's workspace. *)
          let stamped = Serve.Center_decode.label ws g ~ids ~advice ~center:0 in
          let expected = reference view where in
          check_string ("stamped decode, " ^ where) expected stamped;
          check_string ("label_of_view, " ^ where) expected
            (Serve.Engine.label_of_view ~params view);
          (* The engine's view-free path, memo attached, in node order:
             the order of the identity ids. *)
          let served =
            match Serve.Engine.query engine (Serve.Engine.Output_label v) with
            | Serve.Engine.Label s -> s
            | _ -> Alcotest.fail "Output_label answered with a non-label"
          in
          check_string ("engine label, " ^ where)
            (reference (Localmodel.View.make ~advice g ~ids:identity ~radius v) where)
            served
        done
      done;
      true)

(* The key is the decoder's whole input: on every input of the suite
   above, at every node, radius 0..R+2 and id kind, two balls whose
   [write_ball_key] bytes are equal decode to equal labels — across
   radii too (a ball that stops growing keeps its key).  This is what
   lets one unprefixed table serve any radius and any trust mode. *)
let equal_keys_equal_labels =
  QCheck.Test.make ~count:30 ~name:"equal keys give equal labels"
    (QCheck.make ~print:ball_case_print ball_case_gen)
    (fun (seed, family, kind, damaged) ->
      let rng = Prng.create seed in
      let g, advice, top = ball_case family ~damaged rng in
      let ids = ids_of kind rng g in
      let seen = Hashtbl.create 256 in
      let ws = Workspace.domain_local () in
      for radius = 0 to top do
        for v = 0 to Graph.n g - 1 do
          ignore (Traversal.bfs_limited_into ws g v radius);
          let n = Ethlink.Canonical.write_ball_key ws g ~ids ~advice in
          let key = Bytes.sub_string (Ethlink.Canonical.key_buffer ()) 0 n in
          let label = Serve.Center_decode.label ws g ~ids ~advice ~center:0 in
          match Hashtbl.find_opt seen key with
          | Some (label', where) when not (String.equal label label') ->
              Alcotest.failf "node %d radius %d: key of %s, label %S, not %S" v radius where
                label label'
          | Some _ -> ()
          | None -> Hashtbl.replace seen key (label, Printf.sprintf "node %d radius %d" v radius)
        done
      done;
      true)

(* The served path builds no view: with obs on, a cold sweep over every
   node of a memoized engine (label column off, so every query reaches
   the table) extracts no [View.t], and decodes exactly one ball per
   table miss. *)
let test_serve_path_builds_no_view () =
  let g = Builders.cycle 400 in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if e mod 4 < 2 then Bitset.add x e) g;
  let snapshot, _ = Serve.Pack.edge_compression g x in
  let memo = Serve.Memo.create ~capacity:4096 in
  let engine = Serve.Engine.create ~cache_capacity:0 ~memo snapshot in
  let n = Graph.n (Serve.Engine.graph engine) in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) (fun () ->
      for v = 0 to n - 1 do
        ignore (Serve.Engine.query engine (Serve.Engine.Output_label v))
      done;
      let misses = counter "serve.memo.misses" in
      check_int "no view extracted on the serve path" 0
        (counter "view.balls_extracted");
      check_int "every query probed the memo" n
        (counter "serve.memo.hits" + misses);
      check "the hit path ran" true (misses < n);
      check_int "one decoded ball per memo miss" misses (decoded_balls ()))

(* A column miss allocates the label it returns and nothing else: with
   the label column off, a sweep of misses over a packed cycle (scratch
   grown by one warm-up sweep) allocates exactly the label strings, at
   the certified radius and at a far larger one — so nothing grows with
   the ball.  The fragment decode this replaced allocated about 9,600
   words per miss at radius 41. *)
let test_miss_allocates_only_its_label () =
  let g = Builders.cycle 600 in
  let rng = Prng.create 5 in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let snapshot, cert = Serve.Pack.edge_compression g x in
  let sweep engine =
    for v = 0 to Graph.n g - 1 do
      ignore (Serve.Engine.output_label engine v)
    done
  in
  List.iter
    (fun radius ->
      let engine = Serve.Engine.create ~cache_capacity:0 ~radius snapshot in
      sweep engine;
      (* A label of degree 2 is a string of one header and one data
         word. *)
      let label_words = 2 in
      let before = Gc.minor_words () in
      sweep engine;
      let words = Gc.minor_words () -. before in
      let allowed = (Graph.n g * label_words) + 8 in
      if words > float_of_int allowed then
        Alcotest.failf "radius %d: %.0f minor words over %d misses, allowed %d" radius
          words (Graph.n g) allowed)
    [ cert.Serve.Pack.radius; 3 * cert.Serve.Pack.radius ]

(* A memo hit allocates at most its [Some]: the key is written into the
   domain's key buffer and probed there.  Label column off; the memo
   holds every node's class (filled by hand: a random subset ships no
   table), so after a warm-up sweep the measured sweep is hits only. *)
let test_hit_allocates_at_most_two_words () =
  let g = Builders.cycle 600 in
  let rng = Prng.create 5 in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let snapshot, cert = Serve.Pack.edge_compression g x in
  let advice = snd (List.hd snapshot.Store.Snapshot.advice) in
  let ids = Localmodel.Ids.identity g in
  let ws = Workspace.domain_local () in
  let memo = Serve.Memo.create ~capacity:4096 in
  for v = 0 to Graph.n g - 1 do
    ignore (Traversal.bfs_limited_into ws g v cert.Serve.Pack.radius);
    let key = Ethlink.Canonical.ball_key ws g ~ids ~advice in
    Serve.Memo.insert memo key (Serve.Center_decode.label ws g ~ids ~advice ~center:0)
  done;
  let engine = Serve.Engine.create ~cache_capacity:0 ~memo snapshot in
  let sweep () =
    for v = 0 to Graph.n g - 1 do
      ignore (Serve.Engine.output_label engine v)
    done
  in
  Obs.Metrics.set_enabled true;
  Obs.Metrics.reset ();
  Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) sweep;
  check_int "the warm-up sweep only hit" (Graph.n g) (counter "serve.memo.hits");
  let before = Gc.minor_words () in
  sweep ();
  let words = Gc.minor_words () -. before in
  let allowed = (Graph.n g * 2) + 8 in
  if words > float_of_int allowed then
    Alcotest.failf "%.0f minor words over %d memo hits, allowed %d" words (Graph.n g)
      allowed

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "memo"
    [
      ( "table",
        [
          Alcotest.test_case "insert/find/drop semantics" `Quick
            test_table_basics;
          Alcotest.test_case "capacity 0 is a no-op" `Quick
            test_capacity_zero_is_noop;
          Alcotest.test_case "a shipped table loads and probes from a buffer" `Quick
            test_shipped_table;
        ] );
      ( "engine",
        [
          QCheck_alcotest.to_alcotest memo_transparent;
          Alcotest.test_case "capacity 0 end to end" `Quick
            test_engine_capacity_zero;
          Alcotest.test_case "adversarial low-collision family" `Quick
            test_adversarial_low_collision;
          Alcotest.test_case "the table ships the classes that recur" `Quick
            test_table_ships_recurring_classes;
        ] );
      ( "router",
        [
          Alcotest.test_case "shared memo across shards + eviction" `Quick
            test_router_memo_identity;
        ] );
      ( "ball",
        [
          QCheck_alcotest.to_alcotest workspace_key_and_fragment;
          Alcotest.test_case "serve path builds no view" `Quick
            test_serve_path_builds_no_view;
          QCheck_alcotest.to_alcotest equal_keys_equal_labels;
          Alcotest.test_case "a miss allocates only its label" `Quick
            test_miss_allocates_only_its_label;
          Alcotest.test_case "a memo hit allocates at most 2 words" `Quick
            test_hit_allocates_at_most_two_words;
        ] );
    ]
