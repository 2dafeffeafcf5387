(* The benchmark's own checks: seeded generation is deterministic, the
   hot-skewed stream fits the server's ball cache, the latency arithmetic
   follows the open-loop rules, and the traced replay answers exactly
   what Router.query / Engine.query answer. *)

open Perfbench
open Netgraph
module Engine = Serve.Engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let stream_of spec seed = Workload.stream (Workload.instance spec) ~seed

let determinism () =
  List.iter
    (fun spec ->
      let a = Workload.take (stream_of spec 7) 600 in
      let b = Workload.take (stream_of spec 7) 600 in
      let c = Workload.take (stream_of spec 8) 600 in
      check (spec.Workload.name ^ ": same seed, same stream") true (a = b);
      check (spec.Workload.name ^ ": other seed, other stream") true (a <> c))
    Workload.all

let mix_is_local () =
  let inst = Workload.instance Workload.structured_sweep in
  let qs = Workload.take (Workload.stream inst ~seed:3) 999 in
  let kinds = Array.make 3 0 in
  Array.iter
    (function
      | Engine.Output_label _ -> kinds.(0) <- kinds.(0) + 1
      | Engine.Edge_member (v, e) ->
          kinds.(1) <- kinds.(1) + 1;
          let a, b = Graph.edge_endpoints inst.Workload.graph e in
          check "member edge is incident" true (v = a || v = b)
      | Engine.Advice_bits _ -> kinds.(2) <- kinds.(2) + 1)
    qs;
  check "1:1:1 mix" true (kinds = [| 333; 333; 333 |])

(* The server's LRU (capacity 1024, one cache shard) must serve at least
   nine in ten balls of the hot-skewed stream once warm. *)
let zipf_fits_lru () =
  let spec = Workload.hot_skewed in
  let st = stream_of spec 1 in
  let cache = Serve.Cache.create ~capacity:Replay.cache_capacity ~n:spec.Workload.n in
  let hits = ref 0 and balls = ref 0 in
  for i = 1 to 60_000 do
    match Workload.next st with
    | Engine.Output_label v | Engine.Edge_member (v, _) ->
        let hit = Serve.Cache.find cache v <> None in
        if not hit then Serve.Cache.insert cache v "";
        if i > 20_000 then begin
          incr balls;
          if hit then incr hits
        end
    | Engine.Advice_bits _ -> ()
  done;
  let rate = float_of_int !hits /. float_of_int !balls in
  check (Printf.sprintf "hit rate %.3f >= 0.9" rate) true (rate >= 0.9)

let percentiles () =
  let s = Timing.summarize (Array.init 100 (fun i -> 100 - i)) in
  check_int "count" 100 s.Timing.count;
  check_int "p50 nearest rank" 50 s.Timing.p50;
  check_int "p99 nearest rank" 99 s.Timing.p99;
  check_int "beyond p99" 1 s.Timing.beyond_p99;
  check_int "max" 100 s.Timing.max;
  let one = Timing.summarize [| 7 |] in
  check "single sample" true (one.Timing.p50 = 7 && one.Timing.p99 = 7 && one.Timing.beyond_p99 = 0)

(* A stall delays the send of request 1 to t=25: its latency counts from
   its due time (10), not from the late send, and request 2 — due at 20,
   sent at 26 — is charged the wait too. *)
let lateness () =
  let due = Timing.due_ns ~start:0 ~rate:1e8 in
  check "due every 10ns at 1e8/s" true (due 0 = 0 && due 1 = 10 && due 2 = 20);
  let sent = [| 0; 25; 26 |] and received = [| 5; 30; 31 |] in
  let lat = Array.init 3 (fun i -> Timing.latency_ns ~due:(due i) ~received:received.(i)) in
  let lag = Array.init 3 (fun i -> Timing.lag_ns ~due:(due i) ~sent:sent.(i)) in
  check "latency from due time" true (lat = [| 5; 20; 11 |]);
  check "lag" true (lag = [| 0; 15; 6 |]);
  check "early sends have no lag" true (Timing.lag_ns ~due:10 ~sent:4 = 0)

let port_line () =
  check "port parsed" true
    (Child.port_of_line "listening on 127.0.0.1:4242 (n=400 m=400 radius=2 protocol v1)"
    = Some 4242);
  check "other lines ignored" true (Child.port_of_line "memo: canonical-ball table" = None)

(* A small exhaustively certified instance, served from a v1 snapshot
   and from a 3-shard container whose budget holds one shard, with
   single and batch frames. *)
let replay_identity () =
  let spec =
    { Workload.hot_skewed with Workload.n = 600; sample = 0; nodes = Workload.Uniform }
  in
  let inst = Workload.instance spec in
  let packed = Workload.pack inst in
  let oracle = Workload.oracle inst packed.Workload.assignment in
  let expected = Workload.expected oracle in
  let snapshot = Store.Snapshot.read packed.Workload.bytes in
  let bytes = Store.Shard.build ~shards:3 ~halo:(max packed.Workload.radius 1) snapshot in
  let store = Store.Shard.open_bytes bytes in
  let widest =
    Array.fold_left
      (fun acc i -> max acc i.Store.Shard.i_bytes)
      0 (Store.Shard.manifest store).Store.Shard.m_shards
  in
  let sources =
    [
      ("v1", Replay.Mono snapshot);
      ( "v2",
        Replay.Sharded
          { store; router = Serve.Router.create store; budget = widest + 1 } );
    ]
  in
  List.iter
    (fun (label, source) ->
      List.iter
        (fun batch ->
          let st = Workload.stream inst ~seed:5 in
          let frames k = Array.init k (fun _ -> Workload.take st batch) in
          let warm = frames (60 / batch) in
          let sample = frames (240 / batch) in
          let o = Replay.run source ~expected ~warm ~sample in
          let name = Printf.sprintf "%s batch %d" label batch in
          check_int (name ^ ": byte-identical") 0 o.Replay.mismatches;
          let tr = o.Replay.state.Replay.tr in
          check_int (name ^ ": one request span per frame")
            (Array.length sample)
            (Array.length (Replay.durations tr Replay.Request));
          let stats = Replay.self_times tr ~queries:o.Replay.queries in
          check (name ^ ": coverage is positive") true (Replay.coverage stats > 0.0))
        [ 1; 40 ])
    sources

let () =
  Alcotest.run "perfbench"
    [
      ( "workload",
        [
          Alcotest.test_case "seeded streams are deterministic" `Quick determinism;
          Alcotest.test_case "query mix and incident edges" `Quick mix_is_local;
          Alcotest.test_case "zipf hot set fits the LRU" `Quick zipf_fits_lru;
        ] );
      ( "timing",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick percentiles;
          Alcotest.test_case "open-loop lateness" `Quick lateness;
          Alcotest.test_case "server port line" `Quick port_line;
        ] );
      ( "replay",
        [ Alcotest.test_case "traced replay is byte-identical" `Quick replay_identity ] );
    ]
