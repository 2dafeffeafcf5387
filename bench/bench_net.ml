(* Loopback TCP serving throughput: the long-lived server (lib/net)
   driven over a real socket pair by a pipelined client, recorded as the
   "net" sub-block of BENCH_local.json's store block.

   The run spawns the event loop in its own domain on an ephemeral port,
   pushes a seeded mixed workload through it with a fixed pipelining
   window, and checks every answer byte-for-byte against a second,
   independent engine over the same snapshot (sharing one engine across
   domains would race its caches).  Latency is measured per response via
   the client's injected clock and recorded both as percentiles here and
   into the net.latency_us obs histogram; a second pass batches the same
   workload through the one-frame batch path; a third serves a salvaged
   snapshot and checks the degraded counters tick.  Acceptance:
   pipelined, batch and degraded answers must all be byte-identical to
   direct Serve.Engine serving.  The server answers from a
   Serve.Router over the snapshot file opened through Store.Shard (one
   shard, one slot per effective domain).  [cold_open], the store
   block's "cold_open" sub-block, splits a server's cold start per
   layer on perfbench's two instances. *)

open Netgraph
module J = Obs.Jsonout

let rate count t = if t <= 0.0 then infinity else float_of_int count /. t
let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* Cyclic mixed workload: unlike the store bench's distinct-node pass,
   the net bench needs more queries than the graph has nodes. *)
let workload g rng count =
  let n = Graph.n g in
  Array.init count (fun i ->
      let v = Prng.int rng n in
      match i mod 3 with
      | 0 -> Serve.Engine.Output_label v
      | 1 -> Serve.Engine.Edge_member (v, (Graph.incident_edges g v).(0))
      | _ -> Serve.Engine.Advice_bits v)

let latency_hist =
  Obs.Metrics.histogram "net.latency_us"
    ~buckets:[| 10; 20; 50; 100; 200; 500; 1_000; 2_000; 5_000; 10_000; 100_000 |]

(* Nearest-rank, ceil(p*k)-1 — the floored form this used to inline
   read one sample high at every non-integral rank (Obs.Stats). *)
let percentile = Obs.Stats.percentile

(* Run [count] queries through an in-process server with [window]
   requests pipelined, returning (seconds, mismatches, latency µs
   percentiles).  [expected] are the precomputed direct-engine answers,
   so the timed loop only compares. *)
let pipelined_run ~router ~expected ~window queries =
  let config = { Net.Server.default_config with port = 0 } in
  let server = Net.Server.create ~config router in
  let d = Domain.spawn (fun () -> Net.Server.run server) in
  let finish () =
    Net.Server.shutdown server;
    Domain.join d
  in
  Fun.protect ~finally:finish @@ fun () ->
  let c = Net.Client.connect ~clock:now_ns ~port:(Net.Server.port server) () in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  let count = Array.length queries in
  let latencies = Array.make count 0 in
  let mismatches = ref 0 in
  let (), elapsed =
    Bench_util.time_once (fun () ->
        let sent = ref 0 and received = ref 0 in
        while !received < count do
          while !sent < count && !sent - !received < window do
            Net.Client.send c (Net.Protocol.Query queries.(!sent));
            incr sent
          done;
          let i = !received in
          let on_latency ns =
            let us = Int64.to_int ns / 1_000 in
            latencies.(i) <- us;
            Obs.Metrics.observe latency_hist us
          in
          (match Net.Client.recv ~on_latency c with
          | Net.Protocol.Answer a when a = expected.(i) -> ()
          | _ -> incr mismatches);
          incr received
        done)
  in
  let stats = Net.Client.stats c in
  Array.sort compare latencies;
  (elapsed, !mismatches, latencies, stats)

let percentiles_json sorted =
  J.Obj
    [
      ("p50_us", J.Int (percentile sorted 0.50));
      ("p95_us", J.Int (percentile sorted 0.95));
      ("p99_us", J.Int (percentile sorted 0.99));
      ("max_us", J.Int (percentile sorted 1.0));
    ]

let make_loaded n seed =
  let g = Builders.cycle n in
  let rng = Prng.create seed in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let snapshot, _cert = Serve.Pack.edge_compression ~sample:64 g x in
  (g, Store.Snapshot.write snapshot)

(* The server's router opens the file as the CLI does. *)
let open_router bytes = Serve.Router.create (Store.Shard.open_bytes bytes)

(* Batch path: the same workload in one-frame batches, timed round-trip. *)
let batch_run ~router ~direct ~batch_size queries =
  let config = { Net.Server.default_config with port = 0 } in
  let server = Net.Server.create ~config router in
  let d = Domain.spawn (fun () -> Net.Server.run server) in
  let finish () =
    Net.Server.shutdown server;
    Domain.join d
  in
  Fun.protect ~finally:finish @@ fun () ->
  let c = Net.Client.connect ~port:(Net.Server.port server) () in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  let count = Array.length queries in
  let batches = ref [] in
  let i = ref 0 in
  while !i < count do
    let k = min batch_size (count - !i) in
    batches := Array.sub queries !i k :: !batches;
    i := !i + k
  done;
  let batches = List.rev !batches in
  let expected = List.map (Array.map (Serve.Engine.query direct)) batches in
  let identical = ref true in
  let (), elapsed =
    Bench_util.time_once (fun () ->
        List.iter2
          (fun b e -> if Net.Client.batch c b <> e then identical := false)
          batches expected)
  in
  (elapsed, !identical)

(* ------------------------------------------------------------------ *)
(* Warm path: frame in, column read, frame out *)

(* The two perfbench serving instances, rebuilt here (perfbench itself
   is not a library this bench links): structured-sweep's n = 65,537
   cycle with the periodic subset in an 8-shard container, and
   hot-skewed's n = 65,536 cycle with pack seed 1's random subset in a
   v1 file, both certified on a 4,099-node sample. *)
let warm_instances ~smoke =
  let n k = if smoke then 2_048 + k else 65_536 + k in
  [ ("structured-sweep", n 1, `Periodic, 8); ("hot-skewed", n 0, `Random 1, 1) ]

let instance_bytes (_, n, subset, shards) =
  let g = Builders.cycle n in
  let x = Bitset.create (Graph.m g) in
  (match subset with
  | `Periodic -> Graph.iter_edges (fun e _ -> if e mod 4 < 2 then Bitset.add x e) g
  | `Random seed ->
      let rng = Prng.create seed in
      Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g);
  let snapshot, cert = Serve.Pack.edge_compression ~sample:(min 4099 n) g x in
  let bytes =
    if shards > 1 then Store.Shard.build ~shards ~halo:(max cert.Serve.Pack.radius 1) snapshot
    else Store.Snapshot.write snapshot
  in
  (g, bytes)

let warm_router spec ~domains =
  let g, bytes = instance_bytes spec in
  (g, Serve.Router.create ~domains (Store.Shard.open_bytes bytes))

(* What the server does with a frame burst, minus the socket: feed one
   64-frame chunk, answer through the router (as [Server.dispatch]
   does), then hand every pending byte to [sink] — the write. *)
let serve_chunks router conn chunks ~sink =
  let dispatch = function
    | Net.Protocol.Query q -> Net.Protocol.Answer (Serve.Router.query router q)
    | _ -> invalid_arg "warm path: not a single query"
  in
  Array.iter
    (fun chunk ->
      Net.Conn.feed conn chunk (Bytes.length chunk) dispatch;
      let flushing = ref true in
      while !flushing do
        match Net.Conn.pending conn with
        | None -> flushing := false
        | Some (buf, pos, len) ->
            sink buf pos len;
            Net.Conn.wrote conn len
      done)
    chunks

(* Per query kind: ns and minor words per query through [Conn.feed] →
   [Router.query] → in-place encode → drain, on a router whose shards
   are all resident and whose label column is full.  Interleaved
   min-of-reps over the three kinds. *)
let warm_path ~smoke =
  let domains = 1 in
  let count = if smoke then 3_000 else 60_000 in
  let reps = if smoke then 2 else 7 in
  let window = 64 in
  let kinds = [| "label"; "member"; "bits" |] in
  let instance ((name, n, _, shards) as spec) =
    let g, router = warm_router spec ~domains in
    Graph.iter_nodes (fun v -> ignore (Serve.Router.query router (Serve.Engine.Output_label v))) g;
    let rng = Prng.create (n + 7) in
    let queries =
      Array.map
        (fun kind ->
          Array.init count (fun _ ->
              let v = Prng.int rng n in
              match kind with
              | "label" -> Serve.Engine.Output_label v
              | "member" ->
                  let inc = Graph.incident_edges g v in
                  Serve.Engine.Edge_member (v, inc.(Prng.int rng (Array.length inc)))
              | _ -> Serve.Engine.Advice_bits v))
        kinds
    in
    let chunks qs =
      Array.init ((Array.length qs + window - 1) / window) (fun c ->
          let frames = Array.sub qs (c * window) (min window (Array.length qs - (c * window))) in
          Bytes.of_string
            (String.concat ""
               (Array.to_list
                  (Array.map (fun q -> Net.Protocol.request_to_string (Net.Protocol.Query q)) frames))))
    in
    let streams = Array.map chunks queries in
    let conn = Net.Conn.create ~write_budget:(1 lsl 30) () in
    (* One untimed pass per kind grows the buffers and checks the bytes. *)
    let identical =
      Array.for_all2
        (fun qs stream ->
          let got = Buffer.create (16 * count) in
          serve_chunks router conn stream ~sink:(Buffer.add_subbytes got);
          Buffer.contents got
          = String.concat ""
              (Array.to_list
                 (Array.map
                    (fun q -> Net.Protocol.response_to_string (Net.Protocol.Answer (Serve.Router.query router q)))
                    qs)))
        queries streams
    in
    let wire = Bytes.create 65_536 in
    let sink buf pos len = Bytes.blit buf pos wire 0 (min len 65_536) in
    let best_ns = Array.make 3 infinity and best_words = Array.make 3 infinity in
    for _ = 1 to reps do
      Array.iteri
        (fun k stream ->
          let w0 = Gc.minor_words () in
          let (), t = Bench_util.time_once (fun () -> serve_chunks router conn stream ~sink) in
          let words = Gc.minor_words () -. w0 in
          best_ns.(k) <- Float.min best_ns.(k) (t *. 1e9 /. float_of_int count);
          best_words.(k) <- Float.min best_words.(k) (words /. float_of_int count))
        streams
    done;
    Printf.printf "store  net   warm path %-16s n=%-6d %s  [%s]\n%!" name n
      (String.concat "  "
         (Array.to_list
            (Array.mapi
               (fun k kind -> Printf.sprintf "%s %4.0f ns %4.1f w" kind best_ns.(k) best_words.(k))
               kinds)))
      (if identical then "ok" else "FAIL");
    J.Obj
      ([
         ("workload", J.Str name);
         ("n", J.Int n);
         ("container", J.Str (if shards > 1 then Printf.sprintf "v2, %d shards" shards else "v1"));
         ("radius", J.Int (Serve.Router.radius router));
         ("queries_per_kind", J.Int count);
         ("byte_identical", J.Bool identical);
       ]
      @ Array.to_list
          (Array.mapi
             (fun k kind ->
               ( kind,
                 J.Obj
                   [
                     ("ns_per_query", J.Float best_ns.(k));
                     ("minor_words_per_query", J.Float best_words.(k));
                   ] ))
             kinds))
  in
  J.Obj
    [
      ("requested_domains", J.Int domains);
      ( "effective_domains",
        J.Int (Localmodel.Pool.effective_domains ~requested:domains ()) );
      ("chunk_frames", J.Int window);
      ("reps", J.Int reps);
      ("method", J.Str "interleaved min-of-reps over the three query kinds");
      ("instances", J.List (List.map instance (warm_instances ~smoke)));
    ]

let stat stats name = Option.value ~default:(-1) (List.assoc_opt name stats)

(* ------------------------------------------------------------------ *)
(* Cold open: what a server does before its first answer *)

type cold_step = { c_name : string; c_ms : float; c_minor : float; c_major : float }

(* [f (setup ())] [reps] times from a fresh major heap, timing [f]
   alone: the fastest time, and the words (minor, and major — which
   already counts the promoted ones) of the last run, which allocates
   what every run does. *)
let cold_measure ~reps setup f =
  let best = ref infinity and minor = ref 0.0 and major = ref 0.0 in
  for _ = 1 to reps do
    let x = setup () in
    Gc.full_major ();
    let mi0, _, ma0 = Gc.counters () in
    let (), t = Bench_util.time_once (fun () -> f x) in
    let mi1, _, ma1 = Gc.counters () in
    best := Float.min !best t;
    minor := mi1 -. mi0;
    major := ma1 -. ma0
  done;
  (Bench_util.ms !best, !minor, !major)

(* The per-layer numbers beside perfbench's [setup_s], in process and on
   its two instances, each file read through [Shard.open_file] as the
   server reads it: hot-skewed's v1 file opened, routed (one slot, given
   a memo as `serve --memo` is; the file ships no class table, so the
   router drops it) and answered once, each layer timed alone
   and then the three back to back; one load of structured-sweep's
   shard 0 from an opened container, and the same container opened,
   routed (its table loaded into the memo) and answered once. *)
let cold_open ~smoke =
  let reps = if smoke then 3 else 9 in
  let with_file bytes f =
    let path = Filename.temp_file "cold_open" ".ladv" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Store.Io.write_file path bytes;
    f path
  in
  let specs = warm_instances ~smoke in
  let spec name = List.find (fun (s, _, _, _) -> String.equal s name) specs in
  let router store =
    Serve.Router.create ~domains:1 ~memo:(Serve.Memo.create ~capacity:4096) store
  in
  let first_answer r = ignore (Serve.Router.query r (Serve.Engine.Output_label 0)) in
  let step c_name setup f =
    let c_ms, c_minor, c_major = cold_measure ~reps setup f in
    { c_name; c_ms; c_minor; c_major }
  in
  let hot =
    let _, bytes = instance_bytes (spec "hot-skewed") in
    with_file bytes @@ fun path ->
    let opened () = Store.Shard.open_file path in
    [
      step "open" ignore (fun () -> ignore (opened ()));
      step "router_create" opened (fun store -> ignore (router store));
      step "first_answer" (fun () -> router (opened ())) first_answer;
      step "open+create+answer" ignore (fun () -> first_answer (router (opened ())));
    ]
  in
  let sweep =
    let _, bytes = instance_bytes (spec "structured-sweep") in
    with_file bytes @@ fun path ->
    let store = Store.Shard.open_file path in
    [
      step "shard_load" ignore (fun () -> ignore (Store.Shard.load store 0));
      step "open+create+answer" ignore (fun () ->
          first_answer (router (Store.Shard.open_file path)));
    ]
  in
  let report name steps =
    Printf.printf "store  cold   %-16s" name;
    List.iter
      (fun c ->
        Printf.printf "  %s %.2f ms (%.0f minor, %.0f major w)" c.c_name c.c_ms c.c_minor
          c.c_major)
      steps;
    print_newline ()
  in
  report "hot-skewed" hot;
  report "structured-sweep" sweep;
  let json (name, steps) =
    ( name,
      J.Obj
        (List.map
           (fun c ->
             ( c.c_name,
               J.Obj
                 [
                   ("ms", J.Float c.c_ms);
                   ("minor_words", J.Float c.c_minor);
                   ("major_words", J.Float c.c_major);
                 ] ))
           steps) )
  in
  J.Obj
    ([ ("requested_domains", J.Int 1);
       ("effective_domains", J.Int (Localmodel.Pool.effective_domains ~requested:1 ()));
       ("reps", J.Int reps) ]
    @ List.map json [ ("hot-skewed", hot); ("structured-sweep", sweep) ])

let block ~smoke =
  let n = if smoke then 2_000 else 20_000 in
  let count = if smoke then 10_000 else 50_000 in
  let window = 64 in
  let g, bytes = make_loaded n (n + 43) in
  let loaded = Store.Snapshot.read bytes in
  let queries = workload g (Prng.create (n + 101)) count in
  let direct = Serve.Engine.create loaded in
  let expected = Array.map (fun q -> Serve.Engine.query direct q) queries in
  let elapsed, mismatches, latencies, stats =
    pipelined_run ~router:(open_router bytes)
      ~expected ~window queries
  in
  let qps = rate count elapsed in
  let batch_size = if smoke then 500 else 1_000 in
  let batch_elapsed, batch_identical =
    batch_run ~router:(open_router bytes)
      ~direct ~batch_size queries
  in
  let batch_qps = rate count batch_elapsed in
  Printf.printf
    "store  net   n=%-7d %6d queries (window %d)  %8.0f q/s  p50 %dus p99 \
     %dus  batch(%d) %8.0f q/s  [%s]\n\
     %!"
    n count window qps
    (percentile latencies 0.50)
    (percentile latencies 0.99)
    batch_size batch_qps
    (if mismatches = 0 && batch_identical then "ok" else "FAIL");
  (* Degraded serving over the same stack: flip one advice payload byte,
     salvage, and serve the quarantined bits live. *)
  let damaged =
    let s =
      List.find
        (fun s -> s.Store.Codec.tag = Store.Snapshot.tag_advice)
        (Store.Snapshot.sections bytes)
    in
    let b = Bytes.of_string bytes in
    let pos = s.Store.Codec.offset + 5 + s.Store.Codec.length - 1 in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
    Bytes.to_string b
  in
  let sv_count = min count 2_000 in
  let sv_queries = Array.sub queries 0 sv_count in
  let salvaged () = Serve.Router.create ~salvage:true (Store.Shard.open_bytes damaged) in
  let sv_direct = salvaged () in
  let sv_expected = Array.map (fun q -> Serve.Router.query sv_direct q) sv_queries in
  let sv_elapsed, sv_mismatches, _, sv_stats =
    pipelined_run
      ~router:(salvaged ())
      ~expected:sv_expected
      ~window sv_queries
  in
  let sv_degraded = stat sv_stats "serve.degraded" in
  Printf.printf
    "store  net   salvaged: %d queries  %8.0f q/s  engine.degraded=%d \
     serve.degraded=%d  [%s]\n\
     %!"
    sv_count (rate sv_count sv_elapsed)
    (stat sv_stats "engine.degraded")
    sv_degraded
    (if sv_mismatches = 0 && sv_degraded > 0 then "ok" else "FAIL");
  J.Obj
    [
      ("family", J.Str "cycle");
      ("n", J.Int n);
      ("queries", J.Int count);
      ("pipeline_window", J.Int window);
      ("queries_per_sec", J.Float qps);
      ("latency", percentiles_json latencies);
      ("batch_size", J.Int batch_size);
      ("batch_queries_per_sec", J.Float batch_qps);
      ("bytes_in", J.Int (stat stats "net.bytes_in"));
      ("bytes_out", J.Int (stat stats "net.bytes_out"));
      ("requests", J.Int (stat stats "net.requests"));
      ( "salvage",
        J.Obj
          [
            ("queries", J.Int sv_count);
            ("queries_per_sec", J.Float (rate sv_count sv_elapsed));
            ("engine_degraded", J.Int (stat sv_stats "engine.degraded"));
            ("serve_degraded", J.Int sv_degraded);
            ("byte_identical", J.Bool (sv_mismatches = 0));
          ] );
      ("warm_path", warm_path ~smoke);
      ( "acceptance",
        J.Obj
          [
            ("pipelined_byte_identical", J.Bool (mismatches = 0));
            ("batch_byte_identical", J.Bool batch_identical);
            ( "salvage_served_degraded",
              J.Bool (sv_mismatches = 0 && sv_degraded > 0) );
          ] );
    ]
