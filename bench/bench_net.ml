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
   workload through the one-frame batch path.  Both passes run [reps]
   times, alternating, each rep on a fresh router and server, and the
   median rep is reported.  A third pass serves a 4-shard container with
   one shard's body damaged under salvage and checks the degraded
   counters tick.  Acceptance: pipelined and batch answers must be
   byte-identical to direct Serve.Engine serving, and the degraded
   server's answers and error frames to a direct salvaged router's.
   The healthy server answers from a Serve.Router over the snapshot
   file opened through Store.Shard (one shard, one slot per effective
   domain).  [cold_open], the store
   block's "cold_open" sub-block, splits a server's cold start per
   layer on perfbench's two instances and counts the words a serving
   process holds on each. *)

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
   percentiles).  [expected] are the precomputed direct answers, so the
   timed loop only compares; [None] expects an error frame (a query for
   a lost shard's range). *)
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
          (match (Net.Client.recv ~on_latency c, expected.(i)) with
          | Net.Protocol.Answer a, Some e when a = e -> ()
          | Net.Protocol.Error (Net.Protocol.Rejected, _), None -> ()
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

type cold_step = {
  c_name : string;
  c_ms : float;  (* median of the fresh launches *)
  c_q1 : float;
  c_q3 : float;
  c_minor : float;
  c_major : float;
}

let cold_router store =
  Serve.Router.create ~domains:1 ~memo:(Serve.Memo.create ~capacity:4096) store

let first_answer r = ignore (Serve.Router.query r (Serve.Engine.Output_label 0))

(* The steps of a server's cold start, per instance: [prepare path]
   builds what the step starts from, the file at [path] already written,
   and returns the step itself, the part that is timed.  Hot-skewed's v1
   file is opened, routed (one slot, given a memo as `serve --memo` is;
   the file ships no class table, so the router drops it) and answered
   once, each layer alone and then the three back to back.  On
   structured-sweep's container: [Shard.load] of shard 0, which expands
   the id tables; the router's first load of shard 0, an [Advice_bits]
   query that decodes no ball, so it is the load and the engine it
   builds; and the container opened, routed (its table loaded into the
   memo) and answered once. *)
let cold_steps =
  [
    ( "hot-skewed",
      [
        ("open", fun path () -> ignore (Store.Shard.open_file path));
        ( "router_create",
          fun path ->
            let store = Store.Shard.open_file path in
            fun () -> ignore (cold_router store) );
        ( "first_answer",
          fun path ->
            let r = cold_router (Store.Shard.open_file path) in
            fun () -> first_answer r );
        ( "open+create+answer",
          fun path () -> first_answer (cold_router (Store.Shard.open_file path)) );
      ] );
    ( "structured-sweep",
      [
        ( "shard_load",
          fun path ->
            let store = Store.Shard.open_file path in
            fun () -> ignore (Store.Shard.load store 0) );
        ( "router_load",
          fun path ->
            let r = cold_router (Store.Shard.open_file path) in
            fun () -> ignore (Serve.Router.query r (Serve.Engine.Advice_bits 0)) );
        ( "open+create+answer",
          fun path () -> first_answer (cold_router (Store.Shard.open_file path)) );
      ] );
  ]

(* The words of a step (minor, and major — which already counts the
   promoted ones), each of [reps] runs prepared afresh and started from
   a fresh major heap: those of the last run, which allocates what every
   run does. *)
let cold_words ~reps prepare path =
  let minor = ref 0.0 and major = ref 0.0 in
  for _ = 1 to reps do
    let run = prepare path in
    Gc.full_major ();
    let mi0, _, ma0 = Gc.counters () in
    run ();
    let mi1, _, ma1 = Gc.counters () in
    minor := mi1 -. mi0;
    major := ma1 -. ma0
  done;
  (!minor, !major)

(* One launch of a step in a process of its own, the bench executable
   run as [main.exe --cold-step INSTANCE/STEP PATH]: prepared, from a
   fresh major heap, timed once, its milliseconds printed. *)
let cold_step_child ~step path =
  let prepare =
    match String.split_on_char '/' step with
    | [ instance; name ] -> Option.bind (List.assoc_opt instance cold_steps) (List.assoc_opt name)
    | _ -> None
  in
  let run =
    match prepare with
    | Some prepare -> prepare path
    | None -> invalid_arg ("cold step: no step " ^ step)
  in
  Gc.full_major ();
  let (), t = Bench_util.time_once run in
  Printf.printf "%.6f\n%!" (Bench_util.ms t)

let launch_ms ~step path =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "--cold-step"; step; path |] in
  let line = In_channel.input_line ic in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some ms -> float_of_string ms
  | _ -> failwith (Printf.sprintf "cold step %s: the child launch failed" step)

(* What a serving process holds once every node has been answered: the
   words reachable from the router (container handle, manifest, class
   table, and every resident shard's engine: graph rows, id tables,
   advice, label column) and from the serving domain's workspace (the
   BFS mark and the ball-sized queue).  The file is opened and routed as
   `serve --memo --domains 1` does, the memo sized to the shipped
   table, and served in a fresh domain, whose workspace has seen no
   other graph.  [Obj.reachable_words] counts every word of every block,
   headers included, so the count repeats exactly from run to run. *)
type resident = { r_nodes : int; r_router : int; r_workspace : int }

let resident_per_node r = float_of_int (r.r_router + r.r_workspace) /. float_of_int r.r_nodes

let resident_words path =
  Domain.join
    (Domain.spawn (fun () ->
         let store = Store.Shard.open_file path in
         let memo =
           Option.map
             (fun table -> Serve.Memo.create ~capacity:(fst (Serve.Memo.read_table table)))
             (List.assoc_opt Serve.Memo.table_key (Store.Shard.manifest store).Store.Shard.m_meta)
         in
         let router = Serve.Router.create ~domains:1 ?memo store in
         let n = Serve.Router.n router in
         for v = 0 to n - 1 do
           ignore (Serve.Router.query router (Serve.Engine.Output_label v))
         done;
         {
           r_nodes = n;
           r_router = Obj.reachable_words (Obj.repr router);
           r_workspace = Obj.reachable_words (Obj.repr (Workspace.domain_local ()));
         }))

(* The per-layer numbers beside perfbench's [setup_s], in process and on
   its two instances, each file read through [Shard.open_file] as the
   server reads it (see [cold_steps]).  A step's time is the median and
   quartiles of [launches] fresh processes, each timing the step once,
   the launches of an instance's steps interleaved: a time taken inside
   this process would follow the blocks before it, so two commits'
   figures would compare two moments of its heap.  Its words are counted
   here ([cold_words]), an exact count that repeats from run to run. *)
let cold_open ~smoke =
  let reps = if smoke then 3 else 9 in
  let launches = if smoke then 3 else 9 in
  let specs = warm_instances ~smoke in
  let measure (instance, steps) =
    let spec = List.find (fun (s, _, _, _) -> String.equal s instance) specs in
    let _, bytes = instance_bytes spec in
    let path = Filename.temp_file "cold_open" ".ladv" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Store.Io.write_file path bytes;
    let times = List.map (fun (name, _) -> (name, ref [])) steps in
    for _ = 1 to launches do
      List.iter
        (fun (name, ms) -> ms := launch_ms ~step:(instance ^ "/" ^ name) path :: !ms)
        times
    done;
    let quantile sorted p =
      sorted.(Int.max 0 (int_of_float (Float.ceil (p *. float_of_int (Array.length sorted))) - 1))
    in
    ( instance,
      List.map
        (fun (c_name, prepare) ->
          let sorted = Array.of_list !(List.assoc c_name times) in
          Array.sort Float.compare sorted;
          let c_minor, c_major = cold_words ~reps prepare path in
          { c_name; c_ms = quantile sorted 0.5; c_q1 = quantile sorted 0.25;
            c_q3 = quantile sorted 0.75; c_minor; c_major })
        steps,
      resident_words path )
  in
  let results = List.map measure cold_steps in
  let report name steps =
    Printf.printf "store  cold   %-16s" name;
    List.iter
      (fun c ->
        Printf.printf "  %s %.2f ms [%.2f-%.2f] (%.0f minor, %.0f major w)" c.c_name c.c_ms
          c.c_q1 c.c_q3 c.c_minor c.c_major)
      steps;
    print_newline ()
  in
  let report_resident name r =
    Printf.printf "store  resident %-14s n=%d  router %d w  workspace %d w  (%.3f w/node)\n%!"
      name r.r_nodes r.r_router r.r_workspace (resident_per_node r)
  in
  List.iter
    (fun (name, steps, r) ->
      report name steps;
      report_resident name r)
    results;
  let resident r =
    ( "resident",
      J.Obj
        [
          ("nodes", J.Int r.r_nodes);
          ("router_words", J.Int r.r_router);
          ("workspace_words", J.Int r.r_workspace);
          ("words_per_node", J.Float (resident_per_node r));
        ] )
  in
  let json (name, steps, r) =
    ( name,
      J.Obj
        (List.map
           (fun c ->
             ( c.c_name,
               J.Obj
                 [
                   ("ms", J.Float c.c_ms);
                   ("ms_q1", J.Float c.c_q1);
                   ("ms_q3", J.Float c.c_q3);
                   ("minor_words", J.Float c.c_minor);
                   ("major_words", J.Float c.c_major);
                 ] ))
           steps
        @ [ resident r ]) )
  in
  J.Obj
    ([ ("requested_domains", J.Int 1);
       ("effective_domains", J.Int (Localmodel.Pool.effective_domains ~requested:1 ()));
       ("reps", J.Int reps);
       ("launches", J.Int launches) ]
    @ List.map json results)

(* One rep of [block]: a pipelined run and a batch run, each on a fresh
   router and server. *)
type rep = {
  qps : float;
  mismatches : int;
  latencies : int array;  (* sorted *)
  stats : (string * int) list;
  batch_qps : float;
  batch_identical : bool;
}

(* The rep whose [key] is the median of [runs]. *)
let median_by key runs =
  List.nth (List.sort (fun a b -> compare (key a) (key b)) runs) (List.length runs / 2)

(* [snapshot] as a 4-shard container with one bit flipped in the middle
   of shard 1's frame: that shard fails its checksum when it loads. *)
let damaged_container snapshot =
  let halo = max 1 (Serve.Engine.serve_radius snapshot.Store.Snapshot.meta) in
  let container = Store.Shard.build ~shards:4 ~halo snapshot in
  let victim =
    (Store.Shard.manifest (Store.Shard.open_bytes container)).Store.Shard.m_shards.(1)
  in
  let b = Bytes.of_string container in
  let at = victim.Store.Shard.i_offset + (victim.Store.Shard.i_bytes / 2) in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
  Bytes.to_string b

let block ~smoke =
  let n = if smoke then 2_000 else 20_000 in
  let count = if smoke then 10_000 else 50_000 in
  let reps = if smoke then 3 else 7 in
  let window = 64 in
  let g, bytes = make_loaded n (n + 43) in
  let loaded = Store.Snapshot.read bytes in
  let queries = workload g (Prng.create (n + 101)) count in
  let direct = Serve.Engine.create loaded in
  let expected = Array.map (fun q -> Some (Serve.Engine.query direct q)) queries in
  let batch_size = if smoke then 500 else 1_000 in
  (* Pipelined and batch reps alternate, so host drift reaches both. *)
  let runs =
    List.init reps (fun _ ->
        let elapsed, mismatches, latencies, stats =
          pipelined_run ~router:(open_router bytes) ~expected ~window queries
        in
        let batch_elapsed, batch_identical =
          batch_run ~router:(open_router bytes) ~direct ~batch_size queries
        in
        { qps = rate count elapsed; mismatches; latencies; stats;
          batch_qps = rate count batch_elapsed; batch_identical })
  in
  let { qps; latencies; stats; _ } = median_by (fun r -> r.qps) runs in
  let batch_qps = (median_by (fun r -> r.batch_qps) runs).batch_qps in
  let mismatches = List.fold_left (fun acc r -> acc + r.mismatches) 0 runs in
  let batch_identical = List.for_all (fun r -> r.batch_identical) runs in
  Printf.printf
    "store  net   n=%-7d %6d queries (window %d)  %8.0f q/s  p50 %dus p99 \
     %dus  batch(%d) %8.0f q/s  (median of %d reps)  [%s]\n\
     %!"
    n count window qps
    (percentile latencies 0.50)
    (percentile latencies 0.99)
    batch_size batch_qps reps
    (if mismatches = 0 && batch_identical then "ok" else "FAIL");
  (* Degraded serving over the same stack: a 4-shard container of the
     same snapshot with one shard's body damaged, served under salvage.
     The lost range answers with error frames, every other range with
     answers. *)
  let damaged = damaged_container loaded in
  let sv_count = min count 2_000 in
  let sv_queries = Array.sub queries 0 sv_count in
  let salvaged () = Serve.Router.create ~salvage:true (Store.Shard.open_bytes damaged) in
  let sv_direct = salvaged () in
  let sv_expected =
    Array.map
      (fun q ->
        match Serve.Router.query sv_direct q with
        | a -> Some a
        | exception Serve.Router.Shard_lost _ -> None)
      sv_queries
  in
  let sv_lost = Array.fold_left (fun k e -> if Option.is_none e then k + 1 else k) 0 sv_expected in
  let sv_elapsed, sv_mismatches, _, sv_stats =
    pipelined_run
      ~router:(salvaged ())
      ~expected:sv_expected
      ~window sv_queries
  in
  let sv_degraded = stat sv_stats "serve.degraded" in
  Printf.printf
    "store  net   salvaged: %d queries (%d to the lost shard)  %8.0f q/s  \
     engine.degraded=%d serve.degraded=%d  [%s]\n\
     %!"
    sv_count sv_lost (rate sv_count sv_elapsed)
    (stat sv_stats "engine.degraded")
    sv_degraded
    (if sv_mismatches = 0 && sv_degraded > 0 then "ok" else "FAIL");
  let floats f = J.List (List.map (fun r -> J.Float (f r)) runs) in
  J.Obj
    [
      ("family", J.Str "cycle");
      ("n", J.Int n);
      ("queries", J.Int count);
      ("pipeline_window", J.Int window);
      ("reps", J.Int reps);
      ("queries_per_sec", J.Float qps);
      ("rep_queries_per_sec", floats (fun r -> r.qps));
      ("latency", percentiles_json latencies);
      ("batch_size", J.Int batch_size);
      ("batch_queries_per_sec", J.Float batch_qps);
      ("rep_batch_queries_per_sec", floats (fun r -> r.batch_qps));
      ("bytes_in", J.Int (stat stats "net.bytes_in"));
      ("bytes_out", J.Int (stat stats "net.bytes_out"));
      ("requests", J.Int (stat stats "net.requests"));
      ( "salvage",
        J.Obj
          [
            ("shards", J.Int 4);
            ("queries", J.Int sv_count);
            ("lost_queries", J.Int sv_lost);
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
