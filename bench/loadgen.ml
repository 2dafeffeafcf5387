(* loadgen — pipelined TCP load generator for `advice_store serve --listen`.

   Drives a live server with a seeded mixed workload (labels, edge
   memberships, advice reads) over one connection, [--window] requests
   in flight, and reports throughput and latency percentiles on stderr.
   Stdout carries only deterministic facts — query/mismatch counts and
   the server's stats frame as sorted `key value` lines — so a run
   against a deterministic server golden-diffs cleanly (the bench-smoke
   rule relies on this).

   Two ways to point it at a server:

     loadgen --port 7411 [--host H]      # a server someone else runs
     loadgen --spawn SNAPSHOT            # self-hosted: load SNAPSHOT,
                                         # run the event loop in-process
                                         # on an ephemeral port, drive it
                                         # over the loopback, shut down

   In --spawn mode every answer is additionally verified byte-for-byte
   against a second, independent engine over the same snapshot; against
   a remote server the generator only counts answers and errors (it has
   no ground truth to compare with). *)

open Cmdliner
open Netgraph

let now_ns () = Int64.of_float (Unix.gettimeofday () *. 1e9)

let workload g seed count =
  let rng = Prng.create seed in
  let n = Graph.n g in
  Array.init count (fun i ->
      let v = Prng.int rng n in
      match i mod 3 with
      | 0 -> Serve.Engine.Output_label v
      | 1 -> Serve.Engine.Edge_member (v, (Graph.incident_edges g v).(0))
      | _ -> Serve.Engine.Advice_bits v)

(* Nearest-rank, ceil(p*k)-1 — the floored form this used to inline
   read one sample high at every non-integral rank (Obs.Stats). *)
let percentile = Obs.Stats.percentile

(* The workload needs the graph to build valid queries.  Against a
   remote server we only know the snapshot if the caller gave us one;
   otherwise derive node/edge bounds from the stats frame. *)
let remote_workload stats seed count =
  let n = Option.value ~default:0 (List.assoc_opt "engine.n" stats) in
  if n <= 0 then failwith "server stats carry no engine.n; cannot build a workload";
  let rng = Prng.create seed in
  Array.init count (fun i ->
      let v = Prng.int rng n in
      match i mod 3 with
      | 0 -> Serve.Engine.Output_label v
      | _ -> Serve.Engine.Advice_bits v)

let drive c ~window ~queries ~expected =
  let count = Array.length queries in
  let latencies = Array.make count 0 in
  let mismatches = ref 0 and errors = ref 0 in
  let t0 = Unix.gettimeofday () in
  let sent = ref 0 and received = ref 0 in
  while !received < count do
    while !sent < count && !sent - !received < window do
      Net.Client.send c (Net.Protocol.Query queries.(!sent));
      incr sent
    done;
    let i = !received in
    let on_latency ns = latencies.(i) <- Int64.to_int ns / 1_000 in
    (match Net.Client.recv ~on_latency c with
    | Net.Protocol.Answer a -> (
        match expected with
        | Some e when a <> e.(i) -> incr mismatches
        | _ -> ())
    | Net.Protocol.Error _ -> incr errors
    | _ -> incr mismatches);
    incr received
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  Array.sort compare latencies;
  (elapsed, !mismatches, !errors, latencies)

let run_batches c ~batch ~queries ~direct =
  let count = Array.length queries in
  let i = ref 0 and mismatches = ref 0 in
  while !i < count do
    let k = min batch (count - !i) in
    let b = Array.sub queries !i k in
    let got = Net.Client.batch c b in
    (match direct with
    | Some d when got <> Array.map (Serve.Engine.query d) b -> incr mismatches
    | _ -> ());
    i := !i + k
  done;
  !mismatches

let main host port spawn count window batch seed show_stats =
  if spawn = None && port <= 0 then begin
    prerr_endline "loadgen: --port or --spawn is required";
    exit 2
  end;
  let cleanup = ref (fun () -> ()) in
  let port, g, direct =
    match spawn with
    | Some path ->
        let server =
          Net.Server.create
            ~config:{ Net.Server.default_config with port = 0 }
            (Serve.Router.create (Store.Shard.open_file path))
        in
        (* The reference decodes the same file read whole. *)
        let loaded = Store.Snapshot.read (Store.Io.read_file path) in
        let d = Domain.spawn (fun () -> Net.Server.run server) in
        cleanup :=
          (fun () ->
            Net.Server.shutdown server;
            Domain.join d);
        ( Net.Server.port server,
          Some loaded.Store.Snapshot.graph,
          Some (Serve.Engine.create loaded) )
    | None -> (port, None, None)
  in
  Fun.protect ~finally:(fun () -> !cleanup ()) @@ fun () ->
  let c = Net.Client.connect ~host ~clock:now_ns ~port () in
  Fun.protect ~finally:(fun () -> Net.Client.close c) @@ fun () ->
  Net.Client.ping c;
  let queries =
    match g with
    | Some g -> workload g seed count
    | None -> remote_workload (Net.Client.stats c) seed count
  in
  let expected =
    Option.map (fun d -> Array.map (fun q -> Serve.Engine.query d q) queries) direct
  in
  let elapsed, mismatches, errors, latencies =
    drive c ~window ~queries ~expected
  in
  let batch_mismatches =
    if batch > 0 then run_batches c ~batch ~queries ~direct else 0
  in
  (* Deterministic summary on stdout; timing on stderr. *)
  Printf.printf "loadgen: %d queries answered, %d error frames, %d mismatches\n"
    count errors mismatches;
  if batch > 0 then
    Printf.printf "loadgen: %d queries re-run in batches of %d, %d mismatches\n"
      count batch batch_mismatches;
  if show_stats then begin
    print_endline "stats";
    List.iter
      (fun (k, v) -> Printf.printf "%s %d\n" k v)
      (Net.Client.stats c)
  end;
  Printf.eprintf
    "loadgen: %.0f q/s over %.3fs (window %d)  latency p50 %dus p95 %dus p99 \
     %dus max %dus\n"
    (float_of_int count /. elapsed)
    elapsed window
    (percentile latencies 0.50)
    (percentile latencies 0.95)
    (percentile latencies 0.99)
    (percentile latencies 1.0);
  if mismatches > 0 || batch_mismatches > 0 then 1 else 0

let host_t =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST"
       ~doc:"Server address to connect to.")

let port_t =
  Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT"
       ~doc:"Server TCP port (required unless $(b,--spawn) is given).")

let spawn_t =
  Arg.(value & opt (some file) None & info [ "spawn" ] ~docv:"SNAPSHOT"
       ~doc:"Self-hosted mode: load $(docv), serve it in-process on an \
             ephemeral port, drive that server, and verify every answer \
             against a direct engine.")

let count_t =
  Arg.(value & opt int 10_000 & info [ "count" ] ~docv:"N"
       ~doc:"Number of single queries to send.")

let window_t =
  Arg.(value & opt int 64 & info [ "window" ] ~docv:"W"
       ~doc:"Pipelining window: requests kept in flight.")

let batch_t =
  Arg.(value & opt int 0 & info [ "batch" ] ~docv:"B"
       ~doc:"Also re-send the workload as batch frames of $(docv) queries \
             (0 disables the batch pass).")

let seed_t =
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED"
       ~doc:"Workload PRNG seed.")

let stats_t =
  Arg.(value & flag & info [ "stats" ]
       ~doc:"Print the server's stats frame as sorted key/value lines \
             after the run.")

let cmd =
  let doc = "pipelined TCP load generator for the advice store server" in
  Cmd.v
    (Cmd.info "loadgen" ~doc)
    Term.(
      const main $ host_t $ port_t $ spawn_t $ count_t $ window_t $ batch_t
      $ seed_t $ stats_t)

let () = exit (Cmd.eval' cmd)
