(* perfbench — the repository's serving benchmark (BENCHMARK.json).

     main.exe --server PATH --workload NAME --seed N --seconds S --trace 0|1

   Packs the workload's snapshot in-process, starts PATH (the
   `advice_store` binary) as `serve --listen --memo --domains 1`, drives
   it over one loopback connection and checks every answer against the
   full-graph decoder.  --trace 0 reports the end-to-end metrics (all
   from untraced runs); --trace 1 reports the per-layer metrics of a
   shorter wire session plus the in-process traced replay.  The last
   line of standard output is the result object; details, host facts
   and the span table go to standard error and to .perfbench/.

   perfbench/run.sh builds this executable and the server from source
   and runs it from the root of a checkout. *)

open Perfbench

let out_dir = ".perfbench"
let setup_launches = 9
let ping_count = 200
let lag_limit_ns = 1_000_000
let replay_queries = 3000

(* ------------------------------------------------------------------ *)
(* Result line *)

type metric = { name : string; value : float; unit : string }

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number m.value) m.unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)

let us ns = float_of_int ns /. 1e3
let ms ns = float_of_int ns /. 1e6
let secs = Timing.seconds
let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* ------------------------------------------------------------------ *)
(* Host facts *)

let git_rev () =
  (* The benchmark runs from plain checkouts too; no .git means unknown. *)
  let read path = try Some (String.trim (Store.Io.read_file path)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_) with Some rev -> rev | None -> "unknown")
  | Some rev -> rev
  | None -> "unknown"

let domains_requested = 1

let host_facts () =
  let module J = Obs.Jsonout in
  [
    ("nproc", J.Int (Domain.recommended_domain_count ()));
    ("server_domains_requested", J.Int domains_requested);
    ( "server_domains_effective",
      J.Int (Localmodel.View.effective_domains ~requested:domains_requested ()) );
    ("git_rev", J.Str (git_rev ()));
    ("ocaml", J.Str Sys.ocaml_version);
  ]

(* ------------------------------------------------------------------ *)
(* Server sessions *)

type session = { child : Child.t; conn : Wire.conn; setup_ns : int }

(* Launch the server and time it up to the first verified answer. *)
let launch ~exe ~path ~resident_mb ~probe ~verify =
  let t0 = Timing.now_ns () in
  let child = Child.start ~exe ~snapshot:path ~resident_mb in
  match Wire.connect child.Child.port with
  | conn ->
      verify [| probe |] (Wire.round_trip conn (Net.Protocol.Query probe));
      { child; conn; setup_ns = Timing.now_ns () - t0 }
  | exception e ->
      Child.stop child;
      raise e

let close s =
  Wire.close s.conn;
  Child.stop s.child

let resident_mb spec =
  match spec.Workload.container with
  | Workload.Mono -> 0
  | Workload.Sharded { resident_mb; _ } -> resident_mb

type wire_result = {
  qps : float;  (* median round *)
  p50 : int;  (* median of the rounds' p50 latencies, ns *)
  p99 : int;  (* median of the rounds' p99 latencies, ns *)
  latency : Timing.summary;  (* every open-loop sample, pooled *)
  lag : Timing.summary;  (* every round, kept or not *)
  rss_kb : int;
  setup : Timing.summary;
  extra : (string * int) list;  (* stats frame, when asked for *)
  pings : Timing.summary option;
  per_round : (float * Timing.summary) list;  (* the rounds that count *)
  rounds_run : int;
}

let median_int xs = Timing.median (Array.of_list xs)

let median_float xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Obs.Stats.index ~count:(Array.length a) 0.5)

(* [launches] servers are timed to their first verified answer.  The
   last one is warmed with the workload's [warm] frames, then measured
   in [rounds] interleaved rounds, each a closed-loop slice (throughput)
   and an open-loop slice (latency from due time), sharing [seconds]
   between them.  Each figure is the median over the rounds:
   the host's speed drifts by up to half for seconds at a time, and many
   short interleaved rounds keep one slow stretch from deciding a run. *)
let drive ~exe ~path ~spec ~stream ~probe ~verify ~launches ~seconds ~ping =
  let rmb = resident_mb spec in
  let rec setups k acc =
    let s = launch ~exe ~path ~resident_mb:rmb ~probe ~verify in
    if k > 1 then begin
      close s;
      setups (k - 1) (s.setup_ns :: acc)
    end
    else (s, s.setup_ns :: acc)
  in
  let s, setup = setups launches [] in
  Fun.protect ~finally:(fun () -> close s) @@ fun () ->
  let next_frame () = Workload.take stream spec.Workload.batch in
  let window = spec.Workload.window in
  ignore
    (Wire.closed_loop s.conn ~frames:spec.Workload.warm ~next_frame ~window
       ~seconds:3600.0 ~verify);
  let slice = 0.5 *. seconds /. float_of_int spec.Workload.rounds in
  let rate = spec.Workload.rate /. float_of_int spec.Workload.batch in
  let round () =
    let answered, elapsed = Wire.closed_loop s.conn ~next_frame ~window ~seconds:slice ~verify in
    let latency, lag = Wire.open_loop s.conn ~next_frame ~rate ~seconds:slice ~verify in
    (float_of_int answered /. secs elapsed, latency, lag)
  in
  (* A round counts only if the generator kept its open-loop schedule
     (send lag p99 within [lag_limit_ns]); otherwise the host starved
     the generator and the round measured the host, not the server.
     Such rounds are rerun, up to three times the planned count. *)
  let rec measure k valid all =
    if List.length valid >= spec.Workload.rounds || k >= 3 * spec.Workload.rounds then
      (valid, all)
    else
      let ((_, _, lag) as r) = round () in
      let kept = (Timing.summarize lag).Timing.p99 <= lag_limit_ns in
      measure (k + 1) (if kept then r :: valid else valid) (r :: all)
  in
  let valid, all = measure 0 [] [] in
  let rounds = List.rev (if valid = [] then all else valid) in
  let lat = List.map (fun (_, l, _) -> Timing.summarize l) rounds in
  let pings =
    if ping then Some (Timing.summarize (Wire.ping_rtts s.conn ping_count)) else None
  in
  {
    qps = median_float (List.map (fun (q, _, _) -> q) rounds);
    p50 = median_int (List.map (fun l -> l.Timing.p50) lat);
    p99 = median_int (List.map (fun l -> l.Timing.p99) lat);
    latency = Timing.summarize (Array.concat (List.map (fun (_, l, _) -> l) rounds));
    lag = Timing.summarize (Array.concat (List.map (fun (_, _, g) -> g) all));
    rounds_run = List.length all;
    rss_kb = Child.peak_rss_kb s.child;
    setup = Timing.summarize (Array.of_list setup);
    extra = (if ping then Wire.stats s.conn else []);
    pings;
    per_round = List.map2 (fun (q, _, _) l -> (q, l)) rounds lat;
  }

(* ------------------------------------------------------------------ *)
(* Runs *)

let prepare spec =
  let inst = Workload.instance spec in
  let packed = Workload.pack inst in
  let oracle = Workload.oracle inst packed.Workload.assignment in
  (inst, packed, oracle)

let e2e ~exe ~path ~spec ~inst ~packed ~oracle ~seed ~seconds =
  let tally = Wire.tally () in
  let verify = Wire.check ~expected:(Workload.expected oracle) tally in
  let probe = (Workload.take (Workload.stream inst ~seed) 1).(0) in
  let w =
    drive ~exe ~path ~spec ~stream:(Workload.stream inst ~seed) ~probe ~verify
      ~launches:setup_launches ~seconds ~ping:false
  in
  let pack = packed.Workload.encode_certify_ns + packed.Workload.serialize_ns in
  Printf.eprintf
    "perfbench %s: median round %.0f q/s closed loop, p50 %.1fus p99 %.1fus open loop \
     at %.0f q/s; pooled p50 %.1fus p99 %.1fus over %d samples (%d beyond p99, \
     lag p99 %.1fus); setup %.3fs; pack %.3fs; peak rss %d KiB\n%!"
    spec.Workload.name w.qps (us w.p50) (us w.p99) spec.Workload.rate
    (us w.latency.Timing.p50) (us w.latency.Timing.p99) w.latency.Timing.count
    w.latency.Timing.beyond_p99 (us w.lag.Timing.p99) (secs w.setup.Timing.p50)
    (secs pack) w.rss_kb;
  let metrics =
    [
      { name = "qps"; value = w.qps; unit = "1/s" };
      { name = "p50_us"; value = us w.p50; unit = "us" };
      { name = "setup_s"; value = secs w.setup.Timing.p50; unit = "s" };
      { name = "peak_rss_mb"; value = float_of_int w.rss_kb /. 1024.0; unit = "MB" };
    ]
  in
  let details =
    let module J = Obs.Jsonout in
    [
      ("latency_samples", J.Int w.latency.Timing.count);
      ("latency_pooled_p50_us", J.Float (us w.latency.Timing.p50));
      ("latency_pooled_p99_us", J.Float (us w.latency.Timing.p99));
      ("latency_beyond_pooled_p99", J.Int w.latency.Timing.beyond_p99);
      ("latency_max_us", J.Float (us w.latency.Timing.max));
      ("lag_p99_us", J.Float (us w.lag.Timing.p99));
      ("offered_qps", J.Float spec.Workload.rate);
      ("rounds_run", J.Int w.rounds_run);
      ( "rounds",
        J.List
          (List.map
             (fun (q, l) ->
               J.Obj
                 [
                   ("qps", J.Float q);
                   ("p50_us", J.Float (us l.Timing.p50));
                   ("p99_us", J.Float (us l.Timing.p99));
                 ])
             w.per_round) );
    ]
  in
  (tally, metrics, details)

let median_of k f = Timing.median (Array.init k (fun _ -> snd (Timing.timed f)))

let traced ~exe ~path ~spec ~inst ~packed ~oracle ~seed ~seconds =
  let tally = Wire.tally () in
  let expected = Workload.expected oracle in
  let verify = Wire.check ~expected tally in
  let probe = (Workload.take (Workload.stream inst ~seed) 1).(0) in
  let w =
    drive ~exe ~path ~spec ~stream:(Workload.stream inst ~seed) ~probe ~verify
      ~launches:1 ~seconds:(0.5 *. seconds) ~ping:true
  in
  let stat k = Option.value ~default:0 (List.assoc_opt k w.extra) in
  (* The store layer, timed on its own: open, then what a first query
     needs decoded (the whole v1 snapshot; one v2 shard). *)
  let budget = resident_mb spec * 1024 * 1024 in
  let source, open_ns, load_ns =
    match spec.Workload.container with
    | Workload.Mono ->
        let bytes = Store.Io.read_file path in
        let open_ns = median_of 5 (fun () -> Store.Io.read_file path) in
        let load_ns = median_of 3 (fun () -> Store.Snapshot.read bytes) in
        (Replay.Mono (Store.Snapshot.read bytes), open_ns, load_ns)
    | Workload.Sharded { shards; _ } ->
        let store = Store.Shard.open_file path in
        let open_ns = median_of 5 (fun () -> Store.Shard.open_file path) in
        let load_ns =
          Timing.median
            (Array.init shards (fun k -> snd (Timing.timed (fun () -> Store.Shard.load store k))))
        in
        let router = Serve.Router.create store in
        (Replay.Sharded { store; router; budget }, open_ns, load_ns)
  in
  let st = Workload.stream inst ~seed in
  let take k = Array.init k (fun _ -> Workload.take st spec.Workload.batch) in
  let warm = take spec.Workload.warm in
  let sample = take (max 2 (replay_queries / spec.Workload.batch)) in
  let o = Replay.run source ~expected ~warm ~sample in
  let tr = o.Replay.state.Replay.tr in
  let per_query = o.Replay.queries in
  let layer_stats, total = Replay.self_times tr ~queries:per_query in
  let med k = Timing.median (Replay.durations tr k) in
  let med_pq k = Timing.median (Replay.durations ~per_query tr k) in
  let sample_queries = Array.fold_left ( + ) 0 per_query in
  let query_us = us o.Replay.query_ns /. float_of_int sample_queries in
  let state = o.Replay.state in
  Array.iter
    (fun l ->
      Printf.eprintf "perfbench %s: self %-13s p50 %9.0fns p99 %9.0fns  %6d spans\n"
        spec.Workload.name l.Replay.layer
        (float_of_int l.Replay.self.Timing.p50)
        (float_of_int l.Replay.self.Timing.p99)
        l.Replay.spans)
    layer_stats;
  Printf.eprintf "perfbench %s: traced replay %d queries, %d mismatches\n%!"
    spec.Workload.name sample_queries o.Replay.mismatches;
  tally.Wire.failed <- tally.Wire.failed + o.Replay.mismatches;
  Replay.write_spans tr
    (Filename.concat out_dir
       (Printf.sprintf "spans-%s-seed%d.tsv" spec.Workload.name seed));
  let f name value unit = { name; value; unit } in
  let count name v = f name (float_of_int v) "count" in
  let median_list l = Timing.median (Array.of_list l) in
  let metrics =
    [
      f "net.protocol.parse_request_ns" (float_of_int (med_pq Replay.Parse)) "ns";
      f "net.protocol.encode_response_ns" (float_of_int (med_pq Replay.Encode)) "ns";
      f "net.protocol.encode_request_ns"
        (float_of_int (Timing.median o.Replay.encode_request_ns)) "ns";
      f "net.protocol.parse_response_ns"
        (float_of_int (Timing.median o.Replay.parse_response_ns)) "ns";
      f "net.bytes_per_query"
        (ratio (stat "net.bytes_in" + stat "net.bytes_out") (stat "net.queries"))
        "B";
      f "net.ping_rtt_us" (us (Option.get w.pings).Timing.p50) "us";
      f "net.overhead_share" (1.0 -. (query_us *. w.qps /. 1e6)) "ratio";
      f "serve.query_us" query_us "us";
      f "serve.batch_us_per_query" (us o.Replay.batch_ns /. float_of_int sample_queries) "us";
      f "serve.cache.hit_rate" (ratio state.Replay.cache_hits state.Replay.cache_finds) "ratio";
      f "serve.cache.find_ns" (float_of_int (med Replay.Cache_find)) "ns";
      f "serve.memo.hit_rate" (ratio state.Replay.memo_hits state.Replay.memo_finds) "ratio";
      f "serve.memo.find_ns" (float_of_int (med Replay.Memo_find)) "ns";
      count "serve.memo.entries" o.Replay.memo_stats.Serve.Memo.s_entries;
      f "serve.memo.bytes" (float_of_int o.Replay.memo_stats.Serve.Memo.s_bytes) "B";
      f "serve.decode.label_us" (us (med Replay.Decode)) "us";
      f "serve.router.shard_of_ns" (float_of_int (med Replay.Route)) "ns";
      f "local.view.make_us" (us (med Replay.View_make)) "us";
      count "local.view.ball_nodes" (median_list tr.Replay.ball_nodes);
      f "eth.canonical.signature_us" (us (med Replay.Signature)) "us";
      f "eth.canonical.key_bytes" (float_of_int (median_list tr.Replay.key_bytes)) "B";
      f "store.open_ms" (ms open_ns) "ms";
      f "store.load_ms" (ms load_ns) "ms";
      count "store.shard.loads" state.Replay.loads;
      count "store.shard.evictions" state.Replay.evictions;
      f "store.shard.resident_peak_bytes" (float_of_int state.Replay.resident_peak) "B";
      f "store.container_bytes" (float_of_int (String.length packed.Workload.bytes)) "B";
      f "store.serialize_s" (secs packed.Workload.serialize_ns) "s";
      f "pack.encode_certify_s" (secs packed.Workload.encode_certify_ns) "s";
      f "loadgen.p99_us" (us w.p99) "us";
      f "loadgen.lag_p99_us" (us w.lag.Timing.p99) "us";
      f "trace.coverage" (Replay.coverage (layer_stats, total)) "ratio";
      f "trace.overhead" (ratio o.Replay.traced_ns o.Replay.untraced_ns -. 1.0) "ratio";
    ]
  in
  let details =
    let module J = Obs.Jsonout in
    [
      ( "self_time_ns_per_query",
        J.Obj
          (Array.to_list
             (Array.map
                (fun l ->
                  ( l.Replay.layer,
                    J.Obj
                      [
                        ("p50", J.Int l.Replay.self.Timing.p50);
                        ("p99", J.Int l.Replay.self.Timing.p99);
                        ("spans", J.Int l.Replay.spans);
                      ] ))
                layer_stats)) );
      ("traced_total_ns_per_query_p50", J.Int total.Timing.p50);
      ("replay_queries", J.Int sample_queries);
      ("replay_mismatches", J.Int o.Replay.mismatches);
      ("radius", J.Int packed.Workload.radius);
    ]
  in
  (tally, metrics, details)

(* ------------------------------------------------------------------ *)
(* Command line *)

let () =
  (* One cache shard and one decode domain in the server and in-process
     alike, whatever the host: results stay comparable across machines. *)
  Unix.putenv "LOCAL_ADVICE_DOMAINS" "1";
  (* The generator's own collections would show up as latency. *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 1 lsl 22; space_overhead = 200 };
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let server = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N query-stream seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--server", Arg.Set_string server, "PATH the advice_store binary");
    ]
  in
  let usage = "main.exe --server PATH --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let spec =
    match Workload.find !workload with
    | Some s -> s
    | None ->
        fail
          (Printf.sprintf "unknown workload %S (one of: %s)" !workload
             (String.concat ", " (List.map (fun s -> s.Workload.name) Workload.all)))
  in
  if !seed < 0 then fail "--seed must be a non-negative integer";
  if !seconds < 1 then fail "--seconds must be a positive integer";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if not (Sys.file_exists !server) then fail "--server must name the advice_store binary";
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let inst, packed, oracle = prepare spec in
  let path =
    Filename.concat out_dir (Printf.sprintf "%s-seed%d.ladv" spec.Workload.name !seed)
  in
  Store.Io.write_file path packed.Workload.bytes;
  let seconds = float_of_int !seconds in
  let run = if !trace = 1 then traced else e2e in
  let tally, metrics, details =
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    run ~exe:!server ~path ~spec ~inst ~packed ~oracle ~seed:!seed ~seconds
  in
  let module J = Obs.Jsonout in
  J.write_file
    (Filename.concat out_dir
       (Printf.sprintf "result-%s-seed%d-trace%d.json" spec.Workload.name !seed !trace))
    (J.Obj
       ([
          ("workload", J.Str spec.Workload.name);
          ("seed", J.Int !seed);
          ("attempted", J.Int tally.Wire.attempted);
          ("failed", J.Int tally.Wire.failed);
          ("host", J.Obj (host_facts ()));
          ( "metrics",
            J.Obj
              (List.map
                 (fun m ->
                   (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit) ]))
                 metrics) );
        ]
       @ details));
  Printf.eprintf "perfbench host: %s\n%!"
    (String.concat " "
       (List.map
          (fun (k, v) ->
            k ^ "=" ^ match v with J.Str s -> s | v -> J.to_string v)
          (host_facts ())));
  print_endline
    (result_line ~correct:(tally.Wire.failed = 0) ~attempted:tally.Wire.attempted
       ~failed:tally.Wire.failed metrics)
