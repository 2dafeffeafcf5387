(* Snapshot-store throughput: pack (encode + certify + serialize), load,
   and serve rates for the binary advice store, recorded as the "store"
   block of BENCH_local.json.

   Three figures per size: single-query rates cold (every query decodes
   its ball) vs. warm (every query is a label-column hit, so the run
   measures the engine's fixed per-query cost), and batch rates with the
   fan-out pinned to one domain vs. spread over several (a router that
   cuts the file's one shard into one slot per domain).  The "pool" sub-block compares
   sequential serving against the pooled router batch at requested
   domain counts 1/2/4, each fitted to the hardware and reported with
   both counts.  Acceptance: a warm column
   must beat cold decoding, and the pooled batch path must not be slower
   than sequential serving (batch_par_not_slower). *)

open Netgraph
module J = Obs.Jsonout

type row = {
  n : int;
  radius : int;
  pack_seconds : float;
  snapshot_bytes : int;
  advice_bits : int;
  bits_budget : int;  (* paper bound: sum over v of ceil(d(v)/2)+1 *)
  load_seconds : float;
  queries : int;
  cold_qps : float;
  warm_qps : float;
  batch_seq_qps : float;
  batch_par_qps : float;
  batch_requested : int;  (* domains the harness asked for *)
  batch_domains : int;  (* domains the machine actually ran *)
}

let rate count t = if t <= 0.0 then infinity else float_of_int count /. t

(* A reproducible mixed workload over distinct nodes, so a second pass is
   pure label-column hits: labels, memberships of the node's first incident
   edge, and raw advice reads. *)
let workload g rng count =
  let n = Graph.n g in
  let nodes = Array.init n (fun v -> v) in
  for i = n - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = nodes.(i) in
    nodes.(i) <- nodes.(j);
    nodes.(j) <- t
  done;
  Array.init (min count n) (fun i ->
      let v = nodes.(i) in
      match i mod 3 with
      | 0 -> Serve.Engine.Output_label v
      | 1 -> Serve.Engine.Edge_member (v, (Graph.incident_edges g v).(0))
      | _ -> Serve.Engine.Advice_bits v)

(* A cache-less router over a version-1 file: its one shard is cut into
   one slot per domain and its batches run on that many domains, so seq
   (1 slot) and par (D slots) do the same ball work. *)
let slot_router ~domains bytes =
  Serve.Router.create ~cache_capacity:0 ~domains (Store.Shard.open_bytes bytes)

let bench_row ~domains n =
  let g = Builders.cycle n in
  let rng = Prng.create (n + 17) in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let (snapshot, cert), pack_t =
    Bench_util.time_once (fun () ->
        Serve.Pack.edge_compression ~sample:64 g x)
  in
  let bytes = Store.Snapshot.write snapshot in
  let _, load_t =
    Bench_util.time_once (fun () -> ignore (Store.Snapshot.read bytes))
  in
  let loaded = Store.Snapshot.read bytes in
  let queries = workload g rng 1_000 in
  let k = Array.length queries in
  (* Cold: an empty label column. *)
  let engine = Serve.Engine.create loaded in
  let single () = Array.iter (fun q -> ignore (Serve.Engine.query engine q)) queries in
  let (), cold_t = Bench_util.time_once single in
  (* Warm: same workload again; every ball is now resident. *)
  let (), warm_t = Bench_util.time_once single in
  (* Batch fan-out with caching off, so seq vs. par measures ball work.
     The requested domain count is fitted to the hardware first: timing
     oversubscribed domains on a small host would report spawn overhead
     and GC coordination as if it were parallel serving. *)
  let effective = Localmodel.Pool.effective_domains ~requested:domains () in
  let batch domains =
    let r = slot_router ~domains bytes in
    Bench_util.time_once (fun () ->
        ignore (Serve.Router.batch r queries))
  in
  let _, seq_t = batch 1 in
  let _, par_t = batch effective in
  let budget =
    Graph.fold_nodes
      (fun v acc -> acc + Schemas.Edge_compression.bits_bound (Graph.degree g v))
      g 0
  in
  {
    n;
    radius = cert.Serve.Pack.radius;
    pack_seconds = pack_t;
    snapshot_bytes = String.length bytes;
    advice_bits = Store.Snapshot.advice_payload_bits snapshot ~name:"c4";
    bits_budget = budget;
    load_seconds = load_t;
    queries = k;
    cold_qps = rate k cold_t;
    warm_qps = rate k warm_t;
    batch_seq_qps = rate k seq_t;
    batch_par_qps = rate k par_t;
    batch_requested = domains;
    batch_domains = effective;
  }

let json_of_row r =
  J.Obj
    [
      ("family", J.Str "cycle");
      ("n", J.Int r.n);
      ("serve_radius", J.Int r.radius);
      ("pack_seconds", J.Float r.pack_seconds);
      ("snapshot_bytes", J.Int r.snapshot_bytes);
      ("advice_bits", J.Int r.advice_bits);
      ("advice_bits_budget", J.Int r.bits_budget);
      ("load_seconds", J.Float r.load_seconds);
      ("queries", J.Int r.queries);
      ("cold_queries_per_sec", J.Float r.cold_qps);
      ("warm_queries_per_sec", J.Float r.warm_qps);
      ("warm_over_cold", J.Float (r.warm_qps /. r.cold_qps));
      ("batch_seq_queries_per_sec", J.Float r.batch_seq_qps);
      ("batch_par_queries_per_sec", J.Float r.batch_par_qps);
      ("batch_par_requested_domains", J.Int r.batch_requested);
      ("batch_par_domains", J.Int r.batch_domains);
      ("batch_par_speedup", J.Float (r.batch_par_qps /. r.batch_seq_qps));
    ]

(* Overhead of the Store.Io choke point with faults DISARMED, versus a
   hand-rolled writer doing the identical temp + flush + fsync + rename
   dance with no fault hooks.  The baseline replicates the durability
   work on purpose: fsync dominates both sides, so the measured delta
   isolates what the fault-injection check itself costs — which must be
   ≈0 up to filesystem noise. *)

let plain_atomic_write path data =
  let temp = path ^ ".tmp" in
  let oc = open_out_bin temp in
  output_string oc data;
  flush oc;
  (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
  close_out oc;
  Sys.rename temp path;
  (* Store.Io also fsyncs the parent directory to persist the rename;
     replicate it or the comparison charges that to the fault check. *)
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let plain_read path =
  let ic = open_in_bin path in
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec loop () =
    let k = input ic chunk 0 (Bytes.length chunk) in
    if k > 0 then (
      Buffer.add_subbytes buf chunk 0 k;
      loop ())
  in
  loop ();
  close_in ic;
  Buffer.contents buf

let bench_io ~smoke =
  let bytes = if smoke then 65_536 else 262_144 in
  let reps = if smoke then 5 else 15 in
  let data = String.init bytes (fun i -> Char.chr (i * 131 land 0xFF)) in
  let p_plain = "bench_io_plain.bin" and p_io = "bench_io_store.bin" in
  (* Interleaved min-of-reps: both writers hit the same filesystem state
     in alternation, so a background hiccup cannot bias one side. *)
  let write_plain = ref infinity and write_io = ref infinity in
  for _ = 1 to reps do
    let _, a = Bench_util.time_once (fun () -> plain_atomic_write p_plain data) in
    let _, b = Bench_util.time_once (fun () -> Store.Io.write_file p_io data) in
    if a < !write_plain then write_plain := a;
    if b < !write_io then write_io := b
  done;
  (* Reads hit the page cache and finish in microseconds, so they need
     far more repetitions than the fsync-bound writes for a stable min. *)
  let read_reps = reps * 40 in
  let read_plain = ref infinity and read_io = ref infinity in
  for _ = 1 to read_reps do
    let _, a =
      Bench_util.time_once (fun () ->
          ignore (Sys.opaque_identity (plain_read p_plain)))
    in
    let _, b =
      Bench_util.time_once (fun () ->
          ignore (Sys.opaque_identity (Store.Io.read_file p_io)))
    in
    if a < !read_plain then read_plain := a;
    if b < !read_io then read_io := b
  done;
  let read_plain = !read_plain and read_io = !read_io in
  (* The per-call cost of the disarmed fault check itself. *)
  let calls = 10_000_000 in
  let (), check_t =
    Bench_util.time_once (fun () ->
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (Store.Io.Faults.enabled ()))
        done)
  in
  let check_ns = check_t /. float_of_int calls *. 1e9 in
  (try Sys.remove p_plain with Sys_error _ -> ());
  (try Sys.remove p_io with Sys_error _ -> ());
  let over a b = if b <= 0.0 then 0.0 else (a -. b) /. b in
  let write_over = over !write_io !write_plain in
  let read_over = over read_io read_plain in
  (* ≈0 up to fs noise: small relative slack, or a sub-2ms absolute
     delta when the base is too fast for a stable ratio. *)
  let ok =
    (write_over <= 0.25 || !write_io -. !write_plain <= 0.002)
    && (read_over <= 0.25 || read_io -. read_plain <= 0.002)
    && check_ns <= 50.0
  in
  Printf.printf
    "store  io overhead (faults off): write %+5.1f%%  read %+5.1f%%  \
     enabled() %4.1f ns  [%s]\n\
     %!"
    (write_over *. 100.0) (read_over *. 100.0) check_ns
    (if ok then "ok" else "FAIL");
  ( J.Obj
      [
        ("payload_bytes", J.Int bytes);
        ("write_plain_seconds", J.Float !write_plain);
        ("write_io_seconds", J.Float !write_io);
        ("write_relative_overhead", J.Float write_over);
        ("read_plain_seconds", J.Float read_plain);
        ("read_io_seconds", J.Float read_io);
        ("read_relative_overhead", J.Float read_over);
        ("faults_enabled_check_ns", J.Float check_ns);
      ],
    ok )

(* ------------------------------------------------------------------ *)
(* Interleaved min-of-reps: each rep runs every configuration once, in
   turn, so drift (GC, frequency scaling, a neighbour's load) hits all
   of them alike, and each keeps its fastest run.  The order reverses
   every other rep, so no configuration always runs first, after the
   previous rep's garbage.  A gate that compares two configurations
   reads these minima; its rep count is the one that kept the gate's
   spread across whole bench runs under its bound, and is recorded in
   the JSON next to the rows. *)
let interleaved_min ~reps runs =
  let k = Array.length runs in
  let best = Array.make k infinity in
  for rep = 1 to reps do
    for j = 0 to k - 1 do
      let i = if rep mod 2 = 0 then k - 1 - j else j in
      let (), t = Bench_util.time_once runs.(i) in
      best.(i) <- Float.min best.(i) t
    done
  done;
  best

(* Pool comparison: sequential serving vs the pooled router batch, at
   requested domain counts 1 / 2 / 4 — each fitted to the hardware
   before timing and reported with both counts, so a 1-core host shows
   three honest effective-1 rows instead of a fake speedup.  Caching is
   off and the two configurations are timed interleaved (min of
   [pool_reps]), so the comparison isolates slot fan-out cost over
   identical ball work. *)

let pool_reps = 25

type pool_row = {
  p_n : int;
  p_queries : int;
  p_requested : int;
  p_effective : int;
  seq_qps : float;
  lockless_qps : float;
}

let bench_pool_row ~bytes ~queries ~requested =
  let k = Array.length queries in
  let effective = Localmodel.Pool.effective_domains ~requested () in
  let seq_router = slot_router ~domains:1 bytes in
  let pool_router = slot_router ~domains:effective bytes in
  let run_seq () = ignore (Serve.Router.batch seq_router queries) in
  let run_lockless () = ignore (Serve.Router.batch pool_router queries) in
  let best = interleaved_min ~reps:pool_reps [| run_seq; run_lockless |] in
  {
    p_n = Serve.Router.n seq_router;
    p_queries = k;
    p_requested = requested;
    p_effective = effective;
    seq_qps = rate k best.(0);
    lockless_qps = rate k best.(1);
  }

let json_of_pool_row r =
  J.Obj
    [
      ("family", J.Str "cycle");
      ("n", J.Int r.p_n);
      ("queries", J.Int r.p_queries);
      ("requested_domains", J.Int r.p_requested);
      ("effective_domains", J.Int r.p_effective);
      ("seq_queries_per_sec", J.Float r.seq_qps);
      ("lockless_pool_queries_per_sec", J.Float r.lockless_qps);
      ("lockless_speedup", J.Float (r.lockless_qps /. r.seq_qps));
    ]

(* The acceptance gate behind BENCH_local.json's batch_par_not_slower:
   with real parallelism available the pooled batch must win outright;
   squeezed onto one effective domain it must stay within 10% of
   sequential serving (the wave planner, and a one-domain pool run that
   spawns nothing, are near-free). *)
let pool_row_acceptable r =
  if r.p_effective >= 2 then r.lockless_qps /. r.seq_qps >= 1.0
  else r.lockless_qps /. r.seq_qps >= 0.9

let bench_pool ~smoke =
  let n = if smoke then 2_000 else 20_000 in
  let g = Builders.cycle n in
  let rng = Prng.create (n + 29) in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let snapshot, _cert = Serve.Pack.edge_compression ~sample:64 g x in
  let bytes = Store.Snapshot.write snapshot in
  let queries = workload g rng 1_000 in
  let rows =
    List.map
      (fun requested ->
        let r = bench_pool_row ~bytes ~queries ~requested in
        Printf.printf
          "store  pool  n=%-7d req=%d eff=%d  seq %8.0f q/s  lockless %8.0f \
           (%4.2fx)  [%s]\n\
           %!"
          r.p_n r.p_requested r.p_effective r.seq_qps r.lockless_qps
          (r.lockless_qps /. r.seq_qps)
          (if pool_row_acceptable r then "ok" else "FAIL");
        r)
      [ 1; 2; 4 ]
  in
  (* Deliberate oversubscription: explicit ~domains:2 makes the pool
     spawn a second domain even on one core, so every tracked bench run
     exercises genuine cross-domain serving and checks it answer-for-
     answer — a correctness probe, not a throughput claim. *)
  let crossed_ok =
    let crossed = Serve.Router.batch (slot_router ~domains:2 bytes) queries in
    let reference = Serve.Router.batch (slot_router ~domains:1 bytes) queries in
    Marshal.to_string crossed [] = Marshal.to_string reference []
  in
  let not_slower = List.for_all pool_row_acceptable rows in
  ( J.Obj
      [
        ("reps", J.Int pool_reps);
        ("results", J.List (List.map json_of_pool_row rows));
        ("oversubscribed_2domain_matches_seq", J.Bool crossed_ok);
      ],
    not_slower && crossed_ok )

(* ------------------------------------------------------------------ *)
(* Sharded container (version 2): pack scaling mono vs. sharded at
   matched certification work, cold-first-answer through the lazy
   router (prefix + manifest + ONE shard) vs. a full monolithic load,
   and resident-byte churn under a two-frame budget while a round-robin
   sweep forces the LRU to evict on almost every query.  Acceptances:
   shard_pack_not_slower (parallel per-shard packing must not lose to
   the monolith — 10% slack when the host folds to one effective
   domain, where the fan-out is pure overhead) and
   lazy_load_bounded_resident (the sweep's resident peak stays within
   the budget, the budget is genuinely smaller than the container, and
   the lazily served answer is byte-identical to the monolith's). *)

type shard_row = {
  h_n : int;
  h_shards : int;
  h_radius : int;
  h_requested : int;
  h_effective : int;
  mono_pack_seconds : float;
  mono_bytes : int;
  shard_pack_seconds : float;
  shard_bytes : int;
  widest_frame : int;
  budget : int;
  cold_first_seconds : float;
  full_first_seconds : float;
  first_identical : bool;
  sweep_queries : int;
  sweep_loads : int;
  sweep_evictions : int;
  resident_peak : int;
}

let bench_shard_row ~domains ~shards n =
  let g = Builders.cycle n in
  let rng = Prng.create (n + 43) in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let effective = Localmodel.Pool.effective_domains ~requested:domains () in
  (* Both sides certify through the one Pack.edge_compression with the
     same mapper and sample budget; the comparison isolates serialization
     — one monolithic body vs. S framed shard bodies fanned across the
     pool.  Interleaved min-of-reps, like
     bench_io: single-shot pack timings on a shared host swing by far
     more than the margin under test. *)
  let reps = if n >= 1_000_000 then 2 else 3 in
  let mono = ref "" and mono_best = ref infinity in
  let sharded = ref None and shard_best = ref infinity in
  for _ = 1 to reps do
    let mb, mt =
      Bench_util.time_once (fun () ->
          let s, _ =
            Serve.Pack.edge_compression ~sample:64 ~domains:effective g x
          in
          Store.Snapshot.write s)
    in
    if mt < !mono_best then begin
      mono_best := mt;
      mono := mb
    end;
    let sc, st =
      Bench_util.time_once (fun () ->
          let s, cert =
            Serve.Pack.edge_compression ~sample:64 ~domains:effective g x
          in
          ( Store.Shard.build ~shards
              ~halo:(max cert.Serve.Pack.radius 1)
              ~domains:effective
              s,
            cert ))
    in
    if st < !shard_best then begin
      shard_best := st;
      sharded := Some sc
    end
  done;
  let mono_bytes = !mono and mono_t = !mono_best in
  let (container, cert), shard_t = (Option.get !sharded, !shard_best) in
  let path = Printf.sprintf "bench_shard_%d.ladv" n in
  Store.Io.write_file path container;
  let widest =
    let man = Store.Shard.manifest (Store.Shard.open_file path) in
    Array.fold_left
      (fun acc i -> max acc i.Store.Shard.i_bytes)
      0 man.Store.Shard.m_shards
  in
  let budget = 2 * widest in
  let q0 = Serve.Engine.Output_label 0 in
  (* Cold first answer: open the container (file prefix + manifest
     only), route, load exactly one shard, decode one ball. *)
  let cold_ans, cold_t =
    Bench_util.time_once (fun () ->
        let r =
          Serve.Router.create ~resident_budget:budget
            (Store.Shard.open_file path)
        in
        Serve.Router.query r q0)
  in
  (* The version-1 route to the same first byte: decode everything,
     then answer. *)
  let full_ans, full_t =
    Bench_util.time_once (fun () ->
        let e = Serve.Engine.create (Store.Snapshot.read mono_bytes) in
        Serve.Engine.query e q0)
  in
  let first_identical =
    Marshal.to_string cold_ans [] = Marshal.to_string full_ans []
  in
  (* Round-robin across shards: consecutive queries always hit different
     shards, so a two-frame budget evicts on nearly every load — the
     worst realistic churn, and the peak must still respect the
     budget. *)
  let router =
    Serve.Router.create ~resident_budget:budget (Store.Shard.open_file path)
  in
  let sweep = 4 * shards in
  let span = max 1 (n / shards) in
  let peak = ref 0 in
  for i = 0 to sweep - 1 do
    let v = ((i mod shards) * span) + (i / shards * 131 mod span) in
    ignore (Serve.Router.query router (Serve.Engine.Output_label (v mod n)));
    peak := max !peak (Serve.Router.resident_bytes router)
  done;
  let loads = Serve.Router.loads router
  and evictions = Serve.Router.evictions router in
  (try Sys.remove path with Sys_error _ -> ());
  {
    h_n = n;
    h_shards = shards;
    h_radius = cert.Serve.Pack.radius;
    h_requested = domains;
    h_effective = effective;
    mono_pack_seconds = mono_t;
    mono_bytes = String.length mono_bytes;
    shard_pack_seconds = shard_t;
    shard_bytes = String.length container;
    widest_frame = widest;
    budget;
    cold_first_seconds = cold_t;
    full_first_seconds = full_t;
    first_identical;
    sweep_queries = sweep;
    sweep_loads = loads;
    sweep_evictions = evictions;
    resident_peak = !peak;
  }

let json_of_shard_row r =
  J.Obj
    [
      ("family", J.Str "cycle");
      ("n", J.Int r.h_n);
      ("shards", J.Int r.h_shards);
      ("serve_radius", J.Int r.h_radius);
      ("requested_domains", J.Int r.h_requested);
      ("effective_domains", J.Int r.h_effective);
      ("mono_pack_seconds", J.Float r.mono_pack_seconds);
      ("mono_bytes", J.Int r.mono_bytes);
      ("shard_pack_seconds", J.Float r.shard_pack_seconds);
      ("shard_bytes", J.Int r.shard_bytes);
      ( "shard_pack_speedup",
        J.Float (r.mono_pack_seconds /. r.shard_pack_seconds) );
      ("widest_frame_bytes", J.Int r.widest_frame);
      ("resident_budget_bytes", J.Int r.budget);
      ("cold_first_answer_seconds", J.Float r.cold_first_seconds);
      ("full_load_first_answer_seconds", J.Float r.full_first_seconds);
      ( "cold_over_full_speedup",
        J.Float (r.full_first_seconds /. r.cold_first_seconds) );
      ("first_answer_identical", J.Bool r.first_identical);
      ("sweep_queries", J.Int r.sweep_queries);
      ("sweep_shard_loads", J.Int r.sweep_loads);
      ("sweep_evictions", J.Int r.sweep_evictions);
      ("resident_peak_bytes", J.Int r.resident_peak);
    ]

let shard_row_pack_ok r =
  let slack = if r.h_effective >= 2 then 1.0 else 1.1 in
  r.shard_pack_seconds <= r.mono_pack_seconds *. slack

let shard_row_resident_ok r =
  r.resident_peak <= r.budget
  && r.budget < r.shard_bytes
  && r.first_identical

let bench_shard ~smoke ~domains =
  let sizes =
    if smoke then [ 10_000 ] else [ 100_000; 400_000; 1_000_000 ]
  in
  let shards = 8 in
  let rows =
    List.map
      (fun n ->
        let r = bench_shard_row ~domains ~shards n in
        Printf.printf
          "store  shard n=%-7d S=%d  pack mono %6.2fs  sharded %6.2fs \
           (%4.2fx)  first answer cold %6.1f ms  full %7.1f ms  peak \
           %8d B / budget %8d B  [%s]\n\
           %!"
          r.h_n r.h_shards r.mono_pack_seconds r.shard_pack_seconds
          (r.mono_pack_seconds /. r.shard_pack_seconds)
          (Bench_util.ms r.cold_first_seconds)
          (Bench_util.ms r.full_first_seconds)
          r.resident_peak r.budget
          (if shard_row_pack_ok r && shard_row_resident_ok r then "ok"
           else "FAIL");
        r)
      sizes
  in
  let pack_ok = List.for_all shard_row_pack_ok rows in
  let lazy_ok = List.for_all shard_row_resident_ok rows in
  (J.Obj [ ("results", J.List (List.map json_of_shard_row rows)) ], pack_ok, lazy_ok)

(* ------------------------------------------------------------------ *)
(* Ball-class table: structural hit rate, and the cost of a file that
   ships none.

   Two structural families — the periodic-subset cycle (trusted,
   packed, certified radius) and the uniform-advice grid (salvaged,
   radius 2, its table built by Pack.class_table, as pack builds one) —
   have a tiny class population: almost every ball is one of the
   classes the table ships, so even a cold sweep over all nodes hits
   ≥ 90% (memo_hit_rate_structural; the hit rate is hits / (hits +
   misses) from the [serve.memo.*] counters, which count one of the two
   per query).  The adversarial family gives every node distinct
   advice bits, so no class recurs and the pack ships no table: an
   engine given a memo serves without one, and must stay within noise
   of the plain engine (memo_not_slower).  Plain and memoized are timed
   interleaved, min of [memo_reps]; each timed sweep builds its engine
   afresh (table load included), since one engine kept across reps
   kept its own memory placement too, and read up to 0.76× another
   built identically. *)

let memo_reps = 25

type memo_row = {
  c_family : string;
  c_n : int;
  c_radius : int;
  c_queries : int;
  c_classes : int;  (* shipped classes; 0 without a table *)
  c_covered : int;  (* nodes whose ball is a shipped class *)
  c_entries : int;
  c_table_bytes : int;
  c_hit_rate : float;  (* cold sweep: hits / (hits + misses) *)
  c_plain_qps : float;
  c_memo_qps : float;
  c_memo_us : float;
      (* µs per memoized query of a fresh engine's sweep: on the
         structural rows nearly every query is a table hit, so this is
         the hit path end to end — table load, BFS, key, probe — in
         process *)
}

(* A counter's total in the current obs snapshot. *)
let counter name =
  List.fold_left
    (fun acc (e : Obs.Metrics.entry) ->
      match e.Obs.Metrics.value with
      | Obs.Metrics.Counter_v { total; _ } when String.equal e.Obs.Metrics.name name ->
          total
      | _ -> acc)
    0 (Obs.Metrics.snapshot ())

(* [make ?memo ()] builds a fresh engine over the family's snapshot,
   whose metadata is [meta]; the label column is off, so every query
   reaches the table and the comparison isolates it.  The memo is sized
   to the shipped table, as `advice_store serve --memo` sizes it. *)
let bench_memo_family ~name ~n ~radius ~meta
    ~(make : ?memo:Serve.Memo.t -> unit -> Serve.Engine.t) =
  let queries = Array.init n (fun v -> Serve.Engine.Output_label v) in
  let classes, covered =
    match List.assoc_opt Serve.Memo.table_key meta with
    | Some table -> Serve.Memo.read_table table
    | None -> (0, 0)
  in
  let sweep ?memo () =
    let e = make ?memo () in
    Array.iter (fun q -> ignore (Serve.Engine.query e q)) queries
  in
  let fresh_memo () = Serve.Memo.create ~capacity:(max 1 classes) in
  (* Cold sweep, counted: each query is one table hit or one miss. *)
  let memo = fresh_memo () in
  let was_enabled = Obs.Metrics.enabled () in
  Obs.Metrics.set_enabled true;
  let h0 = counter "serve.memo.hits" and m0 = counter "serve.memo.misses" in
  sweep ~memo ();
  let hits = counter "serve.memo.hits" - h0 and misses = counter "serve.memo.misses" - m0 in
  Obs.Metrics.set_enabled was_enabled;
  let s = Serve.Memo.stats memo in
  let best =
    interleaved_min ~reps:memo_reps [| sweep ?memo:None; (fun () -> sweep ~memo:(fresh_memo ()) ()) |]
  in
  {
    c_family = name;
    c_n = n;
    c_radius = radius;
    c_queries = n;
    c_classes = classes;
    c_covered = covered;
    c_entries = s.Serve.Memo.s_entries;
    c_table_bytes = s.Serve.Memo.s_bytes;
    c_hit_rate = float_of_int hits /. float_of_int (max 1 (hits + misses));
    c_plain_qps = rate n best.(0);
    c_memo_qps = rate n best.(1);
    c_memo_us = 1e6 *. best.(1) /. float_of_int n;
  }

let json_of_memo_row r =
  J.Obj
    [
      ("family", J.Str r.c_family);
      ("n", J.Int r.c_n);
      ("serve_radius", J.Int r.c_radius);
      ("queries", J.Int r.c_queries);
      ("table_classes", J.Int r.c_classes);
      ("covered_nodes", J.Int r.c_covered);
      ("entries", J.Int r.c_entries);
      ("table_bytes", J.Int r.c_table_bytes);
      ("cold_hit_rate", J.Float r.c_hit_rate);
      ("plain_queries_per_sec", J.Float r.c_plain_qps);
      ("memo_queries_per_sec", J.Float r.c_memo_qps);
      ("memo_us_per_query", J.Float r.c_memo_us);
      ("memo_speedup", J.Float (r.c_memo_qps /. r.c_plain_qps));
    ]

let bench_memo ~smoke =
  (* A packed cycle and its certified radius, read back from its file. *)
  let packed_cycle ~name n pick =
    let g = Builders.cycle n in
    let x = Bitset.create (Graph.m g) in
    Graph.iter_edges (fun e _ -> if pick e then Bitset.add x e) g;
    let snapshot, cert = Serve.Pack.edge_compression ~sample:64 g x in
    let loaded = Store.Snapshot.read (Store.Snapshot.write snapshot) in
    bench_memo_family ~name ~n ~radius:cert.Serve.Pack.radius ~meta:loaded.Store.Snapshot.meta
      ~make:(fun ?memo () -> Serve.Engine.create ~cache_capacity:0 ?memo loaded)
  in
  (* Periodic-subset cycle: the pack certifies a real radius, and the
     period makes almost every ball one of a handful of classes. *)
  let structural_cycle =
    packed_cycle ~name:"cycle-periodic" (if smoke then 4_000 else 64_000) (fun e -> e mod 4 < 2)
  in
  (* Uniform-advice grid: ball classes are the grid position classes
     (corner / edge / interior at radius 2) — a few dozen for any n. *)
  let structural_grid =
    let side = if smoke then 64 else 253 in
    let g = Builders.grid side side in
    let advice = Array.make (Graph.n g) "01" in
    let meta = [ Serve.Pack.class_table g ~advice ~radius:2 ] in
    bench_memo_family ~name:"grid-uniform" ~n:(Graph.n g) ~radius:2 ~meta
      ~make:(fun ?memo () ->
        Serve.Engine.create ~cache_capacity:0 ?memo ~radius:2
          { Store.Snapshot.graph = g; advice = [ ("c4", advice) ]; meta })
  in
  (* Adversarial: a random subset scatters distinct advice around every
     node, so every ball is its own class and the pack ships no table:
     the memoized engine is the plain one. *)
  let adversarial =
    let n = if smoke then 2_000 else 20_000 in
    let rng = Prng.create (n + 67) in
    packed_cycle ~name:"cycle-adversarial" n (fun _ -> Prng.bool rng)
  in
  let rows = [ structural_cycle; structural_grid; adversarial ] in
  List.iter
    (fun r ->
      Printf.printf
        "store  memo  %-17s n=%-6d r=%-3d classes %5d  hit %6.2f%%  plain \
         %8.0f q/s  memo %8.0f q/s %6.2f us/q (%4.2fx)\n\
         %!"
        r.c_family r.c_n r.c_radius r.c_classes (100.0 *. r.c_hit_rate)
        r.c_plain_qps r.c_memo_qps r.c_memo_us
        (r.c_memo_qps /. r.c_plain_qps))
    rows;
  let hit_ok =
    List.for_all
      (fun r -> r.c_hit_rate >= 0.90)
      [ structural_cycle; structural_grid ]
  in
  (* Without a table the memo is dropped at create, so this bound only
     says that dropping it costs nothing. *)
  let not_slower =
    adversarial.c_memo_qps >= 0.85 *. adversarial.c_plain_qps
  in
  ( J.Obj
      [
        ("reps", J.Int memo_reps);
        ("results", J.List (List.map json_of_memo_row rows));
      ],
    hit_ok,
    not_slower )

(* ------------------------------------------------------------------ *)
(* store.decode: one column miss, layer by layer.  Each step runs over
   the same distinct nodes of its instance, and every step of every
   instance is timed in one [interleaved_min] run of [decode_reps]
   reps, so a burst of host load lands on all of them alike instead of
   on one instance's reps.  Many short reps over a few hundred balls
   kept five whole runs of a 2-vCPU host within 7-12% on every BFS row
   (56-93% with three long reps); what is left moves whole runs
   together.  Minor words per ball come from one more pass.  The
   instances are packed on a small sample and served at a fixed
   radius: the cost of a ball depends on its size, not on who
   certified it. *)

type decode_step = { s_name : string; s_us : float; s_words : float }

type decode_row = {
  x_name : string;
  x_n : int;
  x_radius : int;
  x_balls : int;
  x_ball_nodes : float;  (* mean *)
  x_steps : decode_step list;
}

let decode_reps = 200

(* An instance's row, less its timings, and its steps as thunks over
   its nodes. *)
let decode_instance ~name ~radius ~balls g x =
  let snapshot, _ = Serve.Pack.edge_compression ~sample:64 g x in
  let n = Graph.n g in
  let balls = min balls n in
  let nodes = Array.init balls (fun i -> i * (n / balls)) in
  let advice = snd (List.hd snapshot.Store.Snapshot.advice) in
  let ws = Workspace.domain_local () in
  let plain = Serve.Engine.create ~cache_capacity:0 ~radius snapshot in
  let bfs v = ignore (Traversal.bfs_limited_into ws g v radius) in
  (* An engine over a table filled by hand (a random subset ships
     none): one whose only key no ball has (a ball has at least one
     node, and a key starts with the count) misses every ball, and one
     that holds every ball's class hits them all. *)
  let memoized classes =
    let memo = Serve.Memo.create ~capacity:(List.length classes) in
    List.iter (fun (key, label) -> Serve.Memo.insert memo key label) classes;
    Serve.Engine.create ~cache_capacity:0 ~memo ~radius snapshot
  in
  let missing = memoized [ ("\000", "") ] in
  let holding =
    memoized
      (Array.to_list
         (Array.map
            (fun v ->
              bfs v;
              ( Ethlink.Canonical.ball_key ws g ~advice,
                Serve.Center_decode.label ws g ~advice ~center:0 ))
            nodes))
  in
  let steps =
    [
      ("bfs", bfs);
      ( "bfs+ball_key",
        fun v ->
          bfs v;
          ignore (Ethlink.Canonical.ball_key ws g ~advice) );
      ( "bfs+decode",
        fun v ->
          bfs v;
          ignore (Serve.Center_decode.label ws g ~advice ~center:0) );
      ("miss_memo_off", fun v -> ignore (Serve.Engine.output_label plain v));
      (* BFS, key, probe, decode *)
      ("miss_memo_on", fun v -> ignore (Serve.Engine.output_label missing v));
      (* BFS, key, probe *)
      ("memo_hit", fun v -> ignore (Serve.Engine.output_label holding v));
    ]
  in
  (* one untimed pass grows every scratch to this instance's balls *)
  List.iter (fun (_, f) -> Array.iter f nodes) steps;
  let total = ref 0 in
  Array.iter (fun v -> total := !total + Traversal.bfs_limited_into ws g v radius) nodes;
  ( {
      x_name = name;
      x_n = n;
      x_radius = radius;
      x_balls = balls;
      x_ball_nodes = float_of_int !total /. float_of_int balls;
      x_steps = [];
    },
    List.map (fun (s_name, f) -> (s_name, fun () -> Array.iter f nodes)) steps )

let random_subset g seed =
  let rng = Prng.create seed in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  x

let bench_decode ~smoke =
  let balls = if smoke then 100 else 400 in
  let instance name g ~seed ~radius =
    decode_instance ~name ~radius ~balls g (random_subset g seed)
  in
  let instances =
    if smoke then [ instance "cycle-4000" (Builders.cycle 4_000) ~seed:1 ~radius:41 ]
    else
      [
        (* perfbench hot-skewed's instance and serve radius *)
        instance "hot-skewed" (Builders.cycle 65_536) ~seed:1 ~radius:41;
        (* `advice_store pack --graph cycle --n 100000 --seed 100043`,
           served at its exhaustively certified radius *)
        instance "cycle-100k" (Builders.cycle 100_000) ~seed:100_043 ~radius:41;
        (* `advice_store pack --graph circulant --n 4096`, likewise *)
        instance "circulant-4096" (Builders.circulant 4_096 [ 1; 2 ]) ~seed:1 ~radius:29;
      ]
  in
  let best =
    interleaved_min ~reps:decode_reps
      (Array.of_list (List.concat_map (fun (_, steps) -> List.map snd steps) instances))
  in
  let next = ref 0 in
  let rows =
    List.map
      (fun (row, steps) ->
        let per_ball x = x /. float_of_int row.x_balls in
        let step (s_name, run) =
          let w0 = Gc.minor_words () in
          run ();
          let s_words = per_ball (Gc.minor_words () -. w0) in
          let s_us = per_ball (1e6 *. best.(!next)) in
          incr next;
          { s_name; s_us; s_words }
        in
        { row with x_steps = List.map step steps })
      instances
  in
  List.iter
    (fun r ->
      Printf.printf "store  decode %-15s n=%-6d r=%-3d ball %5.1f nodes:" r.x_name r.x_n
        r.x_radius r.x_ball_nodes;
      List.iter (fun st -> Printf.printf "  %s %.2f us %.0f w" st.s_name st.s_us st.s_words) r.x_steps;
      print_newline ())
    rows;
  J.Obj
    [
      (* every step runs on the calling domain *)
      ("requested_domains", J.Int 1);
      ("effective_domains", J.Int (Localmodel.Pool.effective_domains ~requested:1 ()));
      ("reps", J.Int decode_reps);
      ( "results",
        J.List
          (List.map
             (fun r ->
               J.Obj
                 [
                   ("instance", J.Str r.x_name);
                   ("n", J.Int r.x_n);
                   ("serve_radius", J.Int r.x_radius);
                   ("balls", J.Int r.x_balls);
                   ("mean_ball_nodes", J.Float r.x_ball_nodes);
                   ( "per_ball",
                     J.Obj
                       (List.map
                          (fun st ->
                            ( st.s_name,
                              J.Obj
                                [ ("us", J.Float st.s_us); ("minor_words", J.Float st.s_words) ] ))
                          r.x_steps) );
                 ])
             rows) );
    ]

let block ~smoke ~domains =
  let sizes = if smoke then [ 2_000 ] else [ 20_000; 100_000 ] in
  let rows =
    List.map
      (fun n ->
        let r = bench_row ~domains n in
        Printf.printf
          "store  cycle n=%-7d r=%-3d pack %6.1f ms  %7d B  cold %8.0f q/s  \
           warm %9.0f q/s (%5.1fx)  par/seq %4.2fx\n\
           %!"
          r.n r.radius
          (Bench_util.ms r.pack_seconds)
          r.snapshot_bytes r.cold_qps r.warm_qps (r.warm_qps /. r.cold_qps)
          (r.batch_par_qps /. r.batch_seq_qps);
        r)
      sizes
  in
  let warm_beats_cold =
    List.for_all (fun r -> r.warm_qps > r.cold_qps) rows
  in
  let io_json, io_ok = bench_io ~smoke in
  let pool_json, pool_ok = bench_pool ~smoke in
  let shard_json, shard_pack_ok, shard_lazy_ok = bench_shard ~smoke ~domains in
  let memo_json, memo_hit_ok, memo_not_slower = bench_memo ~smoke in
  let decode_json = bench_decode ~smoke in
  J.Obj
    [
      ("results", J.List (List.map json_of_row rows));
      ("io", io_json);
      ("pool", pool_json);
      ("shard", shard_json);
      ("memo", memo_json);
      ("decode", decode_json);
      ( "acceptance",
        J.Obj
          [
            ("warm_cache_beats_cold", J.Bool warm_beats_cold);
            ("faults_disabled_overhead_ok", J.Bool io_ok);
            ("batch_par_not_slower", J.Bool pool_ok);
            ("shard_pack_not_slower", J.Bool shard_pack_ok);
            ("lazy_load_bounded_resident", J.Bool shard_lazy_ok);
            ("memo_hit_rate_structural", J.Bool memo_hit_ok);
            ("memo_not_slower", J.Bool memo_not_slower);
          ] );
    ]
