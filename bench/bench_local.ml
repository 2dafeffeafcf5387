(* LOCAL-simulation throughput bench: ball-extraction rates for the
   workspace-based View hot path, sequential vs parallel.  Writes a JSON
   report (BENCH_local.json) so the perf trajectory is tracked across
   PRs:

     dune exec bench/main.exe -- --json [--smoke] [--out FILE]

   Rates are balls per second of [View.map_nodes]-style extraction with a
   trivial per-view function, i.e. they isolate the simulator overhead the
   paper's decoders all pay.

   With [--metrics [FILE]] the run also records the obs instrumentation
   (lib/obs): the report gains an "obs" block — merged metric snapshot,
   derived figures (ball-size distribution, advice bits per node,
   per-domain utilization) and the measured overhead of enabled
   instrumentation — and FILE, when given, receives the standalone
   {!Obs.Sink} snapshot. *)

open Netgraph
module J = Obs.Jsonout

(* ------------------------------------------------------------------ *)

type row = {
  family : string;
  n : int;
  radius : int;
  seq_rate : float;  (* balls/sec, View.map_nodes: the median rep *)
  par_rate : float;  (* balls/sec, View.map_nodes_par: the median rep *)
  seq_spread : float;  (* (upper - lower quartile) / median, of the reps' rates *)
  par_spread : float;
  reps : int;
  par_requested : int;  (* domain count the harness asked for *)
  par_domains : int;  (* domain count the fan-out actually used *)
}

let time = Bench_util.time_once

let bench_domains () =
  match Sys.getenv_opt "LOCAL_ADVICE_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some d when d >= 1 -> d
      | _ -> 4)
  | None -> max 4 (Domain.recommended_domain_count ())

let build family n =
  match family with
  | "cycle" -> Builders.cycle n
  | "grid" ->
      let side = int_of_float (sqrt (float_of_int n)) in
      Builders.grid side side
  | "random-regular-4" -> Builders.random_regular (Prng.create 42) n 4
  | _ -> invalid_arg "Bench_local.build"

(* Both configurations are timed in interleaved reps, as store.decode
   is: each rep runs both, the order flipping every other rep, so a
   burst of host load lands on both alike, and the row keeps each
   one's median rep and the spread of its reps.  One untimed pass of
   each grows the scratch first.  Short rows take more reps, so every
   row spends about a second of timed work (5 to 31 reps). *)
let bench_row ~family ~g ~radius =
  let n = Graph.n g in
  let ids = Localmodel.Ids.identity g in
  let sink = fun (view : Localmodel.View.t) -> Graph.n view.Localmodel.View.graph in
  let domains = bench_domains () in
  (* The fan-out clamps requests to the hardware; report the count it
     actually used, or a 1-core host would claim 4-domain figures. *)
  let effective = Localmodel.Pool.effective_domains ~requested:domains () in
  let seq () = Localmodel.View.map_nodes g ~ids ~radius sink in
  let par () = Localmodel.View.map_nodes_par ~domains g ~ids ~radius sink in
  let seq_sizes, seq_t = time seq in
  let par_sizes, par_t = time par in
  assert (seq_sizes = par_sizes);
  let reps = max 5 (min 31 (int_of_float (1.0 /. Float.max 1e-6 (seq_t +. par_t)))) in
  let times = [| Array.make reps 0.0; Array.make reps 0.0 |] in
  let runs = [| (fun () -> ignore (seq ())); (fun () -> ignore (par ())) |] in
  for rep = 0 to reps - 1 do
    for j = 0 to 1 do
      let i = if rep mod 2 = 0 then j else 1 - j in
      let (), t = time runs.(i) in
      times.(i).(rep) <- t
    done
  done;
  let rate t = if t <= 0.0 then infinity else float_of_int n /. t in
  (* The reps' median rate and their spread: the distance between the
     quartiles over the median. *)
  let summary ts =
    let rates = Array.map rate ts in
    Array.sort Float.compare rates;
    let median = rates.(reps / 2) in
    (median, (rates.(3 * reps / 4) -. rates.(reps / 4)) /. median)
  in
  let seq_rate, seq_spread = summary times.(0) and par_rate, par_spread = summary times.(1) in
  {
    family;
    n;
    radius;
    seq_rate;
    par_rate;
    seq_spread;
    par_spread;
    reps;
    par_requested = domains;
    par_domains = effective;
  }

let json_of_row r =
  J.Obj
    [
      ("family", J.Str r.family);
      ("n", J.Int r.n);
      ("radius", J.Int r.radius);
      ("seq_balls_per_sec", J.Float r.seq_rate);
      ("par_balls_per_sec", J.Float r.par_rate);
      ("seq_spread", J.Float r.seq_spread);
      ("par_spread", J.Float r.par_spread);
      ("reps", J.Int r.reps);
      ("par_requested_domains", J.Int r.par_requested);
      ("par_domains", J.Int r.par_domains);
      ("par_speedup", J.Float (r.par_rate /. r.seq_rate));
    ]

(* The static-analysis gate is part of every tracked build, so its cost
   rides along in the report's env block.  Root discovery covers both a
   repo-root invocation (dune exec) and the bench-smoke rule, whose cwd is
   the build directory where the .cmt files live beside the sources. *)
let lint_stats () =
  match List.find_opt Sys.file_exists [ "lib"; "../lib" ] with
  | None -> None
  | Some root ->
      let cmt_roots =
        List.filter Sys.file_exists [ root; "_build/default/lib" ]
      in
      (* Cold then warm against a fresh cache file, so the report tracks
         both the full-scan cost and what the incremental cache saves. *)
      let cache = Filename.temp_file "advicelint_bench" ".cache" in
      let cfg =
        {
          Advicelint.Engine.default_config with
          roots = [ root ];
          cmt_roots;
          cache_file = Some cache;
        }
      in
      Sys.remove cache;
      let t0 = Unix.gettimeofday () in
      let result = Advicelint.Engine.run cfg in
      let cold = Unix.gettimeofday () -. t0 in
      let t1 = Unix.gettimeofday () in
      let warm_result = Advicelint.Engine.run cfg in
      let warm = Unix.gettimeofday () -. t1 in
      (try Sys.remove cache with Sys_error _ -> ());
      Some
        ( cold,
          warm,
          warm_result.Advicelint.Engine.files_reused,
          result.Advicelint.Engine.files_scanned,
          List.length result.Advicelint.Engine.diagnostics )

(* ------------------------------------------------------------------ *)
(* Observability (--metrics).  The obs stack is compiled in either way;
   this section measures what turning it on costs and summarizes what it
   recorded. *)

let install_wall_clock () =
  Obs.Trace.set_clock (fun () ->
      Int64.of_float (Unix.gettimeofday () *. 1e9))

(* Overhead of enabled instrumentation on the instrumented hot path
   itself: the same [map_nodes] sweep timed with recording off and on.
   Radius 3 on a 4-regular graph keeps balls large enough (~50 nodes)
   that the measurement reflects steady-state extraction, not noise. *)
let measure_overhead () =
  let g = build "random-regular-4" 2048 in
  let ids = Localmodel.Ids.identity g in
  let sink (view : Localmodel.View.t) = Graph.n view.Localmodel.View.graph in
  let sweep () = ignore (Localmodel.View.map_nodes g ~ids ~radius:3 sink) in
  sweep ();
  (* Interleave off/on sweeps so drift (GC, frequency scaling) hits both
     sides equally, and compare the minima — the jitter-free estimate of
     each configuration's cost. *)
  let off = ref infinity and on = ref infinity in
  for _ = 1 to 15 do
    Obs.Sink.disable ();
    let _, a = Bench_util.time_once sweep in
    Obs.Sink.enable ();
    let _, b = Bench_util.time_once sweep in
    off := Float.min !off a;
    on := Float.min !on b
  done;
  let t_off = !off and t_on = !on in
  Obs.Sink.reset ();
  if t_off <= 0.0 then 0.0 else 100.0 *. (t_on -. t_off) /. t_off

(* Run each advice-schema family once at small size so the schema-level
   counters (C1 one-bit, C5 shift paths, C6 parity groups, composable
   pairing) carry real values in the snapshot. *)
let populate_advice_metrics () =
  let open Schemas in
  let g = Builders.cycle 512 in
  let prob = Lcl.Instances.mis in
  let ones = Subexp_lcl.encode_onebit prob g in
  ignore (Subexp_lcl.decode_onebit prob g ones);
  (* Seed 6 reliably leaves ψ-(Δ+1) nodes, so recoloring waves and shift
     paths actually run (cf. ablation A3). *)
  let rng = Prng.create 6 in
  let gd, _ = Builders.planted_max_degree_colorable rng ~n:200 ~delta:4 in
  ignore (Delta_coloring.decode gd (Delta_coloring.encode gd));
  (* Caterpillars force type-23 components, hence parity groups (cf.
     ablation A1); planted graphs at this size usually have none. *)
  let gc = Builders.caterpillar 200 in
  let w = Builders.caterpillar_witness 200 in
  ignore (Three_coloring.decode gc (Three_coloring.encode ~witness:w gc));
  (* C2: an order-invariant rule compiled to a lookup table and replayed,
     so the eth.table_* metrics carry values. *)
  let g40 = Builders.cycle 40 in
  let ids40 = Localmodel.Ids.identity g40 in
  let advice40 = Array.make 40 "" in
  let local_min (view : Localmodel.View.t) =
    let c = view.Localmodel.View.center in
    let mine = view.Localmodel.View.ids.(c) in
    if
      Array.for_all
        (fun u -> view.Localmodel.View.ids.(u) > mine)
        (Graph.neighbors view.Localmodel.View.graph c)
    then 2
    else 1
  in
  let samples =
    Array.to_list
      (Localmodel.View.map_nodes ~advice:advice40 g40 ~ids:ids40 ~radius:1
         (fun view -> (view, local_min view)))
  in
  (match Ethlink.Canonical.build_table samples with
  | Ethlink.Canonical.Table t ->
      ignore
        (Ethlink.Canonical.run_with_table t ~default:0 g40 ~ids:ids40
           ~advice:advice40 ~radius:1)
  | Ethlink.Canonical.Conflict _ -> ());
  (* A round-counted message-passing decoder, for the rounds.* counters. *)
  let gr = Builders.cycle 400 in
  ignore
    (Distributed.two_coloring gr
       (Two_coloring.encode ~params:{ Two_coloring.spread = 16 } gr))

let obs_derived () =
  let entries = Obs.Metrics.snapshot () in
  let find name =
    List.find_opt (fun (e : Obs.Metrics.entry) -> e.name = name) entries
  in
  let counter name =
    match find name with
    | Some { value = Obs.Metrics.Counter_v { total; _ }; _ } -> Some total
    | _ -> None
  in
  let opt f = function Some x -> f x | None -> J.Null in
  let ball_size =
    match find "view.ball_size" with
    | Some { value = Obs.Metrics.Histogram_v h; _ } when h.count > 0 ->
        J.Obj
          [
            ("mean", J.Float (float_of_int h.sum /. float_of_int h.count));
            ("max", J.Int h.vmax);
            ("count", J.Int h.count);
          ]
    | _ -> J.Null
  in
  (* Shares of all extracted balls per domain shard, descending: how
     evenly map_nodes_par spread its work. *)
  let utilization =
    match find "view.balls_extracted" with
    | Some { value = Obs.Metrics.Counter_v { total; per_domain }; _ }
      when total > 0 ->
        J.List
          (List.map
             (fun c -> J.Float (float_of_int c /. float_of_int total))
             per_domain)
    | _ -> J.Null
  in
  (* The one-bit schemas label every node with exactly one bit; the
     interesting density is how many of those bits are 1s. *)
  let nodes = counter "advice.onebit.nodes_labeled" in
  let advice_bits_per_node =
    match nodes with Some n when n > 0 -> J.Float 1.0 | _ -> J.Null
  in
  let ones_density =
    match (counter "advice.onebit.ones_written", nodes) with
    | Some ones, Some n when n > 0 ->
        J.Float (float_of_int ones /. float_of_int n)
    | _ -> J.Null
  in
  J.Obj
    [
      ("balls_extracted", opt (fun c -> J.Int c) (counter "view.balls_extracted"));
      ("ball_size", ball_size);
      ("per_domain_utilization", utilization);
      ("advice_bits_per_node", advice_bits_per_node);
      ("advice_ones_density", ones_density);
    ]

let overhead_budget_percent = 3.0

let obs_block ~overhead_percent =
  populate_advice_metrics ();
  J.Obj
    [
      ("enabled", J.Bool true);
      ("overhead_percent", J.Float overhead_percent);
      ("overhead_budget_percent", J.Float overhead_budget_percent);
      ("overhead_within_budget", J.Bool (overhead_percent < overhead_budget_percent));
      ("derived", obs_derived ());
      ("snapshot", Obs.Sink.json ~per_domain:true ());
    ]

(* ------------------------------------------------------------------ *)

let run ~smoke ~out ?(metrics = false) ?metrics_out () =
  let families = [ "cycle"; "grid"; "random-regular-4" ] in
  let sizes = if smoke then [ 512 ] else [ 4096; 65536; 262144 ] in
  let radii = [ 1; 2; 3 ] in
  (* Overhead is measured before the tracked rows; it leaves recording on
     (and counters zeroed) so the rows below populate the snapshot. *)
  let overhead_percent =
    if metrics then begin
      install_wall_clock ();
      let o = measure_overhead () in
      Printf.printf "obs: enabled-instrumentation overhead %+.2f%% (budget < %.0f%%)\n%!"
        o overhead_budget_percent;
      Some o
    end
    else None
  in
  let rows =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun n ->
            let g = build family n in
            List.map
              (fun radius ->
                let r = bench_row ~family ~g ~radius in
                Printf.printf
                  "%-18s n=%-7d r=%d  seq %10.0f balls/s (spread %3.0f%%)  par %10.0f \
                   (spread %3.0f%%)  (par/seq %4.2fx, median of %d reps)\n%!"
                  r.family r.n r.radius r.seq_rate (100.0 *. r.seq_spread) r.par_rate
                  (100.0 *. r.par_spread) (r.par_rate /. r.seq_rate) r.reps;
                r)
              radii)
          sizes)
      families
  in
  let best_par =
    List.fold_left (fun acc r -> max acc (r.par_rate /. r.seq_rate)) 0.0 rows
  in
  let env =
    match lint_stats () with
    | Some (cold, warm, reused, files, diags) ->
        J.Obj
          [
            ("lint_seconds", J.Float cold);
            ("lint_warm_seconds", J.Float warm);
            ("lint_files_reused", J.Int reused);
            ("lint_files", J.Int files);
            ("lint_diagnostics", J.Int diags);
          ]
    | None -> J.Obj [ ("lint_seconds", J.Null) ]
  in
  let acceptance_json =
    J.Obj [ ("best_par_speedup", J.Float best_par) ]
  in
  let obs =
    match overhead_percent with
    | None -> []
    | Some o ->
        let block = obs_block ~overhead_percent:o in
        (match metrics_out with
        | None -> ()
        | Some path ->
            Obs.Sink.write_json ~events:32 path;
            Printf.printf "wrote %s\n" path);
        Obs.Sink.disable ();
        [ ("obs", block) ]
  in
  J.write_file out
    (J.Obj
       ([
          ("bench", J.Str "local_view_extraction");
          ("smoke", J.Bool smoke);
          ("requested_domains", J.Int (bench_domains ()));
          ( "effective_domains",
            J.Int
              (Localmodel.Pool.effective_domains ~requested:(bench_domains ())
                 ()) );
          ("host_cores", J.Int (Domain.recommended_domain_count ()));
          ("env", env);
          ("results", J.List (List.map json_of_row rows));
          ("acceptance", acceptance_json);
          ( "store",
            (* The TCP serving figures ride inside the store block, as
               store.net — same snapshot pipeline, one more hop. *)
            match Bench_store.block ~smoke ~domains:(bench_domains ()) with
            | J.Obj fields ->
                J.Obj
                  (fields
                  @ [ ("net", Bench_net.block ~smoke);
                      ("cold_open", Bench_net.cold_open ~smoke) ])
            | other -> other );
        ]
       @ obs));
  Printf.printf "wrote %s\n" out
