(* Experiment harness: one table per experiment of DESIGN.md (E1..E9),
   plus Bechamel micro-benchmarks of the encoder/decoder pairs.

   The paper is a theory brief announcement with no tables or figures of
   its own; each experiment here measures, on concrete graph families, the
   quantity a theorem bounds, and checks the claim ("paper says / we
   measure").  Run with:

     dune exec bench/main.exe
*)

open Netgraph
open Schemas
open Bench_util

(* ================================================================== *)
(* E1 — C1: any LCL, 1 bit of advice, O(1) locality on bounded growth  *)

let e1_subexp_lcl () =
  section "E1  LCLs with one bit of advice on bounded-growth graphs (C1)";
  Printf.printf "%-18s %-12s %6s %8s %10s %9s %8s\n" "problem" "graph" "n"
    "valid" "bits/node" "ones" "time_ms";
  let cases =
    [
      ("3-coloring", Lcl.Instances.coloring 3, `Cycle 256);
      ("3-coloring", Lcl.Instances.coloring 3, `Cycle 1024);
      ("3-coloring", Lcl.Instances.coloring 3, `Cycle 4096);
      ("mis", Lcl.Instances.mis, `Cycle 256);
      ("mis", Lcl.Instances.mis, `Cycle 1024);
      ("mis", Lcl.Instances.mis, `Cycle 4096);
      ("maximal-matching", Lcl.Instances.maximal_matching, `Cycle 1024);
    ]
  in
  let all_valid = ref true in
  List.iter
    (fun (name, prob, shape) ->
      let g, shape_name =
        match shape with `Cycle n -> (Builders.cycle n, "cycle")
      in
      let (ones, labeling), t =
        time_once (fun () ->
            let ones = Subexp_lcl.encode_onebit prob g in
            (ones, Subexp_lcl.decode_onebit prob g ones))
      in
      let valid = Lcl.Problem.verify prob g labeling in
      all_valid := !all_valid && valid;
      Printf.printf "%-18s %-12s %6d %8b %10d %9d %8.1f\n" name shape_name
        (Graph.n g) valid 1 (Bitset.cardinal ones) (ms t))
    cases;
  record "E1: every LCL run decodes to a valid solution with 1 bit/node"
    !all_valid;
  subsection "one-bit schema on grids (2-D bounded growth)";
  Printf.printf "%-18s %-12s %6s %8s %9s %8s\n" "problem" "graph" "n" "valid"
    "ones" "time_ms";
  let ok = ref true in
  List.iter
    (fun (name, prob, side, spread) ->
      let g = Builders.grid side side in
      let params = { Subexp_lcl.spread; inner_margin = 2 } in
      let (ones, labeling), t =
        time_once (fun () ->
            let ones = Subexp_lcl.encode_onebit ~params prob g in
            (ones, Subexp_lcl.decode_onebit ~params prob g ones))
      in
      let valid = Lcl.Problem.verify prob g labeling in
      ok := !ok && valid;
      Printf.printf "%-18s %-12s %6d %8b %9d %8.1f\n" name "grid" (Graph.n g)
        valid (Bitset.cardinal ones) (ms t))
    [
      ("mis", Lcl.Instances.mis, 32, 30);
      ("5-coloring", Lcl.Instances.coloring 5, 40, 36);
    ];
  record "E1: one-bit schema valid on grids" !ok;
  (* Grids via the variable-length composable schema (see DESIGN.md: the
     1-bit variant's constants need more room than small grids offer). *)
  subsection "variable-length schema on grids";
  Printf.printf "%-18s %-12s %6s %8s %10s %9s\n" "problem" "graph" "n" "valid"
    "max_bits" "holders";
  let ok = ref true in
  List.iter
    (fun (name, prob, side) ->
      let g = Builders.grid side side in
      let params = { Subexp_lcl.spread = 12; inner_margin = 2 } in
      let advice = Subexp_lcl.encode ~params prob g in
      let labeling = Subexp_lcl.decode ~params prob g advice in
      let valid = Lcl.Problem.verify prob g labeling in
      ok := !ok && valid;
      Printf.printf "%-18s %-12s %6d %8b %10d %9d\n" name "grid" (Graph.n g)
        valid
        (Advice.Assignment.max_bits advice)
        (Advice.Assignment.num_holders advice))
    [
      ("5-coloring", Lcl.Instances.coloring 5, 16);
      ("mis", Lcl.Instances.mis, 16);
      ("5-coloring", Lcl.Instances.coloring 5, 24);
    ];
  record "E1: variable-length schema valid on grids" !ok;
  (* The paper's own adaptive clustering (distance coloring + Lemma-4.3
     radii + sequential carving), replayed end to end. *)
  subsection "adaptive Section-4 clustering (Lemma 4.3 radii)";
  Printf.printf "%-18s %-12s %6s %8s %10s %9s\n" "problem" "graph" "n" "valid"
    "max_bits" "holders";
  let ok = ref true in
  List.iter
    (fun (name, prob, g) ->
      let advice = Subexp_adaptive.encode prob g in
      let labeling = Subexp_adaptive.decode prob g advice in
      let valid = Lcl.Problem.verify prob g labeling in
      ok := !ok && valid;
      Printf.printf "%-18s %-12s %6d %8b %10d %9d\n" name "cycle" (Graph.n g)
        valid
        (Advice.Assignment.max_bits advice)
        (Advice.Assignment.num_holders advice))
    [
      ("3-coloring", Lcl.Instances.coloring 3, Builders.cycle 400);
      ("mis", Lcl.Instances.mis, Builders.cycle 800);
    ];
  record "E1: adaptive carving schema valid" !ok

(* ================================================================== *)
(* E2 — arbitrarily sparse advice (Definition 3)                       *)

let e2_sparsity () =
  section "E2  Arbitrarily sparse advice (C1, C3; Definition 3)";
  Printf.printf "paper: the 1s-to-nodes ratio can be made an arbitrarily\n";
  Printf.printf "small constant by spreading the encoding out.\n\n";
  subsection "orientation schema on a 4000-cycle, anchor cover sweep";
  Printf.printf "%8s %10s\n" "cover" "density";
  let g = Builders.cycle 4000 in
  let densities =
    List.map
      (fun cover ->
        let params = { Balanced_orientation.onebit_params with cover } in
        let ones = Balanced_orientation.encode_onebit ~params g in
        let d = float_of_int (Bitset.cardinal ones) /. 4000.0 in
        Printf.printf "%8d %10.4f\n" cover d;
        d)
      [ 96; 200; 400; 800; 1600 ]
  in
  record "E2: orientation advice density is monotone decreasing in cover"
    (List.for_all2 ( >= ) densities (List.tl densities @ [ 0.0 ]));
  subsection "LCL schema (MIS) on a 4000-cycle, cluster spread sweep";
  Printf.printf "%8s %10s\n" "spread" "density";
  let prob = Lcl.Instances.mis in
  let densities =
    List.map
      (fun spread ->
        let params = { Subexp_lcl.spread; inner_margin = 2 } in
        let ones = Subexp_lcl.encode_onebit ~params prob g in
        let d = float_of_int (Bitset.cardinal ones) /. 4000.0 in
        Printf.printf "%8d %10.4f\n" spread d;
        d)
      [ 48; 100; 200; 400 ]
  in
  record "E2: LCL advice density is monotone decreasing in spread"
    (List.for_all2 ( >= ) densities (List.tl densities @ [ 0.0 ]))

(* ================================================================== *)
(* E3 — C3: almost-balanced orientations, locality independent of n    *)

let e3_orientation () =
  section "E3  Almost-balanced orientations with advice (C3)";
  Printf.printf "%-14s %7s %4s %10s %10s %10s %8s\n" "graph" "n" "Δ"
    "imbalance" "bits/node" "anchors" "time_ms";
  let ok = ref true in
  let runs =
    [
      ("cycle", Builders.cycle 500);
      ("cycle", Builders.cycle 2000);
      ("cycle", Builders.cycle 8000);
      ("circulant(1,2)", Builders.circulant 2000 [ 1; 2 ]);
      ("even-random", Builders.random_even_degree (Prng.create 5) 1000 3);
      ("gnp", Builders.gnp (Prng.create 7) 800 0.008);
    ]
  in
  List.iter
    (fun (name, g) ->
      let (enc, o), t =
        time_once (fun () ->
            let enc = Balanced_orientation.encode g in
            ( enc,
              Balanced_orientation.decode g
                enc.Balanced_orientation.assignment ))
      in
      let valid = Orientation.is_almost_balanced o in
      ok := !ok && valid;
      Printf.printf "%-14s %7d %4d %10d %10d %10d %8.1f\n" name (Graph.n g)
        (Graph.max_degree g)
        (Orientation.max_imbalance o)
        (Advice.Assignment.max_bits enc.Balanced_orientation.assignment)
        (Advice.Assignment.num_holders enc.Balanced_orientation.assignment)
        (ms t))
    runs;
  record "E3: all orientations are almost balanced (|in-out| <= 1)" !ok;
  subsection "decoder locality vs n (measured by ball restriction)";
  Printf.printf "%7s %16s\n" "n" "stable at radius";
  let localities =
    List.map
      (fun n ->
        let g = Builders.cycle n in
        let params = Balanced_orientation.default_params in
        let enc = Balanced_orientation.encode ~params g in
        let advice = enc.Balanced_orientation.assignment in
        let decode g ~ids ~advice =
          let o = Balanced_orientation.decode_tolerant ~params g advice in
          Array.init (Graph.n g) (fun v ->
              Array.to_list (Graph.neighbors g v)
              |> List.map (fun u -> (ids.(u), Orientation.points_from o v u)))
        in
        let ids = Localmodel.Ids.identity g in
        let samples = [ 0; n / 3; 2 * n / 3; n - 1 ] in
        let r =
          Localmodel.Locality.measured_radius g ~ids ~advice ~decode
            ~equal:( = ) ~max_radius:24 ~samples
        in
        let r = Option.value ~default:(-1) r in
        Printf.printf "%7d %16d\n" n r;
        r)
      [ 250; 500; 1000; 2000; 4000 ]
  in
  let flat =
    List.for_all (fun r -> r >= 0) localities
    && List.fold_left max 0 localities - List.fold_left min 99 localities <= 2
  in
  record "E3: decoder locality is (near-)constant, independent of n" flat

(* ================================================================== *)
(* E4 — C4: edge-subset compression to ⌈d/2⌉+1 bits per node           *)

let e4_compression () =
  section "E4  Local decompression of edge subsets (C4)";
  Printf.printf "paper: a node of degree d stores ⌈d/2⌉+1 bits; trivial is d.\n\n";
  Printf.printf "%-16s %7s %4s %10s %11s %10s %9s\n" "graph" "n" "Δ" "lossless"
    "max b/node" "bound" "trivial";
  let ok_bits = ref true and ok_round = ref true in
  List.iter
    (fun (name, g, seed) ->
      let rng = Prng.create seed in
      let x = Bitset.create (Graph.m g) in
      Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
      let compressed = Edge_compression.encode g x in
      let lossless = Bitset.equal x (Edge_compression.decode g compressed) in
      let worst =
        Graph.fold_nodes
          (fun v acc -> max acc (String.length compressed.(v)))
          g 0
      in
      let bound = Edge_compression.bits_bound (Graph.max_degree g) in
      ok_round := !ok_round && lossless;
      ok_bits := !ok_bits && worst <= bound;
      Printf.printf "%-16s %7d %4d %10b %11d %10d %9d\n" name (Graph.n g)
        (Graph.max_degree g) lossless worst bound (Graph.max_degree g))
    [
      ("cycle", Builders.cycle 2000, 11);
      ("circulant(1,2)", Builders.circulant 1500 [ 1; 2 ], 12);
      ("circulant(1..3)", Builders.circulant 1500 [ 1; 2; 3 ], 13);
    ];
  record "E4: compression is lossless" !ok_round;
  record "E4: per-node bits within ⌈d/2⌉+1 (beats the trivial d)" !ok_bits

(* ================================================================== *)
(* E5 — C2: the 2^{βn} advice search and order-invariance              *)

let e5_eth () =
  section "E5  Exhaustive advice search and order invariance (C2)";
  Printf.printf
    "paper: advice with β bits/node gives a centralized 2^{βn}·n·s(n)\n\
     solver; order-invariant algorithms make s(n) a table lookup.\n\n";
  subsection "2-coloring odd cycles with 1 advice bit read as the color";
  Printf.printf "%4s %10s %10s %10s\n" "n" "tried" "found" "time_ms";
  let decide (view : Localmodel.View.t) =
    Advice.Bits.decode view.Localmodel.View.advice.(view.Localmodel.View.center)
    + 1
  in
  let prob2 = Lcl.Instances.coloring 2 in
  let times =
    List.map
      (fun n ->
        let g = Builders.cycle n in
        let ids = Localmodel.Ids.identity g in
        let outcome = ref { Ethlink.Bruteforce.result = None; tried = 0 } in
        let t =
          time_median ~repeats:1 (fun () ->
              outcome :=
                Ethlink.Bruteforce.search prob2 g ~ids ~radius:0 ~beta:1
                  ~decide)
        in
        Printf.printf "%4d %10d %10b %10.1f\n" n
          !outcome.Ethlink.Bruteforce.tried
          (!outcome.Ethlink.Bruteforce.result <> None)
          (ms t);
        (n, t))
      [ 7; 9; 11; 13; 15 ]
  in
  let growth_ok =
    match (times, List.rev times) with
    | (_, t_small) :: _, (_, t_big) :: _ -> t_big > 10.0 *. t_small
    | _ -> false
  in
  record "E5: search time grows exponentially in n (2^{βn} behavior)" growth_ok;
  subsection "order-invariant lookup tables (local-minimum algorithm)";
  Printf.printf "%8s %6s %12s\n" "radius" "n" "table size";
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
  let sizes =
    List.map
      (fun radius ->
        let g = Builders.cycle 64 in
        let rng = Prng.create 31 in
        let samples =
          List.concat_map
            (fun _ ->
              let ids = Localmodel.Ids.random_sparse rng g in
              Array.to_list
                (Localmodel.View.map_nodes g ~ids ~radius (fun view ->
                     (view, local_min view))))
            [ 1; 2; 3 ]
        in
        match Ethlink.Canonical.build_table samples with
        | Ethlink.Canonical.Conflict _ -> -1
        | Ethlink.Canonical.Table t ->
            Printf.printf "%8d %6d %12d\n" radius 64 (Hashtbl.length t);
            Hashtbl.length t)
      [ 1; 2 ]
  in
  record "E5: order-invariant algorithms compile to small finite tables"
    (List.for_all (fun s -> s > 0 && s < 200) sizes);
  let rng = Prng.create 5 in
  let g = Builders.cycle 40 in
  let idss =
    [ Localmodel.Ids.identity g; Localmodel.Ids.random_sparse rng g ]
  in
  record "E5: the schema-style decision (local id-minimum) is order-invariant"
    (Ethlink.Canonical.is_order_invariant ~decide:local_min
       ~graphs:[ (g, idss) ] ~radius:1);
  subsection "s(n) reduction: expensive simulation vs table lookup";
  (* A deliberately expensive per-view decision, and the same algorithm
     replayed from its canonical lookup table: the ETH argument's point is
     that the table makes per-node simulation cheap. *)
  let expensive (view : Localmodel.View.t) =
    let acc = ref 0 in
    for i = 1 to 60_000 do
      acc := (!acc + (i * i)) mod 1000003
    done;
    ignore !acc;
    local_min view
  in
  let g = Builders.cycle 300 in
  let ids = Localmodel.Ids.identity g in
  let advice = Array.make 300 "" in
  let t_direct =
    time_median ~repeats:3 (fun () ->
        ignore (Localmodel.View.map_nodes ~advice g ~ids ~radius:1 expensive))
  in
  let samples =
    Array.to_list
      (Localmodel.View.map_nodes ~advice g ~ids ~radius:1 (fun view ->
           (view, expensive view)))
  in
  let table =
    match Ethlink.Canonical.build_table samples with
    | Ethlink.Canonical.Table t -> t
    | Ethlink.Canonical.Conflict _ -> assert false
  in
  let t_table =
    time_median ~repeats:3 (fun () ->
        ignore
          (Ethlink.Canonical.run_with_table table ~default:0 g ~ids ~advice
             ~radius:1))
  in
  Printf.printf "%-28s %10.1f ms\n" "direct simulation" (ms t_direct);
  Printf.printf "%-28s %10.1f ms (table of %d entries)\n" "table lookup"
    (ms t_table) (Hashtbl.length table);
  record "E5: lookup tables make simulation much cheaper"
    (t_table < t_direct /. 3.0)

(* ================================================================== *)
(* E6 — C6: 3-coloring with one bit per node                           *)

let e6_three_coloring () =
  section "E6  3-coloring 3-colorable graphs with one bit per node (C6)";
  Printf.printf "%-18s %6s %8s %8s %10s %12s\n" "graph" "n" "valid" "colors"
    "1s ratio" "group bits";
  let ok = ref true in
  let caterpillar len =
    let path_edges = List.init (len - 1) (fun i -> (i, i + 1)) in
    let pendant_edges = List.init len (fun i -> (i, len + i)) in
    let g = Graph.of_edges ~n:(2 * len) (path_edges @ pendant_edges) in
    let witness =
      Array.init (2 * len) (fun v -> if v >= len then 1 else 2 + (v mod 2))
    in
    (g, witness)
  in
  let cases =
    [
      (let rng = Prng.create 3 in
       let g, w = Builders.planted_colorable rng 150 3 0.04 in
       ("planted p=.04", g, Some w));
      (let rng = Prng.create 4 in
       let g, w = Builders.planted_colorable rng 300 3 0.02 in
       ("planted p=.02", g, Some w));
      (let g, w = caterpillar 400 in
       ("caterpillar-400", g, Some w));
      ("odd-cycle-151", Builders.cycle 151, None);
    ]
  in
  List.iter
    (fun (name, g, witness) ->
      let advice = Three_coloring.encode ?witness g in
      let colors = Three_coloring.decode g advice in
      let valid =
        Coloring.is_proper g colors && Coloring.num_colors colors <= 3
      in
      ok := !ok && valid;
      let phi_ones =
        match witness with
        | Some w ->
            let phi = Coloring.make_greedy g w in
            Array.fold_left (fun acc c -> if c = 1 then acc + 1 else acc) 0 phi
        | None -> -1
      in
      let ones = Advice.Assignment.ones advice in
      Printf.printf "%-18s %6d %8b %8d %10.3f %12s\n" name (Graph.n g) valid
        (Coloring.num_colors colors)
        (float_of_int ones /. float_of_int (Graph.n g))
        (if phi_ones >= 0 then string_of_int (ones - phi_ones) else "n/a"))
    cases;
  record "E6: 1-bit advice 3-colors 3-colorable graphs" !ok

(* ================================================================== *)
(* E7 — C5: Δ-coloring with advice                                     *)

let e7_delta_coloring () =
  section "E7  Δ-coloring Δ-colorable graphs with advice (C5)";
  Printf.printf "%6s %4s %8s %8s %12s %10s\n" "n" "Δ" "valid" "colors"
    "advice bits" "time_ms";
  let ok = ref true in
  List.iter
    (fun (n, delta, seed) ->
      let rng = Prng.create seed in
      let g, _ = Builders.planted_max_degree_colorable rng ~n ~delta in
      let (advice, colors), t =
        time_once (fun () ->
            let advice = Delta_coloring.encode g in
            (advice, Delta_coloring.decode g advice))
      in
      let valid =
        Coloring.is_proper g colors
        && Coloring.num_colors colors <= Graph.max_degree g
      in
      ok := !ok && valid;
      Printf.printf "%6d %4d %8b %8d %12d %10.1f\n" (Graph.n g)
        (Graph.max_degree g) valid
        (Coloring.num_colors colors)
        (Advice.Assignment.total_bits advice)
        (ms t))
    [ (120, 4, 3); (200, 5, 5); (300, 6, 7); (400, 7, 9) ];
  record "E7: advice yields proper Δ-colorings (never Δ+1)" !ok

(* ================================================================== *)
(* E8 — Section 5 extensions: splitting and Δ-edge-coloring            *)

let e8_splitting () =
  section "E8  Splitting and Δ-edge-coloring by recursive splitting (Sec. 5)";
  subsection "splittings (equal red/blue at every node)";
  Printf.printf "%-16s %6s %4s %8s\n" "graph" "n" "Δ" "valid";
  let ok = ref true in
  List.iter
    (fun (name, g) ->
      let advice = Splitting.encode g in
      let colors = Splitting.decode g advice in
      let valid = Splitting.verify g colors in
      ok := !ok && valid;
      Printf.printf "%-16s %6d %4d %8b\n" name (Graph.n g) (Graph.max_degree g)
        valid)
    [
      ("cycle-400", Builders.cycle 400);
      ("torus-10x12", Builders.torus 10 12);
      ("bip-regular-4", Builders.random_bipartite_regular (Prng.create 3) 60 4);
    ];
  record "E8: splittings are exact at every node" !ok;
  subsection "Δ-edge-colorings, Δ = 2^k";
  Printf.printf "%6s %4s %8s %8s %12s\n" "n" "Δ" "valid" "colors" "advice bits";
  let ok = ref true in
  List.iter
    (fun (side, delta, seed) ->
      let g = Builders.random_bipartite_regular (Prng.create seed) side delta in
      let advice = Edge_coloring_pow2.encode g in
      let colors = Edge_coloring_pow2.decode g advice in
      let valid = Edge_coloring_pow2.verify g colors in
      ok := !ok && valid;
      Printf.printf "%6d %4d %8b %8d %12d\n" (Graph.n g) delta valid
        (Array.fold_left max 0 colors)
        (Advice.Assignment.total_bits advice))
    [ (50, 2, 3); (60, 4, 5); (60, 8, 7) ];
  record "E8: recursive splitting uses exactly Δ matchings" !ok

(* ================================================================== *)
(* E9 — baselines: what advice buys                                    *)

let e9_baselines () =
  section "E9  Advice vs no-advice baselines";
  subsection "3-coloring cycles: Cole-Vishkin rounds vs advice locality";
  Printf.printf "%7s %14s %10s %18s\n" "n" "CV rounds" "log* n"
    "advice locality";
  let ok = ref true in
  List.iter
    (fun n ->
      let g = Builders.cycle n in
      let succ = Array.init n (fun v -> (v + 1) mod n) in
      let ids = Localmodel.Ids.random_sparse (Prng.create (n + 3)) g in
      let colors, rounds = Baselines.Cole_vishkin.run g ~succ ~ids in
      ok := !ok && Coloring.is_proper g colors;
      (* The advice decoder inspects at most spread + margin hops — a
         constant; report the schema parameter. *)
      Printf.printf "%7d %14d %10d %18d\n" n rounds
        (Baselines.Cole_vishkin.log_star n)
        Subexp_lcl.default_params.Subexp_lcl.spread)
    [ 100; 1000; 10000; 100000 ];
  record "E9: Cole-Vishkin baseline produces proper colorings" !ok;
  subsection "Linial color reduction (stage-1 engine of C5)";
  Printf.printf "%7s %4s %14s %14s %8s\n" "n" "Δ" "palette before"
    "palette after" "rounds";
  let ok = ref true in
  List.iter
    (fun (n, p, seed) ->
      let rng = Prng.create seed in
      let g = Builders.gnp rng n p in
      let start = Localmodel.Ids.random_sparse rng g in
      let reduced, rounds = Baselines.Linial.reduce g (Array.copy start) in
      ok :=
        !ok && Coloring.is_proper g reduced
        && Coloring.num_colors reduced < Coloring.num_colors start;
      Printf.printf "%7d %4d %14d %14d %8d\n" n (Graph.max_degree g)
        (Coloring.num_colors start)
        (Coloring.num_colors reduced)
        rounds)
    [ (200, 0.015, 3); (400, 0.008, 5) ];
  record "E9: Linial reduction shrinks id-palettes in O(log* C) rounds" !ok;
  subsection "trivial advice costs (the baseline the paper improves)";
  let g = Builders.circulant 1000 [ 1; 2 ] in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if e mod 3 = 0 then Bitset.add x e) g;
  let trivial =
    Advice.Assignment.total_bits (Baselines.Trivial.edge_subset_encode g x)
  in
  let ours = Advice.Assignment.total_bits (Edge_compression.encode g x) in
  Printf.printf "edge subset on 4-regular ring: trivial %d bits, ours %d bits\n"
    trivial ours;
  record "E9: compression beats the trivial d-bits-per-node encoding"
    (ours < trivial)

(* ================================================================== *)
(* E10 — cross-family sweep                                            *)

let e10_matrix () =
  section "E10  Cross-family sweep: schemas on every applicable family";
  Printf.printf "%-18s %-16s %8s %8s %8s\n" "family" "n,m" "C3" "C4" "C1-mis";
  let families =
    [
      ("cycle-300", Builders.cycle 300);
      ("circulant-300", Builders.circulant 300 [ 1; 2 ]);
      ("ladder-150", Builders.ladder 150);
      ("caterpillar-150", Builders.caterpillar 150);
      ("grid-15x15", Builders.grid 15 15);
      ("torus-10x10", Builders.torus 10 10);
      ("gnp-200", Builders.gnp (Prng.create 51) 200 0.02);
      ("geometric-200", Builders.random_geometric (Prng.create 52) 200 0.1);
      ("tree-200", Builders.random_tree (Prng.create 53) 200);
      ("double-cycle-100", Builders.double_cycle 100);
    ]
  in
  let ok = ref true in
  List.iter
    (fun (name, g) ->
      let c3 =
        match Balanced_orientation.encode g with
        | enc ->
            if
              Orientation.is_almost_balanced
                (Balanced_orientation.decode g
                   enc.Balanced_orientation.assignment)
            then "ok"
            else (ok := false; "BAD")
        | exception Balanced_orientation.Encoding_failure _ ->
            ok := false;
            "fail"
      in
      let c4 =
        let x = Bitset.create (Graph.m g) in
        Graph.iter_edges (fun e _ -> if e mod 2 = 0 then Bitset.add x e) g;
        match Edge_compression.encode g x with
        | c ->
            if Bitset.equal x (Edge_compression.decode g c) then "ok"
            else (ok := false; "BAD")
        | exception Advice.Onebit.Conversion_failure _ -> "no-room"
        | exception Balanced_orientation.Encoding_failure _ -> "no-room"
      in
      let c1 =
        let prob = Lcl.Instances.mis in
        let params = { Subexp_lcl.spread = 24; inner_margin = 2 } in
        match Subexp_lcl.encode ~params prob g with
        | a ->
            if Lcl.Problem.verify prob g (Subexp_lcl.decode ~params prob g a)
            then "ok"
            else (ok := false; "BAD")
        | exception Subexp_lcl.Encoding_failure _ ->
            ok := false;
            "fail"
      in
      Printf.printf "%-18s %-16s %8s %8s %8s\n" name
        (Printf.sprintf "%d,%d" (Graph.n g) (Graph.m g))
        c3 c4 c1)
    families;
  Printf.printf
    "('no-room' = the one-bit marker code needs more diameter than the\n\
    \ family offers; a clean refusal, not an error — see DESIGN.md)\n";
  record "E10: no schema produced an invalid answer anywhere in the sweep" !ok

(* ================================================================== *)
(* A — ablations of design choices (see DESIGN.md)                     *)

let a1_group_ablation () =
  section "A1  Ablation: parity groups are what makes 3-coloring local";
  Printf.printf
    "Stripping the group bits from C6 advice still yields a proper\n\
     coloring (canonical per-component 2-coloring), but decoding stops\n\
     being local: the spine's colors then depend on the whole component.\n\n";
  let len = 300 in
  let g = Builders.caterpillar len in
  let witness = Builders.caterpillar_witness len in
  let params = Three_coloring.default_params in
  let advice = Three_coloring.encode ~params ~witness g in
  let phi = Coloring.make_greedy g witness in
  let stripped =
    Array.init (Graph.n g) (fun v -> if phi.(v) = 1 then "1" else "0")
  in
  let ids = Localmodel.Ids.identity g in
  let decode g ~ids:_ ~advice =
    match Three_coloring.decode ~params g advice with
    | colors -> colors
    | exception Three_coloring.Encoding_failure _ -> Array.make (Graph.n g) 0
  in
  let radius = (2 * params.Three_coloring.group_spread) + 9 in
  let samples = [ len / 2; len / 3 ] in
  let with_groups =
    Localmodel.Locality.stable_for_all g ~ids ~advice ~decode ~equal:( = )
      ~radius ~samples
  in
  let without_groups =
    Localmodel.Locality.stable_for_all g ~ids ~advice:stripped ~decode
      ~equal:( = ) ~radius ~samples
  in
  Printf.printf "%-28s %8s (radius %d)\n" "advice" "local?" radius;
  Printf.printf "%-28s %8b\n" "with parity groups" with_groups;
  Printf.printf "%-28s %8b\n" "groups stripped" without_groups;
  record "A1: groups present => local; stripped => global"
    (with_groups && not without_groups)

let a2_compression_ladder () =
  section "A2  Ablation: the bits-per-node ladder on 3-regular graphs";
  Printf.printf
    "Open question 4 of the paper: trivial costs 3 bits, Contribution 4's\n\
     local scheme ⌈3/2⌉+1 = 3, the sketched degeneracy construction 2 —\n\
     but its decoder is global; the information floor is 1.5.\n\n";
  let g = Builders.double_cycle 100 in
  let rng = Prng.create 17 in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let trivial = Baselines.Trivial.edge_subset_encode g x in
  let degen = Degenerate_compression.encode g x in
  let max_bits a =
    Array.fold_left (fun acc s -> max acc (String.length s)) 0 a
  in
  Printf.printf "%-28s %12s %10s %8s\n" "encoding" "max b/node" "lossless"
    "local?";
  Printf.printf "%-28s %12d %10b %8s\n" "trivial" (max_bits trivial)
    (Bitset.equal x (Baselines.Trivial.edge_subset_decode g trivial))
    "yes";
  Printf.printf "%-28s %12d %10s %8s\n" "C4 (orientation advice)"
    (Edge_compression.bits_bound 3) "-" "yes";
  Printf.printf "%-28s %12d %10b %8s\n" "degeneracy (open q. 4)"
    (max_bits degen)
    (Bitset.equal x (Degenerate_compression.decode g degen))
    "no";
  record "A2: degeneracy construction reaches 2 bits/node losslessly"
    (max_bits degen <= 2
    && Bitset.equal x (Degenerate_compression.decode g degen))

let a3_relay_stride () =
  section "A3  Ablation: relay-marker stride in the Δ-coloring shift paths";
  Printf.printf
    "Larger stride = fewer, longer markers: sparser holders at the same\n\
     total information.\n\n";
  Printf.printf "%8s %10s %10s %8s\n" "stride" "bits" "holders" "valid";
  (* Seed 6 reliably leaves several ψ-(Δ+1) nodes, so shift paths exist. *)
  let rng = Prng.create 6 in
  let g, _ = Builders.planted_max_degree_colorable rng ~n:200 ~delta:4 in
  let results =
    List.map
      (fun stride ->
        let params = { Delta_coloring.default_params with Delta_coloring.stride } in
        let advice = Delta_coloring.encode ~params g in
        let colors = Delta_coloring.decode ~params g advice in
        let valid =
          Coloring.is_proper g colors
          && Coloring.num_colors colors <= Graph.max_degree g
        in
        let _, path_part = Advice.Composable.split advice in
        Printf.printf "%8d %10d %10d %8b\n" stride
          (Advice.Assignment.total_bits path_part)
          (Advice.Assignment.num_holders path_part)
          valid;
        valid)
      [ 1; 3; 5; 10 ]
  in
  record "A3: all strides decode to valid Δ-colorings"
    (List.for_all (fun v -> v) results)

let a4_distributed_rounds () =
  section "A4  Round-counted message-passing decoders";
  Printf.printf
    "The same advice decoded by genuine synchronous message passing; the\n\
     round counts realize the paper's T(Δ) bounds.\n\n";
  Printf.printf "%-24s %7s %8s %14s\n" "decoder" "n" "rounds" "n-independent?";
  let ok = ref true in
  let rounds_2col n =
    let g = Builders.cycle n in
    let params = { Two_coloring.spread = 16 } in
    let advice = Two_coloring.encode ~params g in
    let colors, rounds = Distributed.two_coloring g advice in
    ok := !ok && Coloring.is_proper g colors;
    rounds
  in
  let r1 = rounds_2col 400 and r2 = rounds_2col 4000 in
  Printf.printf "%-24s %7d %8d\n" "2-coloring beacons" 400 r1;
  Printf.printf "%-24s %7d %8d %14b\n" "2-coloring beacons" 4000 r2
    (abs (r1 - r2) <= 2);
  let rounds_orient n =
    let g = Builders.cycle n in
    let params = Distributed.orientation_params in
    let enc = Balanced_orientation.encode ~params g in
    let o, rounds = Distributed.orientation g enc.Balanced_orientation.assignment in
    ok := !ok && Orientation.is_balanced o;
    rounds
  in
  let r3 = rounds_orient 400 and r4 = rounds_orient 4000 in
  Printf.printf "%-24s %7d %8d\n" "orientation anchors" 400 r3;
  Printf.printf "%-24s %7d %8d %14b\n" "orientation anchors" 4000 r4
    (abs (r3 - r4) <= 2);
  record "A4: message-passing decoders finish in n-independent rounds"
    (!ok && abs (r1 - r2) <= 2 && abs (r3 - r4) <= 2)

(* ================================================================== *)
(* Bechamel micro-benchmarks                                           *)

let bechamel_benchmarks () =
  section "Micro-benchmarks (Bechamel, monotonic clock, ns/run)";
  let open Bechamel in
  let open Toolkit in
  let cycle2000 = Builders.cycle 2000 in
  let mis = Lcl.Instances.mis in
  let circ = Builders.circulant 1000 [ 1; 2 ] in
  let subset =
    let x = Bitset.create (Graph.m circ) in
    Graph.iter_edges (fun e _ -> if e mod 2 = 0 then Bitset.add x e) circ;
    x
  in
  let planted =
    fst (Builders.planted_max_degree_colorable (Prng.create 3) ~n:150 ~delta:5)
  in
  let planted3 = Builders.planted_colorable (Prng.create 4) 150 3 0.04 in
  let orientation_advice = Balanced_orientation.encode cycle2000 in
  let lcl_ones = Subexp_lcl.encode_onebit mis cycle2000 in
  let tests =
    [
      Test.make ~name:"e3-orientation-encode (cycle 2000)"
        (Staged.stage (fun () -> ignore (Balanced_orientation.encode cycle2000)));
      Test.make ~name:"e3-orientation-decode (cycle 2000)"
        (Staged.stage (fun () ->
             ignore
               (Balanced_orientation.decode cycle2000
                  orientation_advice.Balanced_orientation.assignment)));
      Test.make ~name:"e1-lcl-onebit-decode (mis, cycle 2000)"
        (Staged.stage (fun () ->
             ignore (Subexp_lcl.decode_onebit mis cycle2000 lcl_ones)));
      Test.make ~name:"e4-compression-roundtrip (circulant 1000)"
        (Staged.stage (fun () ->
             let c = Edge_compression.encode circ subset in
             ignore (Edge_compression.decode circ c)));
      Test.make ~name:"e7-delta-coloring-roundtrip (n=150, Δ=5)"
        (Staged.stage (fun () ->
             let a = Delta_coloring.encode planted in
             ignore (Delta_coloring.decode planted a)));
      Test.make ~name:"e6-three-coloring-roundtrip (n=150)"
        (Staged.stage (fun () ->
             let g, w = planted3 in
             let a = Three_coloring.encode ~witness:w g in
             ignore (Three_coloring.decode g a)));
    ]
  in
  let run_test test =
    let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.25) ~kde:None () in
    let instances = Instance.[ monotonic_clock ] in
    let raw = Benchmark.all cfg instances test in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols Instance.monotonic_clock raw in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> Printf.printf "%-46s %14.0f ns/run\n" name est
        | _ -> Printf.printf "%-46s %14s\n" name "n/a")
      results
  in
  List.iter run_test tests

(* ================================================================== *)

let run_experiments () =
  print_endline "Local Advice and Local Decompression — experiment harness";
  e1_subexp_lcl ();
  e2_sparsity ();
  e3_orientation ();
  e4_compression ();
  e5_eth ();
  e6_three_coloring ();
  e7_delta_coloring ();
  e8_splitting ();
  e9_baselines ();
  e10_matrix ();
  a1_group_ablation ();
  a2_compression_ladder ();
  a3_relay_stride ();
  a4_distributed_rounds ();
  bechamel_benchmarks ();
  summary ()

let rec arg_value key = function
  | k :: v :: _ when k = key -> Some v
  | _ :: rest -> arg_value key rest
  | [] -> None

let () =
  let argv = Array.to_list Sys.argv in
  (* One fresh-process timing of the JSON run's cold_open block,
     launched by that block itself. *)
  match argv with
  | [ _; "--cold-step"; step; path ] -> Bench_net.cold_step_child ~step path
  | _ when List.mem "--json" argv ->
    let smoke = List.mem "--smoke" argv in
    let out =
      Option.value ~default:"BENCH_local.json" (arg_value "--out" argv)
    in
    (* --metrics [FILE]: record obs instrumentation during the bench (the
       report gains an "obs" block); FILE, when given, also receives the
       standalone Obs.Sink snapshot. *)
    let metrics = List.mem "--metrics" argv in
    let metrics_out =
      match arg_value "--metrics" argv with
      | Some v when String.length v > 0 && v.[0] <> '-' -> Some v
      | _ -> None
    in
    Bench_local.run ~smoke ~out ~metrics ?metrics_out ()
  | _ -> run_experiments ()
