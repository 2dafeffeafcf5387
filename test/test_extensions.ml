(* Tests for the extension modules: locally checkable proofs (Section 1.2),
   degeneracy-based compression (open question 4), the order-invariance
   lift (C2), and the extra generators. *)

open Netgraph
open Schemas

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Builders *)

let test_caterpillar () =
  let g = Builders.caterpillar 50 in
  check_int "nodes" 100 (Graph.n g);
  check_int "edges" 99 (Graph.m g);
  let w = Builders.caterpillar_witness 50 in
  check "witness proper" true (Coloring.is_proper g w);
  check "3 colors" true (Coloring.num_colors w <= 3)

let test_ladder () =
  let g = Builders.ladder 30 in
  check_int "nodes" 60 (Graph.n g);
  check_int "edges" (29 + 29 + 30) (Graph.m g);
  check "bipartite" true (Traversal.is_bipartite g);
  check_int "max degree" 3 (Graph.max_degree g)

let test_double_cycle () =
  let g = Builders.double_cycle 40 in
  Graph.iter_nodes (fun v -> check_int "3-regular" 3 (Graph.degree g v)) g;
  check "connected" true (Graph.is_connected g)

let test_random_geometric () =
  let rng = Prng.create 19 in
  let g = Builders.random_geometric rng 250 0.09 in
  check "some edges" true (Graph.m g > 0);
  (* Polynomial growth: the growth exponent around a central node is
     modest, and Lemma 3's radius exists. *)
  let hub =
    Graph.fold_nodes
      (fun v best -> if Graph.degree g v > Graph.degree g best then v else best)
      g 0
  in
  if Traversal.growth g hub 8 > Traversal.growth g hub 2 then begin
    let e = Growth.exponent_estimate g ~v:hub ~rmax:8 in
    check "sub-exponential-looking growth" true (e < 3.5)
  end;
  (* The variable-length C1 schema runs on unit-disk graphs. *)
  let prob = Lcl.Instances.coloring (Graph.max_degree g + 1) in
  let params = { Subexp_lcl.spread = 10; inner_margin = 2 } in
  let advice = Subexp_lcl.encode ~params prob g in
  let labeling = Subexp_lcl.decode ~params prob g advice in
  check "advice colors a unit-disk graph" true (Lcl.Problem.verify prob g labeling)

let test_schemas_are_composable () =
  (* Definition 4 compliance of the actual schemas, at parameters their
     constructions promise. *)
  let g = Builders.cycle 2000 in
  let orientation =
    (Balanced_orientation.encode
       ~params:{ Balanced_orientation.default_params with Balanced_orientation.cover = 64 }
       g)
      .Balanced_orientation.assignment
  in
  let r1 =
    Advice.Definition.composability g orientation ~c:2.0 ~gamma:3 ~alpha:24
  in
  check "orientation schema composable" true r1.Advice.Definition.ok;
  let beacons = Two_coloring.encode ~params:{ Two_coloring.spread = 64 } g in
  let r2 = Advice.Definition.composability g beacons ~c:1.0 ~gamma:2 ~alpha:24 in
  check "2-coloring schema composable" true r2.Advice.Definition.ok;
  let lcl =
    Subexp_lcl.encode ~params:{ Subexp_lcl.spread = 200; inner_margin = 2 }
      (Lcl.Instances.mis) g
  in
  let r3 = Advice.Definition.composability g lcl ~c:2.0 ~gamma:1 ~alpha:60 in
  check "C1 schema composable" true r3.Advice.Definition.ok

(* ------------------------------------------------------------------ *)
(* Locally checkable proofs *)

let test_proof_completeness () =
  let system = Proofs.of_lcl (Lcl.Instances.coloring 3) in
  check "cycle 3-colorable: proof accepted" true
    (Proofs.completeness system (Builders.cycle 301));
  let mis_system = Proofs.of_lcl Lcl.Instances.mis in
  check "MIS proof accepted" true
    (Proofs.completeness mis_system (Builders.cycle 200))

let test_proof_soundness () =
  let system = Proofs.of_lcl (Lcl.Instances.coloring 2) in
  let odd = Builders.cycle 151 in
  let rng = Prng.create 7 in
  check "no certificate 2-colors an odd cycle" true
    (Proofs.soundness_sample rng system odd ~trials:50)

let test_proof_rejects_garbage_sizes () =
  let system = Proofs.of_lcl (Lcl.Instances.coloring 3) in
  let g = Builders.cycle 100 in
  check "wrong-size certificate rejected" false
    (system.Proofs.verify g (Bitset.create 5))

(* ------------------------------------------------------------------ *)
(* Degeneracy compression (open question 4) *)

let test_degeneracy_order () =
  let g = Builders.path 5 in
  let _, d = Degenerate_compression.degeneracy_order g in
  check_int "path degeneracy" 1 d;
  let g = Builders.cycle 6 in
  let _, d = Degenerate_compression.degeneracy_order g in
  check_int "cycle degeneracy" 2 d;
  let g = Builders.complete 5 in
  let _, d = Degenerate_compression.degeneracy_order g in
  check_int "K5 degeneracy" 4 d

let test_orient_by_order_outdeg () =
  let rng = Prng.create 3 in
  let g = Builders.gnp rng 40 0.15 in
  let pos, d = Degenerate_compression.degeneracy_order g in
  let o = Degenerate_compression.orient_by_order g pos in
  Graph.iter_nodes
    (fun v -> check "outdeg <= degeneracy" true (Orientation.out_degree o v <= d))
    g

let test_cubic_two_bits () =
  let g = Builders.double_cycle 30 in
  let rng = Prng.create 11 in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let enc = Degenerate_compression.encode g x in
  check_int "at most 2 bits per node" 2
    (Degenerate_compression.max_bits_per_node enc);
  check "lossless" true (Bitset.equal x (Degenerate_compression.decode g enc))

let test_cubic_ladder_cycleized () =
  (* A 3-regular "prism": ladder closed into a loop. *)
  let len = 24 in
  let g =
    Builders.add_edges (Builders.ladder len)
      [ (0, len - 1); (len, (2 * len) - 1) ]
  in
  Graph.iter_nodes (fun v -> check_int "3-regular" 3 (Graph.degree g v)) g;
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if e mod 3 <> 0 then Bitset.add x e) g;
  let enc = Degenerate_compression.encode g x in
  check "lossless" true (Bitset.equal x (Degenerate_compression.decode g enc));
  check "beats C4's 3 bits" true
    (Degenerate_compression.max_bits_per_node enc
    < Edge_compression.bits_bound 3)

let test_non_cubic_rejected () =
  let g = Builders.cycle 10 in
  match Degenerate_compression.encode g (Bitset.create 10) with
  | exception Degenerate_compression.Unsupported _ -> ()
  | _ -> Alcotest.fail "2-regular input must be rejected"

let prop_cubic_roundtrip =
  QCheck.Test.make ~name:"degeneracy compression roundtrips on double cycles"
    ~count:20
    QCheck.(
      make
        ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
        Gen.(
          int_range 5 40 >>= fun n ->
          int_range 0 500 >>= fun seed -> return (n, seed)))
    (fun (n, seed) ->
      let g = Builders.double_cycle n in
      let rng = Prng.create seed in
      let x = Bitset.create (Graph.m g) in
      Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
      let enc = Degenerate_compression.encode g x in
      Degenerate_compression.max_bits_per_node enc <= 2
      && Bitset.equal x (Degenerate_compression.decode g enc))

(* ------------------------------------------------------------------ *)
(* Order-invariance lift *)

let test_lift_is_order_invariant () =
  let rng = Prng.create 13 in
  let g = Builders.cycle 30 in
  (* id parity: blatantly order-dependent. *)
  let parity (view : Localmodel.View.t) =
    (view.Localmodel.View.ids.(view.Localmodel.View.center) mod 2) + 1
  in
  let assignments =
    [
      Localmodel.Ids.identity g;
      Localmodel.Ids.random_sparse rng g;
      Localmodel.Ids.random_sparse rng g;
    ]
  in
  check "raw algorithm is order-dependent" false
    (Ethlink.Canonical.is_order_invariant ~decide:parity
       ~graphs:[ (g, assignments) ] ~radius:1);
  check "lifted algorithm is order-invariant" true
    (Ethlink.Canonical.is_order_invariant
       ~decide:(Ethlink.Canonical.lift parity)
       ~graphs:[ (g, assignments) ] ~radius:1)

let test_lift_preserves_invariant_algorithms () =
  let g = Builders.cycle 20 in
  let rng = Prng.create 17 in
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
  let ids = Localmodel.Ids.random_sparse rng g in
  let direct = Localmodel.View.map_nodes g ~ids ~radius:1 local_min in
  let lifted =
    Localmodel.View.map_nodes g ~ids ~radius:1 (Ethlink.Canonical.lift local_min)
  in
  check "lift is the identity on order-invariant algorithms" true
    (direct = lifted)

let test_canonicalize_view () =
  let g = Builders.path 3 in
  let view = Localmodel.View.make g ~ids:[| 70; 10; 40 |] ~radius:2 1 in
  let canon = Ethlink.Canonical.canonicalize_view view in
  let sorted = Array.copy canon.Localmodel.View.ids in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "ids are 1..k" [| 1; 2; 3 |] sorted;
  (* Relative order preserved: every pair of view nodes compares the
     same before and after (70, the largest, becomes 3). *)
  let ids = view.Localmodel.View.ids and ranks = canon.Localmodel.View.ids in
  Array.iteri
    (fun i id ->
      Array.iteri
        (fun j id' -> check "order preserved" (id < id') (ranks.(i) < ranks.(j)))
        ids)
    ids

(* ------------------------------------------------------------------ *)
(* Three-coloring locality ablation: groups make decoding local *)

let test_three_coloring_groups_enable_locality () =
  let len = 300 in
  let g = Builders.caterpillar len in
  let witness = Builders.caterpillar_witness len in
  let params = Three_coloring.default_params in
  let advice = Three_coloring.encode ~params ~witness g in
  let ids = Localmodel.Ids.identity g in
  let decode g ~ids:_ ~advice =
    match Three_coloring.decode ~params g advice with
    | colors -> colors
    | exception Three_coloring.Encoding_failure _ ->
        Array.make (Graph.n g) 0
  in
  (* With groups: the spine's coloring stabilizes at a constant radius.
     The radius is deliberately odd: the ablation's canonical 2-coloring
     anchors at the fragment's least spine node, which sits exactly
     [radius] spine-hops before the center, so an even radius would make
     full and fragment parities agree by coincidence. *)
  let radius = (2 * params.Three_coloring.group_spread) + 9 in
  let samples = [ len / 2; len / 3 ] in
  check "group decoding is local on the spine" true
    (Localmodel.Locality.stable_for_all g ~ids ~advice ~decode ~equal:( = )
       ~radius ~samples);
  (* Ablation: strip the group bits (keep only color-1 bits).  Decoding
     still yields a proper coloring globally (canonical 2-coloring), but
     the spine's output now depends on the whole component: not stable at
     the same radius. *)
  let phi = Coloring.make_greedy g witness in
  let stripped =
    Array.init (Graph.n g) (fun v -> if phi.(v) = 1 then "1" else "0")
  in
  let colors = Three_coloring.decode ~params g stripped in
  check "stripped advice still decodes to a proper coloring" true
    (Coloring.is_proper g colors);
  check "but decoding is no longer local" false
    (Localmodel.Locality.stable_for_all g ~ids ~advice:stripped ~decode
       ~equal:( = ) ~radius ~samples)

let () =
  Alcotest.run "extensions"
    [
      ( "builders",
        [
          Alcotest.test_case "caterpillar" `Quick test_caterpillar;
          Alcotest.test_case "ladder" `Quick test_ladder;
          Alcotest.test_case "double cycle" `Quick test_double_cycle;
          Alcotest.test_case "random geometric" `Quick test_random_geometric;
          Alcotest.test_case "schemas meet Definition 4" `Quick
            test_schemas_are_composable;
        ] );
      ( "proofs",
        [
          Alcotest.test_case "completeness" `Quick test_proof_completeness;
          Alcotest.test_case "soundness (sampled)" `Quick test_proof_soundness;
          Alcotest.test_case "size check" `Quick test_proof_rejects_garbage_sizes;
        ] );
      ( "degeneracy",
        [
          Alcotest.test_case "order" `Quick test_degeneracy_order;
          Alcotest.test_case "outdeg bound" `Quick test_orient_by_order_outdeg;
          Alcotest.test_case "2 bits on cubic" `Quick test_cubic_two_bits;
          Alcotest.test_case "prism" `Quick test_cubic_ladder_cycleized;
          Alcotest.test_case "non-cubic rejected" `Quick test_non_cubic_rejected;
          QCheck_alcotest.to_alcotest prop_cubic_roundtrip;
        ] );
      ( "lift",
        [
          Alcotest.test_case "lift makes invariant" `Quick
            test_lift_is_order_invariant;
          Alcotest.test_case "lift preserves invariant" `Quick
            test_lift_preserves_invariant_algorithms;
          Alcotest.test_case "canonicalize" `Quick test_canonicalize_view;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "3-coloring groups enable locality" `Slow
            test_three_coloring_groups_enable_locality;
        ] );
    ]
