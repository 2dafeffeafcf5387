(* Tests for the graph substrate: structure, generators, traversal,
   coloring, ruling sets and Eulerian orientations. *)

open Netgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Graph structure *)

let test_of_edges_basic () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  check_int "n" 4 (Graph.n g);
  check_int "m" 4 (Graph.m g);
  check_int "deg 0" 2 (Graph.degree g 0);
  check "edge 0-1" true (Graph.is_edge g 0 1);
  check "edge 1-0" true (Graph.is_edge g 1 0);
  check "no edge 0-2" false (Graph.is_edge g 0 2);
  check "no self edge" false (Graph.is_edge g 1 1)

let test_of_edges_dedup () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 0); (0, 1); (1, 2) ] in
  check_int "m deduplicated" 2 (Graph.m g)

let test_of_edges_rejects_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop")
    (fun () -> ignore (Graph.of_edges ~n:2 [ (1, 1) ]))

(* Rows hold 32-bit entries: a node count past 2^31 - 1 is refused
   before anything is allocated (the rows of 2^31 nodes would take 8
   GiB). *)
let test_of_edges_row_cap () =
  match Graph.of_edges ~n:(1 lsl 31) [] with
  | exception Invalid_argument msg ->
      check "names the cap" true
        (String.equal msg
           "Graph.of_edges: node count 2147483648 exceeds 2147483647, the 32-bit row cap")
  | _ -> Alcotest.fail "of_edges built a graph of 2^31 nodes"

(* The edge-endpoint row is derived from the stored rows on first use.
   The reference here is eager: every pair [u < v] of the neighbor
   lists, in lexicographic order, edge [e] being the [e]-th. *)
let eager_edges g =
  let acc = ref [] in
  for u = Graph.n g - 1 downto 0 do
    let nb = Graph.neighbors g u in
    for i = Array.length nb - 1 downto 0 do
      if nb.(i) > u then acc := (u, nb.(i)) :: !acc
    done
  done;
  Array.of_list !acc

(* Every edge reader of a fresh [make ()] against the reference, with
   each reader in turn the first call on its graph. *)
let check_edge_readers what make =
  let reference = eager_edges (make ()) in
  let m = Array.length reference in
  let readers =
    [
      ("edge_endpoints", fun g -> ignore (Graph.edge_endpoints g 0));
      ( "edge_other_endpoint",
        fun g -> ignore (Graph.edge_other_endpoint g 0 (fst reference.(0))) );
      ("edges", fun g -> ignore (Graph.edges g));
      ("iter_edges", fun g -> Graph.iter_edges (fun _ _ -> ()) g);
      ("m", fun g -> ignore (Graph.m g));
      ("equal", fun g -> ignore (Graph.equal g g));
    ]
  in
  List.iter
    (fun (first, read) ->
      let g = make () in
      let what = Printf.sprintf "%s, %s first" what first in
      (* Edge 0 exists only when there is an edge. *)
      if m > 0 || (first <> "edge_endpoints" && first <> "edge_other_endpoint") then
        read g;
      check_int (what ^ ": m") m (Graph.m g);
      check (what ^ ": edges") true (Graph.edges g = reference);
      let seen = ref [] in
      Graph.iter_edges (fun e p -> seen := (e, p) :: !seen) g;
      check (what ^ ": iter_edges in id order") true
        (List.rev !seen = List.init m (fun e -> (e, reference.(e))));
      Array.iteri
        (fun e (u, v) ->
          check (what ^ ": edge_endpoints") true (Graph.edge_endpoints g e = (u, v));
          check_int (what ^ ": other of u") v (Graph.edge_other_endpoint g e u);
          check_int (what ^ ": other of v") u (Graph.edge_other_endpoint g e v);
          check_int (what ^ ": edge_id") e (Graph.edge_id g u v))
        reference;
      (match Graph.edge_endpoints g m with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: edge_endpoints accepted edge %d of %d" what m m);
      let n = Graph.n g in
      check (what ^ ": equal to its edge list") true
        (Graph.equal g (Graph.of_edges ~n (Array.to_list reference)));
      check (what ^ ": not equal with a node more") false
        (Graph.equal g (Graph.of_edges ~n:(n + 1) (Array.to_list reference)));
      if m > 0 then
        check (what ^ ": not equal without its last edge") false
          (Graph.equal g
             (Graph.of_edges ~n (List.init (m - 1) (fun e -> reference.(e))))))
    readers

let test_derived_endpoint_row () =
  let rng () = Prng.create 34 in
  let ball host center radius () =
    let ws = Workspace.domain_local () in
    Workspace.ensure ws (Graph.n host);
    ignore (Traversal.bfs_limited_into ws host center radius);
    fst (Graph.induced_ball host ws)
  in
  List.iter
    (fun (what, make) -> check_edge_readers what make)
    [
      ("cycle", fun () -> Builders.cycle 12);
      ("grid", fun () -> Builders.grid 4 5);
      ("torus", fun () -> Builders.torus 4 5);
      ("random regular", fun () -> Builders.random_regular (rng ()) 20 3);
      ("star of degree 20", fun () -> Builders.complete_bipartite 1 20);
      ("isolated nodes", fun () -> Graph.of_edges ~n:10 [ (2, 7); (3, 4); (4, 9) ]);
      ("edgeless", fun () -> Graph.of_edges ~n:4 []);
      ("empty", fun () -> Graph.of_edges ~n:0 []);
      ("ball of a torus", ball (Builders.torus 8 8) 27 2);
      ( "ball of a random regular graph",
        ball (Builders.random_regular (rng ()) 40 3) 5 2 );
      ("ball of a star", ball (Builders.complete_bipartite 1 20) 3 1);
    ]

(* Two pool tasks that both read the endpoint row first, on one graph no
   reader has touched, see one row: the one [compare_and_set]
   published. *)
let test_derived_row_race () =
  let g = Builders.torus 40 40 in
  let reference = eager_edges g in
  let read _ = Array.init (Graph.m g) (Graph.edge_endpoints g) in
  let results = Localmodel.Pool.run ~domains:2 read [| 0; 1 |] in
  check "both tasks read the reference" true
    (results.(0) = reference && results.(1) = reference)

(* [of_adjacency] is [of_edges] for valid adjacency — same neighbor
   arrays, lexicographic edge ids and incident arrays — and names the
   first defect of an invalid one. *)
let test_of_adjacency () =
  let same a b =
    Graph.equal a b
    && Graph.fold_nodes
         (fun v ok ->
           ok
           && Graph.neighbors a v = Graph.neighbors b v
           && Graph.incident_edges a v = Graph.incident_edges b v)
         a true
  in
  List.iter
    (fun g ->
      let adj = Array.init (Graph.n g) (fun v -> Array.copy (Graph.neighbors g v)) in
      check "of_adjacency = of_edges" true (same g (Graph.of_adjacency adj)))
    [
      Graph.of_edges ~n:0 [];
      Graph.of_edges ~n:3 [];
      Builders.cycle 7;
      Builders.complete_bipartite 1 20;
      Builders.gnp (Prng.create 5) 40 0.2;
    ];
  List.iter
    (fun (what, adj) ->
      match Graph.of_adjacency adj with
      | exception Invalid_argument msg ->
          check (what ^ " is diagnosed") true
            (String.starts_with ~prefix:"Graph.of_adjacency: " msg)
      | _ -> Alcotest.failf "of_adjacency accepted %s" what)
    [
      ("an out-of-range neighbor", [| [| 1 |]; [| 0; 2 |] |]);
      ("a negative neighbor", [| [| -1 |]; [||] |]);
      ("a self-loop", [| [| 0 |] |]);
      ("an unsorted array", [| [| 2; 1 |]; [| 0 |]; [| 0 |] |]);
      ("a repeated neighbor", [| [| 1; 1 |]; [| 0 |] |]);
      ("a missing upper half", [| [| 1 |]; [||] |]);
      ("a missing lower half", [| [||]; [| 0 |] |]);
      ("the 0:{1}, 3:{2} file", [| [| 1 |]; [||]; [||]; [| 2 |] |]);
      ("a mismatched pair", [| [| 2 |]; [| 2 |]; [| 1 |] |]);
    ]

let test_neighbors_sorted () =
  let g = Graph.of_edges ~n:5 [ (2, 4); (2, 0); (2, 3); (2, 1) ] in
  Alcotest.(check (array int)) "sorted" [| 0; 1; 3; 4 |] (Graph.neighbors g 2)

let test_edge_ids_dense () =
  let g = Builders.cycle 5 in
  let seen = Array.make (Graph.m g) false in
  Graph.iter_edges (fun e _ -> seen.(e) <- true) g;
  check "all ids hit" true (Array.for_all (fun b -> b) seen);
  Graph.iter_edges
    (fun e (u, v) ->
      check "u<v" true (u < v);
      check_int "roundtrip" e (Graph.edge_id g u v))
    g

let test_incident_edges () =
  let g = Builders.cycle 4 in
  Graph.iter_nodes
    (fun v ->
      let inc = Graph.incident_edges g v in
      check_int "degree matches" (Graph.degree g v) (Array.length inc);
      Array.iteri
        (fun i e ->
          let u = (Graph.neighbors g v).(i) in
          check_int "edge matches neighbor" (Graph.edge_id g v u) e)
        inc)
    g

let test_induced () =
  let g = Builders.cycle 6 in
  let h, to_sub, to_orig = Graph.induced g [ 0; 1; 2; 4 ] in
  check_int "nodes" 4 (Graph.n h);
  check_int "edges (0-1, 1-2)" 2 (Graph.m h);
  check_int "to_sub 4" 3 to_sub.(4);
  check_int "to_orig roundtrip" 4 to_orig.(to_sub.(4));
  check_int "absent" (-1) to_sub.(5)

let test_remove_nodes () =
  let g = Builders.cycle 6 in
  let removed = Bitset.of_list 6 [ 0 ] in
  let h, _, _ = Graph.remove_nodes g removed in
  check_int "path of 5 nodes" 5 (Graph.n h);
  check_int "path edges" 4 (Graph.m h)

let test_power () =
  let g = Builders.path 5 in
  let g2 = Graph.power g 2 in
  check "dist-2 pair" true (Graph.is_edge g2 0 2);
  check "dist-1 pair kept" true (Graph.is_edge g2 0 1);
  check "dist-3 pair absent" false (Graph.is_edge g2 0 3);
  let cycle = Builders.cycle 6 in
  let c2 = Graph.power cycle 2 in
  check_int "cycle^2 is 4-regular" 4 (Graph.max_degree c2)

let test_line_graph () =
  let g = Builders.path 4 in
  (* 3 edges in a path: line graph is a path on 3 nodes with 2 edges. *)
  let lg = Graph.line_graph g in
  check_int "line nodes" 3 (Graph.n lg);
  check_int "line edges" 2 (Graph.m lg)

let test_connectivity () =
  check "cycle connected" true (Graph.is_connected (Builders.cycle 5));
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  check "two components" false (Graph.is_connected g)

(* ------------------------------------------------------------------ *)
(* Builders *)

let test_builders_shapes () =
  check_int "cycle m" 7 (Graph.m (Builders.cycle 7));
  check_int "path m" 6 (Graph.m (Builders.path 7));
  check_int "complete m" 21 (Graph.m (Builders.complete 7));
  check_int "K23 m" 6 (Graph.m (Builders.complete_bipartite 2 3));
  check_int "grid m" (2 * 3 * 4 - 3 - 4) (Graph.m (Builders.grid 3 4));
  check_int "torus m" (2 * 9) (Graph.m (Builders.torus 3 3));
  check_int "hypercube m" (3 * 4) (Graph.m (Builders.hypercube 3));
  check_int "kary nodes" 7 (Graph.n (Builders.complete_kary_tree 2 2))

let test_random_tree () =
  let rng = Prng.create 42 in
  let g = Builders.random_tree rng 50 in
  check_int "tree edges" 49 (Graph.m g);
  check "tree connected" true (Graph.is_connected g)

let test_random_regular () =
  let rng = Prng.create 7 in
  let g = Builders.random_regular rng 20 4 in
  Graph.iter_nodes (fun v -> check_int "regular" 4 (Graph.degree g v)) g

let test_random_even_degree () =
  let rng = Prng.create 11 in
  let g = Builders.random_even_degree rng 30 3 in
  Graph.iter_nodes
    (fun v -> check_int "even degree" 0 (Graph.degree g v mod 2))
    g

let test_random_bipartite_regular () =
  let rng = Prng.create 3 in
  let g = Builders.random_bipartite_regular rng 12 4 in
  Graph.iter_nodes (fun v -> check_int "regular" 4 (Graph.degree g v)) g;
  check "bipartite" true (Traversal.is_bipartite g)

let test_planted_colorable () =
  let rng = Prng.create 5 in
  let g, coloring = Builders.planted_colorable rng 40 3 0.15 in
  check "planted proper" true (Coloring.is_proper g coloring);
  check_int "three colors" 3 (Coloring.num_colors coloring)

let test_planted_max_degree () =
  let rng = Prng.create 9 in
  let g, coloring = Builders.planted_max_degree_colorable rng ~n:60 ~delta:5 in
  check "planted proper" true (Coloring.is_proper g coloring);
  check "degree cap" true (Graph.max_degree g <= 5)

let test_disjoint_union () =
  let g = Builders.disjoint_union (Builders.cycle 3) (Builders.cycle 4) in
  check_int "nodes" 7 (Graph.n g);
  check_int "edges" 7 (Graph.m g);
  check "split" false (Graph.is_edge g 2 3)

(* ------------------------------------------------------------------ *)
(* Traversal *)

let test_bfs_distances () =
  let g = Builders.cycle 8 in
  let dist = Traversal.bfs_distances g 0 in
  check_int "dist 0" 0 dist.(0);
  check_int "dist 1" 1 dist.(1);
  check_int "antipode" 4 dist.(4);
  check_int "wrap" 1 dist.(7)

let test_bfs_unreachable () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  let dist = Traversal.bfs_distances g 0 in
  check_int "unreachable" (-1) dist.(3)

let test_ball_sphere () =
  let g = Builders.grid 5 5 in
  let b = Traversal.ball g 12 1 in
  check_int "center ball" 5 (List.length b);
  let s = Traversal.sphere g 12 2 in
  check_int "center sphere r=2" 8 (List.length s)

let test_distance_pairs () =
  let g = Builders.grid 4 4 in
  check_int "corner to corner" 6 (Traversal.distance g 0 15);
  check_int "self" 0 (Traversal.distance g 3 3)

let test_shortest_path_lex_least () =
  (* Two shortest paths 0-1-3 and 0-2-3; lexicographically least is via 1. *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  Alcotest.(check (list int)) "lex least" [ 0; 1; 3 ] (Traversal.shortest_path g 0 3)

let test_shortest_path_is_shortest () =
  let rng = Prng.create 99 in
  let g = Builders.gnp rng 30 0.15 in
  Graph.iter_nodes
    (fun v ->
      let d = Traversal.distance g 0 v in
      if d >= 0 then begin
        let p = Traversal.shortest_path g 0 v in
        check_int "length matches distance" (d + 1) (List.length p)
      end)
    g

let test_diameter () =
  check_int "cycle 8" 4 (Traversal.diameter (Builders.cycle 8));
  check_int "path 5" 4 (Traversal.diameter (Builders.path 5));
  check_int "complete" 1 (Traversal.diameter (Builders.complete 5))

let test_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (2, 3); (3, 4) ] in
  let comp, k = Traversal.components g in
  check_int "three components" 3 k;
  check_int "same comp" comp.(2) comp.(4);
  check "diff comp" true (comp.(0) <> comp.(2))

let test_bipartition () =
  let g = Builders.cycle 6 in
  (match Traversal.bipartition g with
  | Some side ->
      Graph.iter_edges
        (fun _ (u, v) -> check "sides differ" true (side.(u) <> side.(v)))
        g
  | None -> Alcotest.fail "even cycle is bipartite");
  check "odd cycle" true (Traversal.bipartition (Builders.cycle 5) = None)

let test_growth () =
  let g = Builders.grid 9 9 in
  let center = (4 * 9) + 4 in
  check_int "r=0" 1 (Traversal.growth g center 0);
  check_int "r=1" 5 (Traversal.growth g center 1);
  check_int "r=2" 13 (Traversal.growth g center 2)

(* ------------------------------------------------------------------ *)
(* Coloring *)

let test_greedy_proper () =
  let rng = Prng.create 17 in
  let g = Builders.gnp rng 60 0.1 in
  let c = Coloring.greedy g in
  check "greedy proper" true (Coloring.is_proper g c);
  check "greedy is greedy" true (Coloring.is_greedy g c);
  check "color bound" true (Coloring.num_colors c <= Graph.max_degree g + 1)

let test_make_greedy () =
  let rng = Prng.create 23 in
  let g, planted = Builders.planted_colorable rng 50 3 0.2 in
  let greedy = Coloring.make_greedy g planted in
  check "still proper" true (Coloring.is_proper g greedy);
  check "greedy property" true (Coloring.is_greedy g greedy);
  check "no new colors" true (Coloring.num_colors greedy <= Coloring.num_colors planted)

let test_distance_coloring () =
  let g = Builders.cycle 12 in
  let c = Coloring.distance_coloring g 3 in
  Graph.iter_nodes
    (fun v ->
      List.iter
        (fun u ->
          if u <> v then check "distinct within distance" true (c.(u) <> c.(v)))
        (Traversal.ball g v 3))
    g

let test_two_color_bipartite () =
  let g = Builders.grid 4 5 in
  let c = Coloring.two_color_bipartite g in
  check "proper" true (Coloring.is_proper g c);
  check_int "two colors" 2 (Coloring.num_colors c)

let test_backtracking () =
  (* Odd cycle needs 3 colors. *)
  let g = Builders.cycle 7 in
  check "2 colors impossible" true (Coloring.backtracking g 2 = None);
  (match Coloring.backtracking g 3 with
  | Some c -> check "3 coloring proper" true (Coloring.is_proper g c)
  | None -> Alcotest.fail "cycle is 3-colorable");
  let k5 = Builders.complete 5 in
  check "K5 not 4-colorable" true (Coloring.backtracking k5 4 = None)

let test_color_classes () =
  let c = [| 1; 2; 1; 3; 2 |] in
  let classes = Coloring.color_classes c in
  Alcotest.(check (list int)) "class 1" [ 0; 2 ] classes.(1);
  Alcotest.(check (list int)) "class 3" [ 3 ] classes.(3)

(* ------------------------------------------------------------------ *)
(* Ruling sets *)

let test_greedy_mis () =
  let rng = Prng.create 31 in
  let g = Builders.gnp rng 50 0.1 in
  let mis = Ruling.greedy_mis g in
  check "independent" true (Ruling.is_independent g mis);
  check "maximal = (2,1) ruling" true (Ruling.verify_ruling g mis ~alpha:2 ~beta:1)

let test_ruling_set () =
  let g = Builders.cycle 40 in
  let rs = Ruling.ruling_set g ~alpha:5 in
  check "ruling (5,4)" true (Ruling.verify_ruling g rs ~alpha:5 ~beta:4)

let test_ruling_set_of_candidates () =
  let g = Builders.cycle 30 in
  let candidates = [ 0; 3; 6; 9; 12; 15; 18; 21; 24; 27 ] in
  let rs = Ruling.ruling_set_of g ~candidates ~alpha:6 in
  let rec pairs = function
    | [] -> ()
    | v :: rest ->
        List.iter
          (fun u -> check "far apart" true (Traversal.distance g u v >= 6))
          rest;
        pairs rest
  in
  pairs rs;
  let dist = Traversal.bfs_distances_multi g rs in
  List.iter (fun c -> check "candidate dominated" true (dist.(c) <= 5)) candidates

(* ------------------------------------------------------------------ *)
(* Orientation and Eulerian partition *)

let test_orientation_basic () =
  let g = Builders.cycle 4 in
  let o = Orientation.create g in
  check "default low->high" true (Orientation.points_from o 0 1);
  Orientation.orient o 1 0;
  check "reoriented" true (Orientation.points_from o 1 0);
  check "other side" false (Orientation.points_from o 0 1)

let test_out_in_degree () =
  let g = Builders.cycle 4 in
  let o = Orientation.create g in
  Graph.iter_nodes
    (fun v ->
      check_int "degrees sum" (Graph.degree g v)
        (Orientation.out_degree o v + Orientation.in_degree o v))
    g

let trail_is_valid g (t : Orientation.trail) =
  let len = Array.length t.Orientation.edges in
  Array.length t.Orientation.nodes = len + 1
  && (not t.Orientation.closed || t.Orientation.nodes.(0) = t.Orientation.nodes.(len))
  && Array.for_all (fun b -> b)
       (Array.init len (fun i ->
            let e = t.Orientation.edges.(i) in
            let a, b = Graph.edge_endpoints g e in
            let x = t.Orientation.nodes.(i) and y = t.Orientation.nodes.(i + 1) in
            (a = x && b = y) || (a = y && b = x)))

let test_euler_partition_covers () =
  let rng = Prng.create 41 in
  let g = Builders.random_even_degree rng 25 2 in
  let trails = Orientation.euler_partition g in
  let covered = Bitset.create (Graph.m g) in
  List.iter
    (fun t ->
      check "trail valid" true (trail_is_valid g t);
      check "even-degree graph: closed" true t.Orientation.closed;
      Array.iter
        (fun e ->
          check "edge not repeated" false (Bitset.mem covered e);
          Bitset.add covered e)
        t.Orientation.edges)
    trails;
  check_int "all edges covered" (Graph.m g) (Bitset.cardinal covered)

let test_euler_partition_odd_degrees () =
  let g = Builders.path 6 in
  let trails = Orientation.euler_partition g in
  check_int "single open trail" 1 (List.length trails);
  List.iter (fun t -> check "open" false t.Orientation.closed) trails

let test_euler_endpoint_multiplicity () =
  let rng = Prng.create 43 in
  let g = Builders.gnp rng 30 0.15 in
  let trails = Orientation.euler_partition g in
  let endpoint_count = Array.make (Graph.n g) 0 in
  List.iter
    (fun (t : Orientation.trail) ->
      if not t.Orientation.closed then begin
        let last = Array.length t.Orientation.nodes - 1 in
        endpoint_count.(t.Orientation.nodes.(0)) <-
          endpoint_count.(t.Orientation.nodes.(0)) + 1;
        endpoint_count.(t.Orientation.nodes.(last)) <-
          endpoint_count.(t.Orientation.nodes.(last)) + 1
      end)
    trails;
  Graph.iter_nodes
    (fun v ->
      let expected = if Graph.degree g v mod 2 = 1 then 1 else 0 in
      check_int "open-trail endpoints = odd-degree nodes" expected
        endpoint_count.(v))
    g

let test_of_trails_balanced () =
  let rng = Prng.create 47 in
  let g = Builders.random_even_degree rng 40 3 in
  let o = Orientation.of_trails g (fun _ -> true) in
  check "balanced on even degrees" true (Orientation.is_balanced o)

let test_of_trails_almost_balanced () =
  let rng = Prng.create 53 in
  let g = Builders.gnp rng 40 0.12 in
  let o = Orientation.of_trails g (fun _ -> false) in
  check "almost balanced" true (Orientation.is_almost_balanced o)

let test_trail_through_consistent () =
  let rng = Prng.create 59 in
  let g = Builders.random_even_degree rng 20 2 in
  let trails = Orientation.euler_partition g in
  Graph.iter_edges
    (fun e (u, _) ->
      let t = Orientation.trail_through g u e in
      let expected =
        List.find
          (fun t -> Array.exists (fun e' -> e' = e) t.Orientation.edges)
          trails
      in
      check "same trail object" true (t = expected))
    g

let test_out_neighbors_canonical () =
  let g = Builders.complete 4 in
  let o = Orientation.create g in
  Alcotest.(check (array int)) "node 1 out" [| 2; 3 |] (Orientation.out_neighbors o 1)

(* ------------------------------------------------------------------ *)
(* Bitset and Prng *)

let test_bitset () =
  let b = Bitset.create 100 in
  Bitset.add b 0;
  Bitset.add b 63;
  Bitset.add b 64;
  Bitset.add b 99;
  check_int "cardinal" 4 (Bitset.cardinal b);
  check "mem 63" true (Bitset.mem b 63);
  Bitset.remove b 63;
  check "removed" false (Bitset.mem b 63);
  Alcotest.(check (list int)) "to_list" [ 0; 64; 99 ] (Bitset.to_list b);
  let c = Bitset.copy b in
  Bitset.add c 1;
  check "copy independent" false (Bitset.mem b 1);
  check "equal self" true (Bitset.equal b b);
  check "unequal" false (Bitset.equal b c)

let test_prng_determinism () =
  let a = Prng.create 1234 and b = Prng.create 1234 in
  for _ = 1 to 100 do
    check "same stream" true (Prng.int a 1000 = Prng.int b 1000)
  done

let test_prng_bounds () =
  let rng = Prng.create 1 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 7 in
    check "in range" true (x >= 0 && x < 7)
  done

let test_prng_permutation () =
  let rng = Prng.create 2 in
  let p = Prng.permutation rng 20 in
  let sorted = Array.copy p in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 20 (fun i -> i)) sorted

(* ------------------------------------------------------------------ *)
(* Property-based tests *)

let arb_small_graph =
  let gen =
    QCheck.Gen.(
      int_range 2 40 >>= fun n ->
      int_range 0 100 >>= fun seed ->
      float_range 0.0 0.3 >>= fun p -> return (n, seed, p))
  in
  QCheck.make
    ~print:(fun (n, seed, p) -> Printf.sprintf "(n=%d, seed=%d, p=%f)" n seed p)
    gen

let graph_of (n, seed, p) = Builders.gnp (Prng.create seed) n p

let prop_greedy_proper =
  QCheck.Test.make ~name:"greedy coloring is proper on random graphs" ~count:100
    arb_small_graph (fun params ->
      let g = graph_of params in
      Coloring.is_proper g (Coloring.greedy g))

let prop_euler_covers =
  QCheck.Test.make ~name:"euler partition covers each edge once" ~count:100
    arb_small_graph (fun params ->
      let g = graph_of params in
      let total =
        List.fold_left
          (fun acc t -> acc + Array.length t.Orientation.edges)
          0 (Orientation.euler_partition g)
      in
      total = Graph.m g)

let prop_trail_orientation_almost_balanced =
  QCheck.Test.make ~name:"trail orientation is almost balanced" ~count:100
    arb_small_graph (fun params ->
      let g = graph_of params in
      Orientation.is_almost_balanced (Orientation.of_trails g (fun _ -> true)))

let prop_mis_is_ruling =
  QCheck.Test.make ~name:"greedy MIS is a (2,1)-ruling set" ~count:50
    arb_small_graph (fun params ->
      let g = graph_of params in
      if Graph.n g = 0 then true
      else
        let mis = Ruling.greedy_mis g in
        Ruling.verify_ruling g mis ~alpha:2 ~beta:1)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"bfs distances satisfy edge triangle inequality"
    ~count:50 arb_small_graph (fun params ->
      let g = graph_of params in
      if Graph.n g = 0 then true
      else begin
        let dist = Traversal.bfs_distances g 0 in
        Graph.fold_edges
          (fun _ (u, v) acc ->
            acc
            &&
            match (dist.(u), dist.(v)) with
            | -1, -1 -> true
            | du, dv when du >= 0 && dv >= 0 -> abs (du - dv) <= 1
            | _ -> false)
          g true
      end)

let prop_power_distance =
  QCheck.Test.make ~name:"power graph edges are distance <= k pairs" ~count:30
    arb_small_graph (fun params ->
      let g = graph_of params in
      let k = 2 in
      let gk = Graph.power g k in
      Graph.fold_edges
        (fun _ (u, v) acc ->
          let d = Traversal.distance g u v in
          acc && d >= 1 && d <= k)
        gk true)

(* [of_edges] against the obvious reference: normalize every pair,
   [List.sort_uniq] them, and compare the edge array, each neighbor
   array and each incident array.  Small [n] makes repeats common, and
   the tail re-lists a prefix of the pairs reversed. *)
let arb_pair_list =
  let gen =
    QCheck.Gen.(
      int_range 1 30 >>= fun n ->
      list_size (int_bound 200) (pair (int_bound (n - 1)) (int_bound (n - 1)))
      >>= fun pairs ->
      int_bound 40 >>= fun k ->
      let pairs = List.filter (fun (u, v) -> u <> v) pairs in
      let again = List.filteri (fun i _ -> i < k) pairs in
      return (n, pairs @ List.map (fun (u, v) -> (v, u)) again))
  in
  QCheck.make
    ~print:(fun (n, pairs) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat "; "
           (List.map (fun (u, v) -> Printf.sprintf "(%d, %d)" u v) pairs)))
    gen

let prop_of_edges_reference =
  QCheck.Test.make ~name:"of_edges = sort_uniq reference" ~count:200
    arb_pair_list (fun (n, pairs) ->
      let g = Graph.of_edges ~n pairs in
      let expected =
        List.sort_uniq compare
          (List.map (fun (u, v) -> if u < v then (u, v) else (v, u)) pairs)
      in
      Graph.n g = n
      && Graph.edges g = Array.of_list expected
      && Graph.fold_nodes
           (fun v ok ->
             let nb =
               List.filter_map
                 (fun (a, b) -> if a = v then Some b else if b = v then Some a else None)
                 expected
             in
             ok
             && Graph.neighbors g v = Array.of_list (List.sort compare nb)
             && Array.for_all2
                  (fun u e -> Graph.edge_endpoints g e = (min u v, max u v))
                  (Graph.neighbors g v) (Graph.incident_edges g v))
           g true)

(* The per-node graph this library stored before compressed sparse
   rows, kept verbatim as the reference: one neighbor array and one
   incident array per node and one boxed pair per edge. *)
module Per_node = struct
  type t = {
    n : int;
    adj : int array array;
    edges : (int * int) array;
    incident : int array array;
  }

  let find_in_sorted (arr : int array) x =
    let lo = ref 0 and hi = ref (Array.length arr - 1) in
    let res = ref (-1) in
    while !res < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let y = arr.(mid) in
      if y = x then res := mid else if y < x then lo := mid + 1 else hi := mid - 1
    done;
    !res

  let sort_ints (a : int array) =
    let n = Array.length a in
    if n > 16 then Array.sort Int.compare a
    else
      for i = 1 to n - 1 do
        let x = Array.unsafe_get a i in
        let j = ref (i - 1) in
        while !j >= 0 && Array.unsafe_get a !j > x do
          Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
          decr j
        done;
        Array.unsafe_set a (!j + 1) x
      done

  let of_sorted_adj adj =
    let n = Array.length adj in
    let m = Array.fold_left (fun acc nb -> acc + Array.length nb) 0 adj / 2 in
    let edges = Array.make m (0, 0) in
    let incident = Array.map (fun nb -> Array.make (Array.length nb) 0) adj in
    let lower = Array.make n 0 in
    let next = ref 0 in
    for u = 0 to n - 1 do
      let nb = adj.(u) and inc = incident.(u) in
      for k = lower.(u) to Array.length nb - 1 do
        let v = nb.(k) and e = !next in
        edges.(e) <- (u, v);
        inc.(k) <- e;
        incident.(v).(lower.(v)) <- e;
        lower.(v) <- lower.(v) + 1;
        next := e + 1
      done
    done;
    { n; adj; edges; incident }

  let dedup_sorted (a : int array) =
    let len = Array.length a in
    let k = ref (min len 1) in
    for i = 1 to len - 1 do
      if a.(i) <> a.(!k - 1) then begin
        a.(!k) <- a.(i);
        incr k
      end
    done;
    if !k = len then a else Array.sub a 0 !k

  let of_edges ~n edge_list =
    if n < 0 then invalid_arg "Graph.of_edges: negative n";
    let deg = Array.make n 0 in
    List.iter
      (fun (u, v) ->
        if u < 0 || u >= n || v < 0 || v >= n then
          invalid_arg "Graph.of_edges: endpoint out of range";
        if u = v then invalid_arg "Graph.of_edges: self-loop";
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1)
      edge_list;
    let adj = Array.map (fun d -> Array.make d 0) deg in
    Array.fill deg 0 n 0;
    List.iter
      (fun (u, v) ->
        adj.(u).(deg.(u)) <- v;
        deg.(u) <- deg.(u) + 1;
        adj.(v).(deg.(v)) <- u;
        deg.(v) <- deg.(v) + 1)
      edge_list;
    of_sorted_adj
      (Array.map
         (fun nb ->
           sort_ints nb;
           dedup_sorted nb)
         adj)

  let degree g v = Array.length g.adj.(v)

  let max_degree g =
    Array.fold_left (fun acc nb -> max acc (Array.length nb)) 0 g.adj

  let edge_id g u v =
    if u = v then raise Not_found;
    let a, b =
      if Array.length g.adj.(u) <= Array.length g.adj.(v) then (u, v) else (v, u)
    in
    let i = find_in_sorted g.adj.(a) b in
    if i < 0 then raise Not_found else g.incident.(a).(i)

  let induced_ball g ws =
    let count = Workspace.size ws in
    let adj = Array.make count [||] in
    for i = 0 to count - 1 do
      let nb = g.adj.(Workspace.node_at ws i) in
      let d = ref 0 in
      for k = 0 to Array.length nb - 1 do
        if Workspace.mem ws nb.(k) then incr d
      done;
      let a = Array.make !d 0 in
      let fill = ref 0 in
      for k = 0 to Array.length nb - 1 do
        let u = nb.(k) in
        if Workspace.mem ws u then begin
          a.(!fill) <- Workspace.sub_index ws u;
          incr fill
        end
      done;
      sort_ints a;
      adj.(i) <- a
    done;
    (of_sorted_adj adj, Array.init count (Workspace.node_at ws))
end

(* Compressed sparse rows against [Per_node] on the same pair list (the
   family's edges shuffled, some re-listed reversed): every per-node
   accessor, every edge id, and the radius-1 and radius-2 balls of a
   few nodes. *)
let csr_families =
  [|
    (fun rng -> Builders.cycle (3 + Prng.int rng 40));
    (fun rng -> Builders.grid (1 + Prng.int rng 8) (1 + Prng.int rng 8));
    (fun rng -> Builders.torus (3 + Prng.int rng 6) (3 + Prng.int rng 6));
    (fun rng -> Builders.random_regular rng (2 * (2 + Prng.int rng 15)) 3);
    (fun rng -> Builders.gnp rng (1 + Prng.int rng 40) 0.15);
    (fun rng -> Builders.random_tree rng (1 + Prng.int rng 50));
    (fun rng -> Builders.complete_bipartite 1 (Prng.int rng 40));
    (fun rng ->
      let n = 1 + Prng.int rng 30 in
      Graph.of_edges ~n
        (List.init (Prng.int rng n) (fun _ -> (Prng.int rng n, Prng.int rng n))
        |> List.filter (fun (u, v) -> u <> v)));
    (fun _ -> Graph.of_edges ~n:0 []);
    (fun rng -> Graph.of_edges ~n:(Prng.int rng 5) []);
  |]

let prop_csr_matches_per_node =
  QCheck.Test.make ~name:"csr = per-node reference" ~count:300
    QCheck.(pair (int_bound (Array.length csr_families - 1)) (int_bound 1_000_000))
    (fun (family, seed) ->
      let rng = Prng.create seed in
      let n, pairs =
        let h = csr_families.(family) rng in
        let pairs = Array.to_list (Graph.edges h) in
        let arr = Array.of_list pairs in
        Prng.shuffle rng arr;
        let again = List.filteri (fun i _ -> i mod 3 = 0) pairs in
        (Graph.n h, Array.to_list arr @ List.map (fun (u, v) -> (v, u)) again)
      in
      let g = Graph.of_edges ~n pairs and r = Per_node.of_edges ~n pairs in
      let same_rows =
        Graph.n g = r.Per_node.n
        && Graph.m g = Array.length r.Per_node.edges
        && Graph.max_degree g = Per_node.max_degree r
        && Graph.edges g = r.Per_node.edges
        && Graph.fold_nodes
             (fun v ok ->
               ok
               && Graph.degree g v = Per_node.degree r v
               && Graph.neighbors g v = r.Per_node.adj.(v)
               && Graph.incident_edges g v = r.Per_node.incident.(v))
             g true
      in
      let same_ids =
        Graph.fold_nodes
          (fun u ok ->
            Graph.fold_nodes
              (fun v ok ->
                ok
                &&
                match (Graph.edge_id g u v, Per_node.edge_id r u v) with
                | a, b -> a = b
                | exception Not_found -> (
                    match Per_node.edge_id r u v with
                    | _ -> false
                    | exception Not_found -> true))
              g ok)
          g true
      in
      let same_balls =
        List.for_all
          (fun (v, radius) ->
            v < 0 || v >= n
            ||
            let ws = Workspace.domain_local () in
            ignore (Traversal.bfs_limited_into ws g v radius);
            let h, to_orig = Graph.induced_ball g ws in
            let rh, rto = Per_node.induced_ball r ws in
            to_orig = rto
            && Graph.edges h = rh.Per_node.edges
            && Graph.fold_nodes
                 (fun i ok ->
                   ok
                   && Graph.neighbors h i = rh.Per_node.adj.(i)
                   && Graph.incident_edges h i = rh.Per_node.incident.(i))
                 h true)
          [ (0, 1); (n / 2, 2); (n - 1, 3) ]
      in
      let adj = Array.map Array.copy r.Per_node.adj in
      same_rows && same_ids && same_balls && Graph.equal g (Graph.of_adjacency adj))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_greedy_proper;
      prop_euler_covers;
      prop_trail_orientation_almost_balanced;
      prop_mis_is_ruling;
      prop_bfs_triangle_inequality;
      prop_power_distance;
      prop_of_edges_reference;
      prop_csr_matches_per_node;
    ]

let () =
  Alcotest.run "netgraph"
    [
      ( "graph",
        [
          Alcotest.test_case "of_edges basic" `Quick test_of_edges_basic;
          Alcotest.test_case "of_edges dedup" `Quick test_of_edges_dedup;
          Alcotest.test_case "rejects self loops" `Quick test_of_edges_rejects_loop;
          Alcotest.test_case "refuses 2^31 nodes" `Quick test_of_edges_row_cap;
          Alcotest.test_case "neighbors sorted" `Quick test_neighbors_sorted;
          Alcotest.test_case "edge ids dense" `Quick test_edge_ids_dense;
          Alcotest.test_case "incident edges" `Quick test_incident_edges;
          Alcotest.test_case "induced subgraph" `Quick test_induced;
          Alcotest.test_case "remove nodes" `Quick test_remove_nodes;
          Alcotest.test_case "power graph" `Quick test_power;
          Alcotest.test_case "line graph" `Quick test_line_graph;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "of_adjacency checks its input" `Quick
            test_of_adjacency;
          Alcotest.test_case "derived endpoint row = eager reference" `Quick
            test_derived_endpoint_row;
          Alcotest.test_case "two domains derive one endpoint row" `Quick
            test_derived_row_race;
        ] );
      ( "builders",
        [
          Alcotest.test_case "shapes" `Quick test_builders_shapes;
          Alcotest.test_case "random tree" `Quick test_random_tree;
          Alcotest.test_case "random regular" `Quick test_random_regular;
          Alcotest.test_case "random even degree" `Quick test_random_even_degree;
          Alcotest.test_case "random bipartite regular" `Quick
            test_random_bipartite_regular;
          Alcotest.test_case "planted colorable" `Quick test_planted_colorable;
          Alcotest.test_case "planted max degree" `Quick test_planted_max_degree;
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
          Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
          Alcotest.test_case "ball and sphere" `Quick test_ball_sphere;
          Alcotest.test_case "pairwise distance" `Quick test_distance_pairs;
          Alcotest.test_case "shortest path lex least" `Quick
            test_shortest_path_lex_least;
          Alcotest.test_case "shortest path length" `Quick
            test_shortest_path_is_shortest;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "bipartition" `Quick test_bipartition;
          Alcotest.test_case "growth" `Quick test_growth;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "greedy proper" `Quick test_greedy_proper;
          Alcotest.test_case "make greedy" `Quick test_make_greedy;
          Alcotest.test_case "distance coloring" `Quick test_distance_coloring;
          Alcotest.test_case "two color bipartite" `Quick test_two_color_bipartite;
          Alcotest.test_case "backtracking" `Quick test_backtracking;
          Alcotest.test_case "color classes" `Quick test_color_classes;
        ] );
      ( "ruling",
        [
          Alcotest.test_case "greedy MIS" `Quick test_greedy_mis;
          Alcotest.test_case "ruling set" `Quick test_ruling_set;
          Alcotest.test_case "ruling of candidates" `Quick
            test_ruling_set_of_candidates;
        ] );
      ( "orientation",
        [
          Alcotest.test_case "basic" `Quick test_orientation_basic;
          Alcotest.test_case "degrees" `Quick test_out_in_degree;
          Alcotest.test_case "euler covers" `Quick test_euler_partition_covers;
          Alcotest.test_case "euler odd degrees" `Quick
            test_euler_partition_odd_degrees;
          Alcotest.test_case "euler endpoints" `Quick
            test_euler_endpoint_multiplicity;
          Alcotest.test_case "trails balanced" `Quick test_of_trails_balanced;
          Alcotest.test_case "trails almost balanced" `Quick
            test_of_trails_almost_balanced;
          Alcotest.test_case "trail_through consistent" `Quick
            test_trail_through_consistent;
          Alcotest.test_case "out neighbors canonical" `Quick
            test_out_neighbors_canonical;
        ] );
      ( "containers",
        [
          Alcotest.test_case "bitset" `Quick test_bitset;
          Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
          Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
          Alcotest.test_case "prng permutation" `Quick test_prng_permutation;
        ] );
      ("properties", qcheck_cases);
    ]
