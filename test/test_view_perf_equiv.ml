(* Equivalence tests for the workspace-based LOCAL-simulation hot path.

   The performance core (Workspace + bfs_limited_into + induced_ball +
   View.map_nodes_par) must be observationally identical to the seed
   implementation it replaced.  Reference copies of the seed algorithms
   (Hashtbl BFS; induced extraction folding over all m edges) are kept
   here and compared against the library on a seeded battery of random
   graphs, cycles and grids. *)

open Netgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Reference (seed) implementations *)

let ref_bfs_limited g s r =
  let dist = Hashtbl.create 64 in
  let queue = Queue.create () in
  Hashtbl.replace dist s 0;
  Queue.add s queue;
  let order = ref [ (s, 0) ] in
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    let dv = Hashtbl.find dist v in
    if dv < r then
      Array.iter
        (fun u ->
          if not (Hashtbl.mem dist u) then begin
            Hashtbl.replace dist u (dv + 1);
            order := (u, dv + 1) :: !order;
            Queue.add u queue
          end)
        (Graph.neighbors g v)
  done;
  List.rev !order

let ref_induced g nodes =
  let to_sub = Array.make (Graph.n g) (-1) in
  let count = ref 0 in
  List.iter
    (fun v ->
      if to_sub.(v) < 0 then begin
        to_sub.(v) <- !count;
        incr count
      end)
    nodes;
  let to_orig = Array.make !count 0 in
  Array.iteri (fun v i -> if i >= 0 then to_orig.(i) <- v) to_sub;
  let sub_edges =
    Graph.fold_edges
      (fun _ (u, v) acc ->
        if to_sub.(u) >= 0 && to_sub.(v) >= 0 then
          (to_sub.(u), to_sub.(v)) :: acc
        else acc)
      g []
  in
  (Graph.of_edges ~n:!count sub_edges, to_sub, to_orig)

(* ------------------------------------------------------------------ *)
(* Graph battery: deterministic and seeded-random families *)

let battery =
  [
    ("cycle-17", Builders.cycle 17);
    ("cycle-64", Builders.cycle 64);
    ("path-10", Builders.path 10);
    ("grid-7x9", Builders.grid 7 9);
    ("tree-40", Builders.random_tree (Prng.create 11) 40);
    ("gnp-60", Builders.gnp (Prng.create 12) 60 0.06);
    ("gnp-dense-30", Builders.gnp (Prng.create 13) 30 0.25);
    ("rr4-80", Builders.random_regular (Prng.create 14) 80 4);
    ("disconnected", Builders.disjoint_union (Builders.cycle 9) (Builders.grid 3 4));
  ]

let radii = [ 0; 1; 2; 3; 4 ]

let sample_nodes g =
  let n = Graph.n g in
  List.sort_uniq compare [ 0; 1 mod n; n / 3; n / 2; n - 1 ]

(* ------------------------------------------------------------------ *)

let test_bfs_limited_into_matches () =
  List.iter
    (fun (name, g) ->
      let ws = Workspace.create () in
      List.iter
        (fun r ->
          List.iter
            (fun s ->
              let expected = ref_bfs_limited g s r in
              let count = Traversal.bfs_limited_into ws g s r in
              let got =
                List.init count (fun i ->
                    let v = Workspace.node_at ws i in
                    (v, Workspace.dist ws v))
              in
              check (Printf.sprintf "%s s=%d r=%d order+dist" name s r) true
                (expected = got);
              (* The wrapper must agree as well. *)
              check (Printf.sprintf "%s s=%d r=%d wrapper" name s r) true
                (expected = Traversal.bfs_limited g s r);
              (* sub_index is the BFS rank. *)
              List.iteri
                (fun i (v, _) ->
                  check_int "sub index = rank" i (Workspace.sub_index ws v))
                got)
            (sample_nodes g))
        radii)
    battery

let graphs_equal a b =
  Graph.equal a b
  && Graph.fold_nodes
       (fun v acc ->
         acc
         && Graph.neighbors a v = Graph.neighbors b v
         && Graph.incident_edges a v = Graph.incident_edges b v)
       a true

let test_induced_ball_matches () =
  List.iter
    (fun (name, g) ->
      let ws = Workspace.create () in
      List.iter
        (fun r ->
          List.iter
            (fun s ->
              let ball = List.map fst (ref_bfs_limited g s r) in
              let exp_sub, exp_to_sub, exp_to_orig = ref_induced g ball in
              ignore (Traversal.bfs_limited_into ws g s r);
              let sub, to_orig = Graph.induced_ball g ws in
              check (Printf.sprintf "%s s=%d r=%d graph" name s r) true
                (graphs_equal exp_sub sub);
              check (Printf.sprintf "%s s=%d r=%d to_orig" name s r) true
                (exp_to_orig = to_orig);
              Array.iteri
                (fun i v ->
                  check_int "to_sub agrees" exp_to_sub.(v)
                    (Workspace.sub_index ws v);
                  ignore i)
                to_orig;
              (* Graph.induced must also match its seed behavior. *)
              let sub', to_sub', to_orig' = Graph.induced g ball in
              check "induced graph" true (graphs_equal exp_sub sub');
              check "induced to_sub" true (exp_to_sub = to_sub');
              check "induced to_orig" true (exp_to_orig = to_orig'))
            (sample_nodes g))
        radii)
    battery

let view_fingerprint (view : Localmodel.View.t) =
  ( view.Localmodel.View.radius,
    view.Localmodel.View.center,
    Array.to_list (Graph.edges view.Localmodel.View.graph),
    Array.to_list view.Localmodel.View.ids,
    Array.to_list view.Localmodel.View.dist,
    Array.to_list view.Localmodel.View.advice,
    Array.to_list view.Localmodel.View.input,
    Array.to_list view.Localmodel.View.to_global )

let test_map_nodes_par_identical () =
  let rng = Prng.create 99 in
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let ids = Localmodel.Ids.random_sparse rng g in
      let advice =
        Array.init n (fun v -> if v mod 3 = 0 then "1" else "0")
      in
      let input = Array.init n (fun v -> (v * 7) mod 5) in
      List.iter
        (fun radius ->
          let seq =
            Localmodel.View.map_nodes ~advice ~input g ~ids ~radius
              view_fingerprint
          in
          List.iter
            (fun domains ->
              let par =
                Localmodel.View.map_nodes_par ~domains ~advice ~input g ~ids
                  ~radius view_fingerprint
              in
              check
                (Printf.sprintf "%s r=%d d=%d par = seq" name radius domains)
                true (seq = par))
            [ 2; 3; 4 ])
        [ 0; 1; 2; 3 ])
    battery

(* A chunk's exception stops only that chunk: the sweep raises once every
   chunk has run to its end or its first exception, and it raises the
   lowest node's. *)
exception Node_failed of int

let test_map_nodes_par_failure () =
  let n = 4_000 in
  let g = Builders.cycle n in
  let ids = Localmodel.Ids.identity g in
  let calls = Atomic.make 0 in
  let f (view : Localmodel.View.t) =
    Atomic.incr calls;
    let v = view.Localmodel.View.to_global.(view.Localmodel.View.center) in
    if v = 0 || v = n - 1 then raise (Node_failed v);
    v
  in
  (match Localmodel.View.map_nodes_par ~domains:4 g ~ids ~radius:2 f with
  | _ -> Alcotest.fail "a raising f did not fail the sweep"
  | exception Node_failed v -> check_int "node 0's exception" 0 v);
  (* The first chunk stops at node 0; every other chunk runs to its end,
     the last one raising at node n - 1. *)
  let d = min (Localmodel.Pool.effective_domains ~requested:4 ()) n in
  check_int "every chunk ran before the raise" (1 + n - (n / d)) (Atomic.get calls)

let test_with_advice_matches_remake () =
  let g = Builders.gnp (Prng.create 21) 50 0.08 in
  let ids = Localmodel.Ids.identity g in
  let skeletons = Localmodel.View.map_nodes g ~ids ~radius:2 (fun v -> v) in
  let advice = Array.init 50 (fun v -> if v mod 2 = 0 then "10" else "0") in
  let remade =
    Localmodel.View.map_nodes ~advice g ~ids ~radius:2 view_fingerprint
  in
  let projected =
    Array.map
      (fun view -> view_fingerprint (Localmodel.View.with_advice view advice))
      skeletons
  in
  check "with_advice = re-extraction" true (remade = projected)

let test_workspace_epoch_reuse () =
  (* Reusing one workspace across many extractions must not leak state
     between epochs. *)
  let ws = Workspace.create ~capacity:4 () in
  let g1 = Builders.cycle 20 in
  let g2 = Builders.grid 5 5 in
  let c1 = Traversal.bfs_limited_into ws g1 0 2 in
  check_int "cycle ball" 5 c1;
  let c2 = Traversal.bfs_limited_into ws g2 12 1 in
  check_int "grid ball" 5 c2;
  check "old member evicted by reset" false
    (Workspace.mem ws 19 && Workspace.dist ws 19 = 2);
  let c3 = Traversal.bfs_limited_into ws g1 0 0 in
  check_int "radius 0" 1 c3;
  check "only the center" true
    (Workspace.mem ws 0 && not (Workspace.mem ws 1))

let () =
  Alcotest.run "view-perf-equiv"
    [
      ( "traversal",
        [
          Alcotest.test_case "bfs_limited_into = seed bfs_limited" `Quick
            test_bfs_limited_into_matches;
          Alcotest.test_case "workspace epoch reuse" `Quick
            test_workspace_epoch_reuse;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "induced_ball = seed induced" `Quick
            test_induced_ball_matches;
        ] );
      ( "views",
        [
          Alcotest.test_case "map_nodes_par = map_nodes" `Quick
            test_map_nodes_par_identical;
          Alcotest.test_case "map_nodes_par raises after every chunk" `Quick
            test_map_nodes_par_failure;
          Alcotest.test_case "with_advice = re-extraction" `Quick
            test_with_advice_matches_remake;
        ] );
    ]
