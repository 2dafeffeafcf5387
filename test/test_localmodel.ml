(* Tests for the LOCAL model substrate: identifiers, views, the round
   simulator and the locality checker. *)

open Netgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Identifiers *)

(* One identifier per node, all distinct and positive. *)
let is_valid g (ids : Localmodel.Ids.t) =
  Array.length ids = Graph.n g
  && Array.for_all (fun id -> id > 0) ids
  &&
  let sorted = Array.copy ids in
  Array.sort Int.compare sorted;
  let distinct = ref true in
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i - 1) = sorted.(i) then distinct := false
  done;
  !distinct

let test_ids_identity () =
  let g = Builders.cycle 5 in
  let ids = Localmodel.Ids.identity g in
  check "valid" true (is_valid g ids);
  check_int "first" 1 ids.(0)

let test_ids_random () =
  let rng = Prng.create 3 in
  let g = Builders.cycle 30 in
  check "permutation valid" true
    (is_valid g (Localmodel.Ids.random_permutation rng g));
  let sparse = Localmodel.Ids.random_sparse rng g in
  check "sparse valid" true (is_valid g sparse);
  check "sparse uses big space" true (Array.exists (fun id -> id > 30) sparse)

let test_ids_rank () =
  let ranks = Localmodel.Ids.rank [| 50; 10; 30 |] in
  Alcotest.(check (array int)) "ranks" [| 2; 0; 1 |] ranks

let test_ids_invalid () =
  let g = Builders.cycle 3 in
  check "duplicate detected" false (is_valid g [| 1; 1; 2 |]);
  check "non-positive detected" false (is_valid g [| 0; 1; 2 |])

(* ------------------------------------------------------------------ *)
(* Views *)

let test_view_contents () =
  let g = Builders.cycle 8 in
  let ids = Localmodel.Ids.identity g in
  let view = Localmodel.View.make g ~ids ~radius:2 0 in
  check_int "five nodes" 5 (Graph.n view.Localmodel.View.graph);
  check_int "center distance" 0 view.Localmodel.View.dist.(view.Localmodel.View.center);
  check_int "center id" 1 view.Localmodel.View.ids.(view.Localmodel.View.center);
  (* Nodes 0, 1, 2, 6, 7 (ids v + 1) at their distances; id 5 is outside. *)
  let by_id =
    List.sort compare
      (Array.to_list
         (Array.mapi (fun i id -> (id, view.Localmodel.View.dist.(i))) view.Localmodel.View.ids))
  in
  check "ids and distances" true (by_id = [ (1, 0); (2, 1); (3, 2); (7, 2); (8, 1) ])

let test_view_advice_restriction () =
  let g = Builders.path 6 in
  let ids = Localmodel.Ids.identity g in
  let advice = [| "1"; ""; "01"; ""; ""; "1" |] in
  let view = Localmodel.View.make ~advice g ~ids ~radius:2 1 in
  let by_id =
    List.sort compare
      (Array.to_list
         (Array.mapi (fun i id -> (id, view.Localmodel.View.advice.(i))) view.Localmodel.View.ids))
  in
  check "advice carried" true (by_id = [ (1, "1"); (2, ""); (3, "01"); (4, "") ]);
  check_int "view is a path segment" 4 (Graph.n view.Localmodel.View.graph)

let test_map_nodes () =
  let g = Builders.cycle 10 in
  let ids = Localmodel.Ids.identity g in
  let degrees_within_2 =
    Localmodel.View.map_nodes g ~ids ~radius:2 (fun view ->
        Graph.n view.Localmodel.View.graph)
  in
  Array.iter (fun count -> check_int "cycle r=2 ball" 5 count) degrees_within_2

(* ------------------------------------------------------------------ *)
(* Rounds *)

let test_rounds_bfs_distance () =
  (* Distributed BFS from node 0: message = best distance known. *)
  let g = Builders.grid 4 4 in
  let alg =
    {
      Localmodel.Rounds.init =
        (fun v -> if v = 0 then (0, 0) else (max_int, max_int));
      step =
        (fun ~round:_ ~node:_ state received ->
          let best =
            Array.fold_left
              (fun acc m -> if m < max_int && m + 1 < acc then m + 1 else acc)
              state received
          in
          (best, best));
    }
  in
  let states = Localmodel.Rounds.run g ~rounds:8 alg in
  let expected = Traversal.bfs_distances g 0 in
  Array.iteri (fun v d -> check_int "distance" expected.(v) d) states

let test_rounds_halting () =
  let g = Builders.path 10 in
  let alg =
    {
      Localmodel.Rounds.init = (fun v -> if v = 0 then (true, true) else (false, false));
      step =
        (fun ~round:_ ~node:_ state received ->
          let s = state || Array.exists (fun m -> m) received in
          (s, s));
    }
  in
  let states, rounds =
    Localmodel.Rounds.run_until g ~max_rounds:50 ~halted:(fun s -> s) alg
  in
  check "all reached" true (Array.for_all (fun s -> s) states);
  check_int "rounds = eccentricity" 9 rounds

(* ------------------------------------------------------------------ *)
(* Locality checker *)

let test_locality_local_algorithm () =
  (* Degree computation is 1-local. *)
  let g = Builders.gnp (Prng.create 5) 40 0.1 in
  let ids = Localmodel.Ids.identity g in
  let advice = Array.make 40 "" in
  let decode g ~ids:_ ~advice:_ =
    Array.init (Graph.n g) (fun v -> Graph.degree g v)
  in
  check "degree is 1-local" true
    (Localmodel.Locality.stable_for_all g ~ids ~advice ~decode ~equal:( = )
       ~radius:1 ~samples:[ 0; 10; 39 ])

let test_locality_global_algorithm () =
  (* Counting nodes is not local. *)
  let g = Builders.cycle 50 in
  let ids = Localmodel.Ids.identity g in
  let advice = Array.make 50 "" in
  let decode g ~ids:_ ~advice:_ = Array.make (Graph.n g) (Graph.n g) in
  check "node count is not 3-local" false
    (Localmodel.Locality.stable_for_all g ~ids ~advice ~decode ~equal:( = ) ~radius:3
       ~samples:[ 0 ])

let test_measured_radius () =
  let g = Builders.cycle 60 in
  let ids = Localmodel.Ids.identity g in
  let advice = Array.make 60 "" in
  (* Max id within distance 2. *)
  let decode g ~ids ~advice:_ =
    Array.init (Graph.n g) (fun v ->
        List.fold_left (fun acc u -> max acc ids.(u)) 0 (Traversal.ball g v 2))
  in
  match
    Localmodel.Locality.measured_radius g ~ids ~advice ~decode ~equal:( = )
      ~max_radius:6 ~samples:[ 0; 20; 40 ]
  with
  | Some r -> check_int "measured locality" 2 r
  | None -> Alcotest.fail "should stabilize by radius 2"

let () =
  Alcotest.run "localmodel"
    [
      ( "ids",
        [
          Alcotest.test_case "identity" `Quick test_ids_identity;
          Alcotest.test_case "random" `Quick test_ids_random;
          Alcotest.test_case "rank" `Quick test_ids_rank;
          Alcotest.test_case "invalid" `Quick test_ids_invalid;
        ] );
      ( "views",
        [
          Alcotest.test_case "contents" `Quick test_view_contents;
          Alcotest.test_case "advice restriction" `Quick test_view_advice_restriction;
          Alcotest.test_case "map nodes" `Quick test_map_nodes;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "bfs" `Quick test_rounds_bfs_distance;
          Alcotest.test_case "halting" `Quick test_rounds_halting;
        ] );
      ( "locality",
        [
          Alcotest.test_case "local algorithm" `Quick test_locality_local_algorithm;
          Alcotest.test_case "global algorithm" `Quick test_locality_global_algorithm;
          Alcotest.test_case "measured radius" `Quick test_measured_radius;
        ] );
    ]
