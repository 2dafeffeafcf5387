(* Workspace reuse semantics: epoch rollover, interleaved BFS calls on a
   shared workspace, and byte-equality of the parallel LOCAL simulator
   against the sequential one under approved (pure) closures. *)

open Netgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Epoch rollover *)

let test_rollover () =
  let ws = Workspace.create ~capacity:8 () in
  Workspace.reset ws;
  Workspace.add ws 3 ~dist:0;
  check "member before wrap" true (Workspace.mem ws 3);
  (* Force the wrap at the 32-bit epoch limit: stamp a node at the
     largest base a set of this 8-node mark may start from, then reset.
     If reset only moved the base, the next set's entries would pass
     2^31 - 1 and read back negative, as non-members — and on a later
     lap reuse entry values, resurrecting ghost members. *)
  ws.Workspace.base <- 0x7FFF_FFFF - 8 - 1;
  Workspace.add ws 5 ~dist:1;
  check "member at max base" true (Workspace.mem ws 5);
  check_int "stamp index read back at max base" 1 (Workspace.sub_index ws 5);
  Workspace.reset ws;
  check_int "base restarts at 0" 0 ws.Workspace.base;
  check_int "set is empty" 0 (Workspace.size ws);
  check "no ghost from epoch 0 stamp" false (Workspace.mem ws 3);
  check "no ghost from max base stamp" false (Workspace.mem ws 5);
  Workspace.add ws 2 ~dist:0;
  check "usable after wrap" true (Workspace.mem ws 2);
  check_int "dist survives wrap" 0 (Workspace.dist ws 2)

let test_reset_is_oblivious () =
  (* A normal reset forgets everything but costs no array traffic: the
     same cells answer differently across epochs. *)
  let ws = Workspace.create ~capacity:4 () in
  Workspace.reset ws;
  Workspace.add ws 0 ~dist:7;
  Workspace.add ws 1 ~dist:9;
  check_int "two members" 2 (Workspace.size ws);
  Workspace.reset ws;
  check_int "empty again" 0 (Workspace.size ws);
  check "first member gone" false (Workspace.mem ws 0);
  check "second member gone" false (Workspace.mem ws 1)

(* ------------------------------------------------------------------ *)
(* Scratch sizes *)

(* After balls of several radii on a 65,536-node cycle, the only array
   as long as the graph is the mark, one 32-bit entry a node; the
   stamp-indexed queue and distances have grown to the largest ball, at
   most twice over. *)
let test_scratch_sizes () =
  let n = 65_536 in
  let g = Builders.cycle n in
  let ws = Workspace.create () in
  let largest =
    List.fold_left
      (fun acc (v, r) -> max acc (Traversal.bfs_limited_into ws g v r))
      0
      [ (0, 41); (n / 2, 3); (n - 1, 41); (12_345, 20) ]
  in
  check_int "largest ball" 83 largest;
  check_int "one host-indexed mark of 4n bytes" (4 * n) (Bytes.length ws.Workspace.mark);
  List.iter
    (fun (what, a) ->
      check (what ^ " holds the largest ball, at most twice over") true
        (Array.length a >= largest && Array.length a <= 2 * largest))
    [ ("queue", ws.Workspace.queue); ("dist", ws.Workspace.dist) ]

(* The readers of a stamped ball read the mark unchecked at every
   neighbor id, so each refuses a workspace whose mark does not cover
   its graph instead of reading past it: here a 4-node mark stamped
   with nodes 0..3 of an 8-cycle, whose node 3 neighbors node 4. *)
let test_short_mark_refused () =
  let g = Builders.cycle 8 in
  let ws = Workspace.create ~capacity:4 () in
  Workspace.reset ws;
  for v = 0 to 3 do
    Workspace.add ws v ~dist:v
  done;
  let advice = Array.make 8 "1" in
  let refused what f =
    match f () with
    | _ -> Alcotest.failf "%s read a mark shorter than its graph" what
    | exception Invalid_argument _ -> ()
  in
  refused "Graph.induced_ball" (fun () -> ignore (Graph.induced_ball g ws));
  refused "Canonical.ball_key" (fun () -> ignore (Ethlink.Canonical.ball_key ws g ~advice));
  refused "Center_decode.label" (fun () ->
      ignore (Serve.Center_decode.label ws g ~advice ~center:0))

(* ------------------------------------------------------------------ *)
(* Interleaved BFS runs sharing one workspace *)

let collect ws g s r =
  let k = Traversal.bfs_limited_into ws g s r in
  List.init k (fun i ->
      let v = Workspace.node_at ws i in
      (v, Workspace.dist ws v))

let test_interleaved_bfs () =
  let g = Builders.grid 7 9 in
  let ws = Workspace.create () in
  let a1 = collect ws g 0 3 in
  let b1 = collect ws g 37 2 in
  let a2 = collect ws g 0 3 in
  check "repeat run unchanged by interleaving" true (a1 = a2);
  let fresh = Workspace.create () in
  check "shared ws = fresh ws" true (b1 = collect fresh g 37 2);
  check "matches wrapper from cold start" true
    (a1 = Traversal.bfs_limited g 0 3);
  check "second source matches wrapper" true
    (b1 = Traversal.bfs_limited g 37 2)

(* ------------------------------------------------------------------ *)
(* Parallel simulation is byte-equal to sequential *)

let families =
  [
    ("cycle", fun _rng -> Builders.cycle 97);
    ("grid", fun _rng -> Builders.grid 8 11);
    ("random-regular", fun rng -> Builders.random_regular rng 120 3);
  ]

let digest_view (view : Localmodel.View.t) =
  (* Touch every field so a divergence anywhere in the extracted ball
     shows up in the marshaled bytes. *)
  ( view.Localmodel.View.center,
    Array.copy view.Localmodel.View.ids,
    Array.copy view.Localmodel.View.dist,
    Array.copy view.Localmodel.View.to_global )

let par_equals_seq =
  QCheck.Test.make ~count:30 ~name:"map_nodes_par byte-equal to map_nodes"
    QCheck.(triple (int_bound 2) (int_bound 1_000_000) (int_bound 2))
    (fun (family, seed, radius) ->
      let _, build = List.nth families family in
      let rng = Prng.create seed in
      let g = build rng in
      let ids = Localmodel.Ids.random_permutation rng g in
      let seq = Localmodel.View.map_nodes g ~ids ~radius digest_view in
      let par =
        Localmodel.View.map_nodes_par ~domains:3 g ~ids ~radius digest_view
      in
      Marshal.to_string seq [] = Marshal.to_string par [])

let () =
  Alcotest.run "workspace"
    [
      ( "epochs",
        [
          Alcotest.test_case "rollover at the 32-bit epoch limit" `Quick test_rollover;
          Alcotest.test_case "O(1) reset semantics" `Quick
            test_reset_is_oblivious;
        ] );
      ( "sizes",
        [
          Alcotest.test_case "mark is 4n bytes, the rest the ball" `Quick test_scratch_sizes;
          Alcotest.test_case "a mark shorter than the graph is refused" `Quick
            test_short_mark_refused;
        ]
      );
      ( "interleaving",
        [ Alcotest.test_case "shared workspace" `Quick test_interleaved_bfs ]
      );
      ( "parallel",
        [ QCheck_alcotest.to_alcotest par_equals_seq ] );
    ]
