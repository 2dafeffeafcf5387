open Netgraph
module Balanced_orientation = Schemas.Balanced_orientation
module Edge_compression = Schemas.Edge_compression

type certification = { radius : int; checked : int; exhaustive : bool }

let fail fmt = Format.kasprintf invalid_arg fmt

let expected_labels g decoded =
  Array.init (Graph.n g) (fun v ->
      let nbrs = Graph.neighbors g v in
      String.init (Array.length nbrs) (fun i ->
          if Bitset.mem decoded (Graph.edge_id g v nbrs.(i)) then '1' else '0'))

let check_nodes g sample =
  let n = Graph.n g in
  if sample < 0 then fail "Pack.edge_compression: negative sample %d" sample;
  if sample = 0 || sample >= n then Array.init n (fun v -> v)
  else Array.init sample (fun i -> i * n / sample)

(* Geometric probe up, then binary search down; the returned radius is
   always one that was verified directly via [passes]. *)
let certify_radius ~passes ~max_radius ~checked =
  let rec up r = if passes r then r else if r >= max_radius then -1 else up (min (2 * r) max_radius) in
  let hi = up (min 2 max_radius) in
  if hi < 0 then
    fail
      "Pack.edge_compression: no radius up to %d serves all %d checked \
       nodes correctly"
      max_radius checked;
  let rec tighten lo hi =
    (* invariant: [passes hi] holds, [lo < hi] candidates remain *)
    if lo >= hi then hi
    else
      let mid = (lo + hi) / 2 in
      if passes mid then tighten lo mid else tighten (mid + 1) hi
  in
  tighten (max 2 ((hi / 2) + 1)) hi

(* The decoder's metadata: what a router built over the snapshot reads
   its parameters from, during certification and after. *)
let params_meta params =
  [
    ("schema", "edge_compression");
    ("params.short_threshold", string_of_int params.Balanced_orientation.short_threshold);
    ("params.cover", string_of_int params.Balanced_orientation.cover);
    ("params.spacing", string_of_int params.Balanced_orientation.spacing);
  ]

let certified_meta ~radius ~nodes g =
  [
    ("serve.radius", string_of_int radius);
    ( "serve.certified",
      if Array.length nodes = Graph.n g then "all"
      else Printf.sprintf "sample=%d" (Array.length nodes) );
  ]

(* The ball-class table (PAPER.md C2): one more pass at the certified
   radius keys every node's ball on the global graph, in node order, as
   a shard engine keys it, so their keys are equal byte for byte.  The
   pass counts classes up to the cap, so a random instance, where every
   ball is its own class, ends it early; otherwise one representative
   of every class that recurs is decoded, and the classes ship as one
   metadata entry. *)
module Classes = Hashtbl.Make (String)

type ball_class = { rep : int; mutable count : int }

let class_table g ~advice ~radius =
  let n = Graph.n g in
  let cap = max 256 (n / 64) in
  let ws = Workspace.domain_local () in
  let classes = Classes.create 256 in
  let v = ref 0 in
  while !v < n && Classes.length classes <= cap do
    ignore (Traversal.bfs_limited_into ws g !v radius);
    let key = Ethlink.Canonical.ball_key ws g ~advice in
    (match Classes.find_opt classes key with
    | Some c -> c.count <- c.count + 1
    | None -> Classes.add classes key { rep = !v; count = 1 });
    incr v
  done;
  let recurring =
    Classes.fold (fun key c acc -> if c.count > 1 then (c, key) :: acc else acc) classes []
  in
  if Classes.length classes > cap then
    ( "serve.table.none",
      Printf.sprintf "more than %d ball classes among the first %d nodes" cap !v )
  else if List.is_empty recurring then
    ( "serve.table.none",
      Printf.sprintf "no ball class recurs (%d classes over %d nodes)" (Classes.length classes) n )
  else begin
    let recurring = List.sort (fun (a, _) (b, _) -> Int.compare a.rep b.rep) recurring in
    let label c =
      ignore (Traversal.bfs_limited_into ws g c.rep radius);
      Center_decode.label ws g ~advice ~center:0
    in
    ( Memo.table_key,
      Memo.write_table
        ~covered:(List.fold_left (fun acc (c, _) -> acc + c.count) 0 recurring)
        (List.map (fun (c, key) -> (key, label c)) recurring) )
  end

(* Encode the advice and compute the direct decoder's expected labels. *)
let encode_for_pack ~params g x =
  if Bitset.length x <> Graph.m g then
    fail "Pack.edge_compression: edge set is over %d edges, graph has %d"
      (Bitset.length x) (Graph.m g);
  let assignment = Edge_compression.encode ~params g x in
  let expected = expected_labels g (Edge_compression.decode ~params g assignment) in
  (assignment, expected)

let edge_compression ?(sample = 0) ?domains g x =
  let params = Balanced_orientation.onebit_params in
  let nodes = check_nodes g sample in
  let assignment, expected = encode_for_pack ~params g x in
  let unserved =
    { Store.Snapshot.graph = g; advice = [ ("c4", assignment) ]; meta = params_meta params }
  in
  (* Each probe asks the router the server runs — one-shard container,
     shard engine, slots, pool — for the checked labels.  Certification
     runs on the *global* graph: the halo invariant then transfers the
     certified radius to every shard of any container later built from
     the snapshot. *)
  let store = Store.Shard.of_snapshot unserved in
  let queries = Array.map (fun v -> Engine.Output_label v) nodes in
  let passes r =
    let got = Router.batch (Router.create ~radius:r ?domains store) queries in
    Array.for_all2
      (fun v -> function Engine.Label s -> String.equal expected.(v) s | _ -> false)
      nodes got
  in
  let radius = certify_radius ~passes ~max_radius:(Graph.n g) ~checked:(Array.length nodes) in
  let meta =
    params_meta params @ certified_meta ~radius ~nodes g
    @ [ class_table g ~advice:assignment ~radius ]
  in
  ( { unserved with Store.Snapshot.meta = meta },
    {
      radius;
      checked = Array.length nodes;
      exhaustive = Array.length nodes = Graph.n g;
    } )
