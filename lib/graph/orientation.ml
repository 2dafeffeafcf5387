type t = {
  g : Graph.t;
  forward : Bitset.t; (* per edge id: oriented low -> high endpoint *)
}

let create g = { g; forward = Bitset.of_list (Graph.m g) (List.init (Graph.m g) (fun i -> i)) }

let copy o = { g = o.g; forward = Bitset.copy o.forward }

let graph o = o.g

let points_from o u v =
  let e = Graph.edge_id o.g u v in
  let lo, _ = Graph.edge_endpoints o.g e in
  if Bitset.mem o.forward e then u = lo else v = lo

let orient o u v =
  let e = Graph.edge_id o.g u v in
  let lo, _ = Graph.edge_endpoints o.g e in
  Bitset.set o.forward e (u = lo)

let flip o e = Bitset.set o.forward e (not (Bitset.mem o.forward e))

let out_degree o v =
  Array.fold_left
    (fun acc u -> if points_from o v u then acc + 1 else acc)
    0 (Graph.neighbors o.g v)

let in_degree o v = Graph.degree o.g v - out_degree o v

let out_neighbors o v =
  Array.of_list
    (List.filter (fun u -> points_from o v u) (Array.to_list (Graph.neighbors o.g v)))

let imbalance o v = abs (in_degree o v - out_degree o v)

let max_imbalance o =
  Graph.fold_nodes (fun v acc -> Int.max acc (imbalance o v)) o.g 0

let is_balanced o =
  Graph.fold_nodes (fun v acc -> acc && imbalance o v = 0) o.g true

let is_almost_balanced o =
  Graph.fold_nodes (fun v acc -> acc && imbalance o v <= 1) o.g true

type trail = {
  nodes : int array;
  edges : int array;
  closed : bool;
}

let trail_length t = Array.length t.edges

(* Canonical edge pairing around each node: consecutive incident edges in
   sorted-neighbor order are partners; an odd-degree node leaves its last
   incident edge unpaired. *)
let partner_map g =
  let partner = Hashtbl.create (2 * Graph.m g) in
  Graph.iter_nodes
    (fun v ->
      let inc = Graph.incident_edges g v in
      let len = Array.length inc in
      let pairs = len / 2 in
      for i = 0 to pairs - 1 do
        Hashtbl.replace partner (v, inc.(2 * i)) inc.((2 * i) + 1);
        Hashtbl.replace partner (v, inc.((2 * i) + 1)) inc.(2 * i)
      done)
    g;
  partner

(* Walk from node [v0] along edge [e0], following partners, until the trail
   ends (no partner) or closes (partner already used).  Marks edges used. *)
let walk g partner used v0 e0 =
  let nodes = ref [ v0 ] and edges = ref [] in
  let rec go v e =
    Bitset.add used e;
    edges := e :: !edges;
    let u = Graph.edge_other_endpoint g e v in
    nodes := u :: !nodes;
    match Hashtbl.find_opt partner (u, e) with
    | None -> false (* open end *)
    | Some p -> if Bitset.mem used p then true (* closed: p = e0 *) else go u p
  in
  let closed = go v0 e0 in
  (Array.of_list (List.rev !nodes), Array.of_list (List.rev !edges), closed)

let normalize_open (nodes : int array) edges =
  let last = Array.length nodes - 1 in
  if nodes.(0) <= nodes.(last) then (nodes, edges)
  else begin
    let nodes' = Array.of_list (List.rev (Array.to_list nodes)) in
    let edges' = Array.of_list (List.rev (Array.to_list edges)) in
    (nodes', edges')
  end

(* Rotate a closed trail so it starts with its minimal edge id, traversed
   from that edge's lower-id endpoint on the trail. *)
let normalize_closed (nodes : int array) (edges : int array) =
  let len = Array.length edges in
  (* nodes.(len) = nodes.(0); index both cyclically modulo len. *)
  let node i = nodes.(((i mod len) + len) mod len) in
  let edge i = edges.(((i mod len) + len) mod len) in
  let p = ref 0 in
  for i = 1 to len - 1 do
    if edges.(i) < edges.(!p) then p := i
  done;
  let p = !p in
  if node p <= node (p + 1) then
    ( Array.init (len + 1) (fun i -> node (p + i)),
      Array.init len (fun i -> edge (p + i)) )
  else
    ( Array.init (len + 1) (fun i -> node (p + 1 - i)),
      Array.init len (fun i -> edge (p - i)) )

let euler_partition g =
  let partner = partner_map g in
  let used = Bitset.create (Graph.m g) in
  let trails = ref [] in
  (* Open trails start at the unpaired incident edge of odd-degree nodes. *)
  Graph.iter_nodes
    (fun v ->
      let inc = Graph.incident_edges g v in
      let len = Array.length inc in
      if len mod 2 = 1 then begin
        let e = inc.(len - 1) in
        if not (Bitset.mem used e) then begin
          let nodes, edges, closed = walk g partner used v e in
          assert (not closed);
          let nodes, edges = normalize_open nodes edges in
          trails := { nodes; edges; closed = false } :: !trails
        end
      end)
    g;
  (* Remaining edges form closed trails; scanning edges in increasing id
     means each closed trail is discovered at its minimal edge id. *)
  Graph.iter_edges
    (fun e (a, _) ->
      if not (Bitset.mem used e) then begin
        let nodes, edges, closed = walk g partner used a e in
        assert closed;
        let nodes, edges = normalize_closed nodes edges in
        trails := { nodes; edges; closed = true } :: !trails
      end)
    g;
  List.rev !trails

let trail_through g v e =
  let lo, hi = Graph.edge_endpoints g e in
  if v <> lo && v <> hi then invalid_arg "Orientation.trail_through: node not on edge";
  match
    List.find_opt
      (fun t -> Array.exists (fun e' -> e' = e) t.edges)
      (euler_partition g)
  with
  | Some t -> t
  | None ->
      (* euler_partition covers every edge, so this is unreachable for a
         well-formed graph; give the caller context instead of aborting. *)
      invalid_arg
        (Printf.sprintf
           "Orientation.trail_through: edge %d not on any Euler trail" e)

let orient_trail o trail ~forward =
  let len = Array.length trail.edges in
  for i = 0 to len - 1 do
    let a = trail.nodes.(i) and b = trail.nodes.(i + 1) in
    let e = trail.edges.(i) in
    let lo, _ = Graph.edge_endpoints o.g e in
    let from = if forward then a else b in
    Bitset.set o.forward e (from = lo)
  done

let of_trails g choose =
  let o = create g in
  List.iter (fun t -> orient_trail o t ~forward:(choose t)) (euler_partition g);
  o

let random rng g =
  let o = create g in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then flip o e) g;
  o
