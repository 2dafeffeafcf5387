type t = {
  n : int;
  adj : int array array;
  edges : (int * int) array;
  incident : int array array;
}

let normalize (u : int) v = if u < v then (u, v) else (v, u)

(* Lexicographic edge order, monomorphic so sorts never hit caml_compare. *)
let compare_edge (u1, v1) (u2, v2) =
  let c = Int.compare u1 u2 in
  if c <> 0 then c else Int.compare v1 v2

(* Index of [x] in a sorted int array, or -1. *)
let find_in_sorted (arr : int array) x =
  let lo = ref 0 and hi = ref (Array.length arr - 1) in
  let res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let y = arr.(mid) in
    if y = x then res := mid else if y < x then lo := mid + 1 else hi := mid - 1
  done;
  !res

(* Adjacency-aligned incident-edge ids: for every edge, locate each
   endpoint in the other's sorted neighbor array. *)
(* [edges] is lexicographic and every [adj.(v)] sorted, so scanning the
   edges in id order visits each node's adjacency positions in order:
   node [v] first sees the edges [(w, v)] with [w < v] in increasing [w]
   (the prefix of [adj.(v)]), then the edges [(v, u)] in increasing [u]
   (the suffix) — one cursor per node, no searches. *)
let incident_of_adj adj edges =
  let incident = Array.map (fun nb -> Array.make (Array.length nb) 0) adj in
  let cursor = Array.make (Array.length adj) 0 in
  Array.iteri
    (fun e (u, v) ->
      incident.(u).(cursor.(u)) <- e;
      cursor.(u) <- cursor.(u) + 1;
      incident.(v).(cursor.(v)) <- e;
      cursor.(v) <- cursor.(v) + 1)
    edges;
  incident

let of_edges ~n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  (* Construction-time dedup, not per-node work: exempt from hot-alloc. *)
  let[@advicelint.allow "hot-alloc"] seen = Hashtbl.create (List.length edge_list) in
  let add_edge (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.of_edges: endpoint out of range";
    if u = v then invalid_arg "Graph.of_edges: self-loop";
    let e = normalize u v in
    if not (Hashtbl.mem seen e) then Hashtbl.replace seen e ()
  in
  List.iter add_edge edge_list;
  let edges = Array.make (Hashtbl.length seen) (0, 0) in
  let i = ref 0 in
  Hashtbl.iter (fun e () -> edges.(!i) <- e; incr i) seen;
  Array.sort compare_edge edges;
  let deg = Array.make n 0 in
  Array.iter (fun (u, v) -> deg.(u) <- deg.(u) + 1; deg.(v) <- deg.(v) + 1) edges;
  let adj = Array.init n (fun v -> Array.make deg.(v) 0) in
  let fill = Array.make n 0 in
  Array.iter
    (fun (u, v) ->
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    edges;
  Array.iter (fun nb -> Array.sort Int.compare nb) adj;
  { n; adj; edges; incident = incident_of_adj adj edges }

let n g = g.n
let m g = Array.length g.edges
let degree g v = Array.length g.adj.(v)
let neighbors g v = g.adj.(v)

let max_degree g =
  Array.fold_left (fun acc nb -> max acc (Array.length nb)) 0 g.adj

(* Membership and edge ids by binary search in the sorted neighbor array of
   the lower-degree endpoint: O(log min-degree), no hashing. *)
let is_edge g u v =
  u <> v
  &&
  let a, b =
    if Array.length g.adj.(u) <= Array.length g.adj.(v) then (u, v) else (v, u)
  in
  find_in_sorted g.adj.(a) b >= 0

let edge_id g u v =
  if u = v then raise Not_found;
  let a, b =
    if Array.length g.adj.(u) <= Array.length g.adj.(v) then (u, v) else (v, u)
  in
  let i = find_in_sorted g.adj.(a) b in
  if i < 0 then raise Not_found else g.incident.(a).(i)

let edge_endpoints g e = g.edges.(e)
let incident_edges g v = g.incident.(v)

let edge_other_endpoint g e v =
  let u, w = g.edges.(e) in
  if v = u then w
  else if v = w then u
  else invalid_arg "Graph.edge_other_endpoint: node not on edge"

let iter_edges f g = Array.iteri f g.edges

let fold_edges f g init =
  let acc = ref init in
  Array.iteri (fun id e -> acc := f id e !acc) g.edges;
  !acc

let iter_nodes f g =
  for v = 0 to g.n - 1 do
    f v
  done

let fold_nodes f g init =
  let acc = ref init in
  iter_nodes (fun v -> acc := f v !acc) g;
  !acc

let edges g = g.edges

(* Monomorphic sort for adjacency arrays.  Balls on the serve path are
   degree-bounded, so an in-place insertion sort with direct int
   comparisons beats the generic closure-compare [Array.sort]; long
   arrays (a star's hub) fall back to it so the worst case stays
   O(d log d). *)
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

(* A graph on already-sorted adjacency arrays: emitting each [(i, j)]
   with [i < j] in node order yields the lexicographic edge array, so
   the canonical invariants of {!of_edges} hold without a sort or a
   dedup table. *)
let of_sorted_adj adj =
  let n = Array.length adj in
  let sub_m = Array.fold_left (fun acc nb -> acc + Array.length nb) 0 adj / 2 in
  let edges = Array.make sub_m (0, 0) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let nb = adj.(i) in
    for k = 0 to Array.length nb - 1 do
      if i < nb.(k) then begin
        edges.(!next) <- (i, nb.(k));
        incr next
      end
    done
  done;
  { n; adj; edges; incident = incident_of_adj adj edges }

(* The subgraph induced by the node set stamped in [ws].  Stamped node
   [i] (insertion order) becomes sub node [relabel.(i)], or [i] itself
   without a relabelling.  Only the members' own adjacency lists are
   scanned, so the cost is O(ball nodes + ball edges) plus the sort of
   each sub adjacency array — never O(n) or O(m) of the host graph. *)
let ball_graph g ws relabel =
  let count = Workspace.size ws in
  let queue = ws.Workspace.queue and sub = ws.Workspace.sub in
  let stamp = ws.Workspace.stamp and epoch = ws.Workspace.epoch in
  let adj = Array.make count [||] in
  for i = 0 to count - 1 do
    let nb = g.adj.(queue.(i)) in
    let d = ref 0 in
    for k = 0 to Array.length nb - 1 do
      if stamp.(nb.(k)) = epoch then incr d
    done;
    let a = Array.make !d 0 in
    let fill = ref 0 in
    for k = 0 to Array.length nb - 1 do
      let u = nb.(k) in
      if stamp.(u) = epoch then begin
        let s = sub.(u) in
        a.(!fill) <- (match relabel with None -> s | Some r -> r.(s));
        incr fill
      end
    done;
    (* Neighbors arrive sorted by original id, not by sub id. *)
    sort_ints a;
    adj.(match relabel with None -> i | Some r -> r.(i)) <- a
  done;
  of_sorted_adj adj

let induced_ball g ws =
  (ball_graph g ws None, Array.sub ws.Workspace.queue 0 (Workspace.size ws))

let induced_ball_ranked g ws ~rank =
  if Array.length rank <> Workspace.size ws then
    invalid_arg "Graph.induced_ball_ranked: rank length differs from the ball size";
  ball_graph g ws (Some rank)

let induced g nodes =
  let ws = Workspace.domain_local () in
  Workspace.ensure ws g.n;
  Workspace.reset ws;
  List.iter (fun v -> if not (Workspace.mem ws v) then Workspace.add ws v ~dist:0)
    nodes;
  let sub, to_orig = induced_ball g ws in
  let to_sub = Array.make g.n (-1) in
  Array.iteri (fun i v -> to_sub.(v) <- i) to_orig;
  (sub, to_sub, to_orig)

(* Induced subgraph on a strictly increasing id array, numbering sub
   nodes by array position.  The monotone numbering is what makes this
   cheap: each member's sorted neighbor array maps to a sorted local
   array and the lexicographic edge order is preserved, so nothing is
   re-sorted.  Global→local translation is an offset-indexed rank array
   over the ids' span [ids.(0) .. ids.(count-1)] — O(1) membership with
   scratch proportional to the span, which for locality-friendly id
   sets (a shard's interior range plus its halo) is barely more than
   [count], and never exceeds the old O(n) map. *)
let induced_sorted g ids =
  let count = Array.length ids in
  if count = 0 then { n = 0; adj = [||]; edges = [||]; incident = [||] }
  else begin
    Array.iteri
      (fun i v ->
        if v < 0 || v >= g.n then
          invalid_arg "Graph.induced_sorted: node id out of range";
        if i > 0 && ids.(i - 1) >= v then
          invalid_arg "Graph.induced_sorted: ids not strictly increasing")
      ids;
    let base = ids.(0) in
    let span = ids.(count - 1) - base + 1 in
    let rank = Array.make span (-1) in
    Array.iteri (fun i v -> rank.(v - base) <- i) ids;
    let local u =
      if u < base || u - base >= span then -1 else rank.(u - base)
    in
    let adj =
      Array.init count (fun i ->
          let nb = g.adj.(ids.(i)) in
          let d = ref 0 in
          Array.iter (fun u -> if local u >= 0 then incr d) nb;
          let out = Array.make !d 0 in
          let fill = ref 0 in
          Array.iter
            (fun u ->
              let j = local u in
              if j >= 0 then begin
                out.(!fill) <- j;
                incr fill
              end)
            nb;
          out)
    in
    of_sorted_adj adj
  end

let remove_nodes g removed =
  let kept = fold_nodes (fun v acc -> if Bitset.mem removed v then acc else v :: acc) g [] in
  induced g (List.rev kept)

let power g k =
  if k < 1 then invalid_arg "Graph.power";
  (* BFS from each node up to depth k. *)
  let dist = Array.make g.n (-1) in
  let queue = Queue.create () in
  let edge_acc = ref [] in
  for s = 0 to g.n - 1 do
    Queue.clear queue;
    dist.(s) <- 0;
    Queue.add s queue;
    let touched = ref [ s ] in
    while not (Queue.is_empty queue) do
      let v = Queue.take queue in
      if dist.(v) < k then
        Array.iter
          (fun u ->
            if dist.(u) < 0 then begin
              dist.(u) <- dist.(v) + 1;
              touched := u :: !touched;
              Queue.add u queue
            end)
          g.adj.(v)
    done;
    (* Collect pairs at distance in [1, k] with s < other endpoint. *)
    List.iter
      (fun v ->
        if v > s && dist.(v) >= 1 then edge_acc := (s, v) :: !edge_acc;
        dist.(v) <- -1)
      !touched
  done;
  of_edges ~n:g.n !edge_acc

let line_graph g =
  let acc = ref [] in
  iter_nodes
    (fun v ->
      let inc = g.incident.(v) in
      for i = 0 to Array.length inc - 1 do
        for j = i + 1 to Array.length inc - 1 do
          acc := (inc.(i), inc.(j)) :: !acc
        done
      done)
    g;
  of_edges ~n:(m g) !acc

let is_connected g =
  if g.n = 0 then true
  else begin
    let seen = Bitset.create g.n in
    let queue = Queue.create () in
    Bitset.add seen 0;
    Queue.add 0 queue;
    let count = ref 1 in
    while not (Queue.is_empty queue) do
      let v = Queue.take queue in
      Array.iter
        (fun u ->
          if not (Bitset.mem seen u) then begin
            Bitset.add seen u;
            incr count;
            Queue.add u queue
          end)
        g.adj.(v)
    done;
    !count = g.n
  end

let equal a b =
  a.n = b.n
  && Array.length a.edges = Array.length b.edges
  && begin
       let ok = ref true in
       Array.iteri
         (fun i (u, v) ->
           let u', v' = b.edges.(i) in
           if u <> u' || v <> v' then ok := false)
         a.edges;
       !ok
     end

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d@," g.n (m g);
  iter_edges (fun _ (u, v) -> Format.fprintf fmt "%d -- %d@," u v) g;
  Format.fprintf fmt "@]"
