type t = {
  n : int;
  adj : int array array;
  edges : (int * int) array;
  incident : int array array;
}

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

(* A graph on strictly increasing, symmetric adjacency arrays (the
   arrays become the graph's), in one pass in node order: node [u]
   numbers its edges to the neighbors above it, so edge ids come out
   lexicographic without a sort or a dedup table.  Its lower neighbors
   [w < u] numbered theirs earlier, in increasing [w], so they filled
   the first [lower.(u)] slots of [u]'s incident array, which are
   exactly the slots of [adj.(u)] below [u].  Every constructor ends
   here. *)
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

(* [of_sorted_adj] over adjacency from outside the library (a snapshot's
   graph section), checked in one pass in node order.  Each array must
   be strictly increasing, in range and loop-free.  Symmetry needs no
   search or table: visiting nodes in increasing order reaches each
   node's lower neighbors in increasing order (the argument behind
   [of_sorted_adj]'s numbering), so when [u] lists [v > u], [u] must be
   the next unmatched entry of [adj.(v)], tracked by a cursor per node.
   A closing pass checks that every cursor has consumed its node's
   whole lower prefix. *)
let of_adjacency adj =
  let n = Array.length adj in
  let bad fmt = Printf.ksprintf invalid_arg ("Graph.of_adjacency: " ^^ fmt) in
  let cursor = Array.make n 0 in
  for u = 0 to n - 1 do
    let nb = adj.(u) in
    for k = 0 to Array.length nb - 1 do
      let v = nb.(k) in
      if v < 0 || v >= n then
        bad "node %d lists neighbor %d outside 0..%d" u v (n - 1);
      if v = u then bad "node %d lists itself" u;
      if k > 0 && v <= nb.(k - 1) then
        bad "node %d lists neighbor %d after %d" u v nb.(k - 1);
      if v > u then begin
        let c = cursor.(v) in
        if c >= Array.length adj.(v) || adj.(v).(c) <> u then
          bad "adjacency is not symmetric at edge {%d, %d}" u v;
        cursor.(v) <- c + 1
      end
    done
  done;
  for v = 0 to n - 1 do
    let c = cursor.(v) in
    if c < Array.length adj.(v) && adj.(v).(c) < v then
      bad "adjacency is not symmetric at edge {%d, %d}" adj.(v).(c) v
  done;
  of_sorted_adj adj

(* Sorted [a] without repeats: [a] itself when it has none. *)
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

(* Bucket each edge into both endpoints' arrays, then sort and dedup
   each array: symmetric by construction, so [of_sorted_adj] applies
   without the symmetry pass. *)
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

(* The subgraph induced by the node set stamped in [ws], stamped node
   [i] (insertion order) becoming sub node [i].  Only the members' own
   adjacency lists are scanned, so the cost is O(ball nodes + ball
   edges) plus the sort of each sub adjacency array — never O(n) or
   O(m) of the host graph. *)
let induced_ball g ws =
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
        a.(!fill) <- sub.(u);
        incr fill
      end
    done;
    (* Neighbors arrive sorted by original id, not by sub id. *)
    sort_ints a;
    adj.(i) <- a
  done;
  (of_sorted_adj adj, Array.sub queue 0 count)

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
