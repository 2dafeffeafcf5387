(* Compressed sparse rows: node [v]'s row is positions [off.(v)] to
   [off.(v + 1) - 1] of [nbr] (its sorted neighbors) and [inc] (the id
   of the edge to each of them); edge [e] is [{ends.(2e), ends.(2e+1)}],
   lower endpoint first.  Four flat int arrays whatever the graph's
   size, so building, reading and dropping a graph never touches a
   per-node or per-edge heap block. *)
type t = {
  n : int;
  off : int array;
  nbr : int array;
  inc : int array;
  ends : int array;
}

(* Position of [x] in the sorted slice [lo, hi) of [a], or -1. *)
let find_in_row (a : int array) lo hi x =
  let lo = ref lo and hi = ref (hi - 1) in
  let res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let y = a.(mid) in
    if y = x then res := mid else if y < x then lo := mid + 1 else hi := mid - 1
  done;
  !res

(* Monomorphic sort of the slice [lo, hi) of [a].  Balls on the serve
   path are degree-bounded, so an in-place insertion sort with direct
   int comparisons beats the generic closure-compare [Array.sort]; long
   rows (a star's hub) go through it on a copy so the worst case stays
   O(d log d). *)
let sort_row (a : int array) lo hi =
  if hi - lo > 16 then begin
    let row = Array.sub a lo (hi - lo) in
    Array.sort Int.compare row;
    Array.blit row 0 a lo (hi - lo)
  end
  else
    for i = lo + 1 to hi - 1 do
      let x = Array.unsafe_get a i in
      let j = ref (i - 1) in
      while !j >= lo && Array.unsafe_get a !j > x do
        Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
        decr j
      done;
      Array.unsafe_set a (!j + 1) x
    done

(* The one CSR builder: rows [off]/[nbr] become the graph's own arrays,
   checked and numbered in one pass in node order with one cursor per
   node.  Each row must be strictly increasing, in range and loop-free.
   Visiting nodes in increasing order reaches each node's lower
   neighbors in increasing order, so when [u] lists [v > u], [u] must be
   the entry at [v]'s cursor, which starts at [off.(v)]: symmetry needs
   no search or table.  The same step numbers the edge: [u] numbers its
   edges to the neighbors above it, so edge ids come out lexicographic,
   and the id goes to both slots.  A closing pass checks that every
   cursor has consumed its node's whole lower prefix, which also means
   every slot of [inc] was written. *)
let of_sorted_adj off nbr =
  let n = Array.length off - 1 in
  let bad fmt = Printf.ksprintf invalid_arg ("Graph.of_adjacency: " ^^ fmt) in
  let len = Array.length nbr in
  let inc = Array.make len 0 and ends = Array.make len 0 in
  let cursor = Array.sub off 0 n in
  let next = ref 0 in
  for u = 0 to n - 1 do
    let first = off.(u) in
    for k = first to off.(u + 1) - 1 do
      let v = nbr.(k) in
      if v < 0 || v >= n then
        bad "node %d lists neighbor %d outside 0..%d" u v (n - 1);
      if v = u then bad "node %d lists itself" u;
      if k > first && v <= nbr.(k - 1) then
        bad "node %d lists neighbor %d after %d" u v nbr.(k - 1);
      if v > u then begin
        let c = cursor.(v) in
        if c >= off.(v + 1) || nbr.(c) <> u then
          bad "adjacency is not symmetric at edge {%d, %d}" u v;
        let e = !next in
        ends.(2 * e) <- u;
        ends.((2 * e) + 1) <- v;
        inc.(k) <- e;
        inc.(c) <- e;
        cursor.(v) <- c + 1;
        next := e + 1
      end
    done
  done;
  for v = 0 to n - 1 do
    let c = cursor.(v) in
    if c < off.(v + 1) && nbr.(c) < v then
      bad "adjacency is not symmetric at edge {%d, %d}" nbr.(c) v
  done;
  { n; off; nbr; inc; ends }

let of_rows ~off ~nbr =
  if Array.length off = 0 then invalid_arg "Graph.of_rows: empty offset array";
  let n = Array.length off - 1 in
  if off.(0) <> 0 || off.(n) <> Array.length nbr then
    invalid_arg "Graph.of_rows: offsets do not span the neighbor array";
  for v = 0 to n - 1 do
    if off.(v + 1) < off.(v) then invalid_arg "Graph.of_rows: offsets decrease"
  done;
  of_sorted_adj off nbr

(* The flat form of [adj], checked as a snapshot's rows are. *)
let of_adjacency adj =
  let n = Array.length adj in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Array.length adj.(v)
  done;
  let nbr = Array.make off.(n) 0 in
  Array.iteri (fun v a -> Array.blit a 0 nbr off.(v) (Array.length a)) adj;
  of_sorted_adj off nbr

(* Count degrees, fill the rows, then sort, deduplicate and compact each
   row in place: a row's deduplicated entries never move right, so the
   write position trails the read position.  Symmetric by
   construction. *)
let of_edges ~n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let off = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      off.(u + 1) <- off.(u + 1) + 1;
      off.(v + 1) <- off.(v + 1) + 1)
    edge_list;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let nbr = Array.make off.(n) 0 in
  let fill = Array.sub off 0 n in
  List.iter
    (fun (u, v) ->
      nbr.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      nbr.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    edge_list;
  let w = ref 0 in
  for v = 0 to n - 1 do
    let lo = off.(v) and hi = off.(v + 1) in
    sort_row nbr lo hi;
    off.(v) <- !w;
    for k = lo to hi - 1 do
      if k = lo || nbr.(k) <> nbr.(k - 1) then begin
        nbr.(!w) <- nbr.(k);
        incr w
      end
    done
  done;
  off.(n) <- !w;
  of_sorted_adj off (if !w = Array.length nbr then nbr else Array.sub nbr 0 !w)

let n g = g.n
let m g = Array.length g.ends / 2
let degree g v = g.off.(v + 1) - g.off.(v)
let neighbors g v = Array.sub g.nbr g.off.(v) (degree g v)
let incident_edges g v = Array.sub g.inc g.off.(v) (degree g v)
let row_offsets g = g.off
let row_neighbors g = g.nbr
let row_edges g = g.inc

let max_degree g =
  let d = ref 0 in
  for v = 0 to g.n - 1 do
    d := max !d (degree g v)
  done;
  !d

(* Position of [b] in the row of [a], searching the lower-degree
   endpoint's row: O(log min-degree), no hashing. *)
let slot g u v =
  if u = v then -1
  else
    let a, b = if degree g u <= degree g v then (u, v) else (v, u) in
    find_in_row g.nbr g.off.(a) g.off.(a + 1) b

let is_edge g u v = slot g u v >= 0

let edge_id g u v =
  let k = slot g u v in
  if k < 0 then raise Not_found else g.inc.(k)

let edge_endpoints g e = (g.ends.(2 * e), g.ends.((2 * e) + 1))

let edge_other_endpoint g e v =
  let u = g.ends.(2 * e) and w = g.ends.((2 * e) + 1) in
  if v = u then w
  else if v = w then u
  else invalid_arg "Graph.edge_other_endpoint: node not on edge"

let iter_edges f g =
  for e = 0 to m g - 1 do
    f e (g.ends.(2 * e), g.ends.((2 * e) + 1))
  done

let fold_edges f g init =
  let acc = ref init in
  iter_edges (fun id e -> acc := f id e !acc) g;
  !acc

let iter_nodes f g =
  for v = 0 to g.n - 1 do
    f v
  done

let fold_nodes f g init =
  let acc = ref init in
  iter_nodes (fun v -> acc := f v !acc) g;
  !acc

let edges g = Array.init (m g) (fun e -> (g.ends.(2 * e), g.ends.((2 * e) + 1)))

(* The subgraph induced by the node set stamped in [ws], stamped node
   [i] (insertion order) becoming sub node [i].  Only the members' own
   rows are scanned, so the cost is O(ball nodes + ball edges) plus the
   sort of each sub row — never O(n) or O(m) of the host graph. *)
let induced_ball g ws =
  let count = Workspace.size ws in
  let queue = ws.Workspace.queue and sub = ws.Workspace.sub in
  let stamp = ws.Workspace.stamp and epoch = ws.Workspace.epoch in
  let goff = g.off and gnbr = g.nbr in
  let off = Array.make (count + 1) 0 in
  for i = 0 to count - 1 do
    let v = queue.(i) in
    let d = ref 0 in
    for k = goff.(v) to goff.(v + 1) - 1 do
      if stamp.(gnbr.(k)) = epoch then incr d
    done;
    off.(i + 1) <- off.(i) + !d
  done;
  let nbr = Array.make off.(count) 0 in
  for i = 0 to count - 1 do
    let v = queue.(i) in
    let fill = ref off.(i) in
    for k = goff.(v) to goff.(v + 1) - 1 do
      let u = gnbr.(k) in
      if stamp.(u) = epoch then begin
        nbr.(!fill) <- sub.(u);
        incr fill
      end
    done;
    (* Neighbors arrive sorted by original id, not by sub id. *)
    sort_row nbr off.(i) off.(i + 1)
  done;
  (of_sorted_adj off nbr, Array.sub queue 0 count)

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
   cheap: each member's sorted row maps to a sorted local row and the
   lexicographic edge order is preserved, so nothing is re-sorted.
   Global→local translation is an offset-indexed rank array over the
   ids' span [ids.(0) .. ids.(count-1)] — O(1) membership with scratch
   proportional to the span, which for locality-friendly id sets (a
   shard's interior range plus its halo) is barely more than [count],
   and never exceeds the old O(n) map. *)
let induced_sorted g ids =
  let count = Array.length ids in
  Array.iteri
    (fun i v ->
      if v < 0 || v >= g.n then
        invalid_arg "Graph.induced_sorted: node id out of range";
      if i > 0 && ids.(i - 1) >= v then
        invalid_arg "Graph.induced_sorted: ids not strictly increasing")
    ids;
  let base = if count = 0 then 0 else ids.(0) in
  let span = if count = 0 then 0 else ids.(count - 1) - base + 1 in
  let rank = Array.make span (-1) in
  Array.iteri (fun i v -> rank.(v - base) <- i) ids;
  let local u = if u < base || u - base >= span then -1 else rank.(u - base) in
  let off = Array.make (count + 1) 0 in
  for i = 0 to count - 1 do
    let v = ids.(i) in
    let d = ref 0 in
    for k = g.off.(v) to g.off.(v + 1) - 1 do
      if local g.nbr.(k) >= 0 then incr d
    done;
    off.(i + 1) <- off.(i) + !d
  done;
  let nbr = Array.make off.(count) 0 in
  for i = 0 to count - 1 do
    let v = ids.(i) in
    let fill = ref off.(i) in
    for k = g.off.(v) to g.off.(v + 1) - 1 do
      let j = local g.nbr.(k) in
      if j >= 0 then begin
        nbr.(!fill) <- j;
        incr fill
      end
    done
  done;
  of_sorted_adj off nbr

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
        for j = g.off.(v) to g.off.(v + 1) - 1 do
          let u = g.nbr.(j) in
          if dist.(u) < 0 then begin
            dist.(u) <- dist.(v) + 1;
            touched := u :: !touched;
            Queue.add u queue
          end
        done
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
      for i = g.off.(v) to g.off.(v + 1) - 1 do
        for j = i + 1 to g.off.(v + 1) - 1 do
          acc := (g.inc.(i), g.inc.(j)) :: !acc
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
      for k = g.off.(v) to g.off.(v + 1) - 1 do
        let u = g.nbr.(k) in
        if not (Bitset.mem seen u) then begin
          Bitset.add seen u;
          incr count;
          Queue.add u queue
        end
      done
    done;
    !count = g.n
  end

(* Edge ids are lexicographic, so equal edge sets give equal [ends]. *)
let equal a b =
  a.n = b.n
  && Array.length a.ends = Array.length b.ends
  && begin
       let ok = ref true in
       Array.iteri (fun i x -> if x <> b.ends.(i) then ok := false) a.ends;
       !ok
     end

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d@," g.n (m g);
  iter_edges (fun _ (u, v) -> Format.fprintf fmt "%d -- %d@," u v) g;
  Format.fprintf fmt "@]"
