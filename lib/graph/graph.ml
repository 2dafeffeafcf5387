(* Compressed sparse rows: node [v]'s row is positions [off.(v)] to
   [off.(v + 1) - 1] of [nbr] (its sorted neighbors) and [inc] (the id
   of the edge to each of them).  Each row is a [Bytes] of 32-bit
   entries: half the words of an int array, and a block the GC never
   scans, so building, reading and dropping a graph touches no per-node
   or per-edge heap block and costs the marker nothing.  Edge [e] is
   [{ends.(2e), ends.(2e+1)}], lower endpoint first: a fourth row that
   only edge-indexed readers need, so it is derived from the three on
   first use (see [ends] below) and absent until then. *)
type rows = Bytes.t

type t = {
  n : int;
  off : rows;
  nbr : rows;
  inc : rows;
  ends : rows Atomic.t;  (* empty until derived, unless the graph has no edge *)
  max_degree : int;  (* found by the builder's pass over the rows *)
}

external get32 : rows -> int -> int32 = "%caml_bytes_get32u"
external set32 : rows -> int -> int32 -> unit = "%caml_bytes_set32u"
external get32_checked : rows -> int -> int32 = "%caml_bytes_get32"

let max_count = 0x7FFF_FFFF

(* Entry [k] of a row, unchecked: every caller in this file indexes a
   row it built or validated.  The per-node accessors read through
   [get], which raises [Invalid_argument] on a position outside the row
   as an array read would. *)
let[@inline] at r k = Int32.to_int (get32 r (k lsl 2))
let[@inline] put r k x = set32 r (k lsl 2) (Int32.of_int x)
let get r k = Int32.to_int (get32_checked r (k lsl 2))
let create_rows len = Bytes.create (len lsl 2)
let entries r = Bytes.length r lsr 2

(* Rows hold signed 32-bit entries, so a node count or degree sum past
   [max_count] is refused before anything is allocated for it. *)
let check_count fn what count =
  if count > max_count then
    Printf.ksprintf invalid_arg "Graph.%s: %s %d exceeds %d, the 32-bit row cap" fn
      what count max_count

(* Position of [x] in the sorted slice [lo, hi) of [r], or -1. *)
let find_in_row r lo hi x =
  let lo = ref lo and hi = ref (hi - 1) in
  let res = ref (-1) in
  while !res < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let y = at r mid in
    if y = x then res := mid else if y < x then lo := mid + 1 else hi := mid - 1
  done;
  !res

(* Monomorphic sort of the slice [lo, hi) of [r].  Balls on the serve
   path are degree-bounded, so an in-place insertion sort with direct
   int comparisons beats the generic closure-compare [Array.sort]; long
   rows (a star's hub) go through it on a copy so the worst case stays
   O(d log d). *)
let sort_row r lo hi =
  if hi - lo > 16 then begin
    let row = Array.init (hi - lo) (fun i -> at r (lo + i)) in
    Array.sort Int.compare row;
    Array.iteri (fun i x -> put r (lo + i) x) row
  end
  else
    for i = lo + 1 to hi - 1 do
      let x = at r i in
      let j = ref (i - 1) in
      while !j >= lo && at r !j > x do
        put r (!j + 1) (at r !j);
        decr j
      done;
      put r (!j + 1) x
    done

(* The first fault of rows the builder refuses, named by a cursor walk:
   in node order, each row must be
   strictly increasing, in range and loop-free, and when [u] lists
   [v > u], [u] must be the entry at [v]'s cursor, which starts at
   [off.(v)] and moves past each lower neighbor that lists [v] back.  A
   closing pass checks that every cursor has consumed its node's whole
   lower prefix.  Only refused rows get here, so the cursor row is
   allocated for them alone. *)
let diagnose off nbr =
  let n = entries off - 1 in
  let bad fmt = Printf.ksprintf invalid_arg ("Graph.of_adjacency: " ^^ fmt) in
  let cursor = Bytes.sub off 0 (n lsl 2) in
  for u = 0 to n - 1 do
    let first = at off u in
    for k = first to at off (u + 1) - 1 do
      let v = at nbr k in
      if v < 0 || v >= n then
        bad "node %d lists neighbor %d outside 0..%d" u v (n - 1);
      if v = u then bad "node %d lists itself" u;
      if k > first && v <= at nbr (k - 1) then
        bad "node %d lists neighbor %d after %d" u v (at nbr (k - 1));
      if v > u then begin
        let c = at cursor v in
        if c >= at off (v + 1) || at nbr c <> u then
          bad "adjacency is not symmetric at edge {%d, %d}" u v;
        put cursor v (c + 1)
      end
    done
  done;
  for v = 0 to n - 1 do
    let c = at cursor v in
    if c < at off (v + 1) && at nbr c < v then
      bad "adjacency is not symmetric at edge {%d, %d}" (at nbr c) v
  done;
  bad "adjacency is not symmetric"

(* The one CSR builder: rows [off]/[nbr] become the graph's own rows,
   checked and numbered in one pass in node order, with no scratch row.
   Each row must be strictly increasing, in range and loop-free.  [u]
   numbers its edges to the neighbors above it (its upper slots), so
   edge ids come out lexicographic; a lower slot, to [v < u], takes the
   id of its partner, found by binary search in [v]'s row, which is
   already checked and numbered.  Every lower slot having a partner
   makes lower slots map one-to-one into upper slots, so equal counts of
   the two mean every upper slot has its partner too: the adjacency is
   symmetric, and every slot of [inc] was written.  Rows that fail go to
   [diagnose], whose message names the same fault the check always
   named. *)
let of_sorted_adj off nbr =
  let n = entries off - 1 in
  let inc = create_rows (entries nbr) in
  let next = ref 0 and lower = ref 0 and max_degree = ref 0 in
  match
    for u = 0 to n - 1 do
      let first = at off u and stop = at off (u + 1) in
      if stop - first > !max_degree then max_degree := stop - first;
      for k = first to stop - 1 do
        let v = at nbr k in
        if v < 0 || v >= n || v = u || (k > first && v <= at nbr (k - 1)) then
          raise_notrace Exit;
        if v > u then begin
          put inc k !next;
          incr next
        end
        else begin
          let c = find_in_row nbr (at off v) (at off (v + 1)) u in
          if c < 0 then raise_notrace Exit;
          put inc k (at inc c);
          incr lower
        end
      done
    done;
    if !lower <> !next then raise_notrace Exit
  with
  | () -> { n; off; nbr; inc; ends = Atomic.make Bytes.empty; max_degree = !max_degree }
  | exception Exit -> diagnose off nbr

let of_rows ~off ~nbr =
  if Bytes.length off land 3 <> 0 || Bytes.length nbr land 3 <> 0 then
    invalid_arg "Graph.of_rows: a row's length is not a multiple of 4 bytes";
  if entries off = 0 then invalid_arg "Graph.of_rows: empty offset row";
  let n = entries off - 1 in
  check_count "of_rows" "node count" n;
  check_count "of_rows" "degree sum" (entries nbr);
  if at off 0 <> 0 || at off n <> entries nbr then
    invalid_arg "Graph.of_rows: offsets do not span the neighbor row";
  for v = 0 to n - 1 do
    if at off (v + 1) < at off v then invalid_arg "Graph.of_rows: offsets decrease"
  done;
  of_sorted_adj off nbr

(* The flat form of [adj], checked as a snapshot's rows are. *)
let of_adjacency adj =
  let n = Array.length adj in
  check_count "of_adjacency" "node count" n;
  let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 adj in
  check_count "of_adjacency" "degree sum" total;
  let off = create_rows (n + 1) and nbr = create_rows total in
  put off 0 0;
  Array.iteri
    (fun v a ->
      let first = at off v in
      Array.iteri
        (fun i x ->
          (* An entry past 32 bits is out of range whatever [n]; it is
             diagnosed as -1. *)
          put nbr (first + i) (if x < -max_count - 1 || x > max_count then -1 else x))
        a;
      put off (v + 1) (first + Array.length a))
    adj;
  of_sorted_adj off nbr

(* Count degrees, fill the rows, then sort, deduplicate and compact each
   row in place: a row's deduplicated entries never move right, so the
   write position trails the read position.  Symmetric by
   construction. *)
let of_edges ~n edge_list =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  check_count "of_edges" "node count" n;
  let total = 2 * List.length edge_list in
  check_count "of_edges" "degree sum" total;
  let off = Bytes.make ((n + 1) lsl 2) '\000' in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg "Graph.of_edges: endpoint out of range";
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      put off (u + 1) (at off (u + 1) + 1);
      put off (v + 1) (at off (v + 1) + 1))
    edge_list;
  for v = 0 to n - 1 do
    put off (v + 1) (at off (v + 1) + at off v)
  done;
  let nbr = create_rows total in
  let fill = Bytes.sub off 0 (n lsl 2) in
  List.iter
    (fun (u, v) ->
      put nbr (at fill u) v;
      put fill u (at fill u + 1);
      put nbr (at fill v) u;
      put fill v (at fill v + 1))
    edge_list;
  let w = ref 0 in
  for v = 0 to n - 1 do
    let lo = at off v and hi = at off (v + 1) in
    sort_row nbr lo hi;
    put off v !w;
    for k = lo to hi - 1 do
      if k = lo || at nbr k <> at nbr (k - 1) then begin
        put nbr !w (at nbr k);
        incr w
      end
    done
  done;
  put off n !w;
  of_sorted_adj off (if !w = total then nbr else Bytes.sub nbr 0 (!w lsl 2))

let n g = g.n
let m g = entries g.nbr / 2
let degree g v = get g.off (v + 1) - get g.off v

let row_array g r v =
  let first = get g.off v in
  Array.init (get g.off (v + 1) - first) (fun i -> at r (first + i))

let neighbors g v = row_array g g.nbr v
let incident_edges g v = row_array g g.inc v
let row_offsets g = g.off
let row_neighbors g = g.nbr
let row_edges g = g.inc

let max_degree g = g.max_degree

(* Position of [b] in the row of [a], searching the lower-degree
   endpoint's row: O(log min-degree), no hashing. *)
let slot g u v =
  if u = v then -1
  else
    let a, b = if degree g u <= degree g v then (u, v) else (v, u) in
    find_in_row g.nbr (at g.off a) (at g.off (a + 1)) b

let is_edge g u v = slot g u v >= 0

let edge_id g u v =
  let k = slot g u v in
  if k < 0 then raise Not_found else at g.inc k

(* Walking upper slots in node order yields the edges in id order:
   [f e u v] for each edge [e = {u, v}], [u < v]. *)
let[@inline] iter_upper g f =
  let e = ref 0 in
  for u = 0 to g.n - 1 do
    for k = at g.off u to at g.off (u + 1) - 1 do
      let v = at g.nbr k in
      if v > u then begin
        f !e u v;
        incr e
      end
    done
  done

(* The edge-endpoint row, derived from the three stored rows on the
   first call and then kept: O(m) once, and nothing for a graph no
   edge-indexed reader asks about (a served graph reads it only to name
   the endpoints in an error).  Domains that race to derive it each
   build a copy, and [compare_and_set] publishes the first: the loser
   drops its copy and reads the winner's, so every reader sees one row,
   fully written before it was published. *)
let ends g =
  let cur = Atomic.get g.ends in
  if Bytes.length cur > 0 || Bytes.length g.nbr = 0 then cur
  else begin
    let row = create_rows (entries g.nbr) in
    iter_upper g (fun e u v ->
        put row (2 * e) u;
        put row ((2 * e) + 1) v);
    if Atomic.compare_and_set g.ends cur row then row else Atomic.get g.ends
  end

let edge_endpoints g e =
  let ends = ends g in
  (get ends (2 * e), get ends ((2 * e) + 1))

let edge_other_endpoint g e v =
  let ends = ends g in
  let u = get ends (2 * e) and w = get ends ((2 * e) + 1) in
  if v = u then w
  else if v = w then u
  else invalid_arg "Graph.edge_other_endpoint: node not on edge"

let iter_edges f g = iter_upper g (fun e u v -> f e (u, v))

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

let edges g =
  let a = Array.make (m g) (0, 0) in
  iter_upper g (fun e u v -> a.(e) <- (u, v));
  a

(* The subgraph induced by the node set stamped in [ws], stamped node
   [i] (insertion order) becoming sub node [i].  Only the members' own
   rows are scanned, so the cost is O(ball nodes + ball edges) plus the
   sort of each sub row — never O(n) or O(m) of the host graph.  A
   stamp's index is its mark less the base, negative for a non-member. *)
let induced_ball g ws =
  let count = Workspace.size ws in
  let queue = ws.Workspace.queue in
  let mark = ws.Workspace.mark and base = ws.Workspace.base in
  if Bytes.length mark < 4 * g.n then
    invalid_arg "Graph.induced_ball: the workspace's mark is shorter than the graph";
  let goff = g.off and gnbr = g.nbr in
  let off = create_rows (count + 1) in
  put off 0 0;
  for i = 0 to count - 1 do
    let v = queue.(i) in
    if v < 0 || v >= g.n then
      invalid_arg "Graph.induced_ball: a stamped node is not in the graph";
    let d = ref 0 in
    for k = at goff v to at goff (v + 1) - 1 do
      if Int32.to_int (Workspace.get32 mark (at gnbr k lsl 2)) >= base then incr d
    done;
    put off (i + 1) (at off i + !d)
  done;
  let nbr = create_rows (at off count) in
  for i = 0 to count - 1 do
    let v = queue.(i) in
    let fill = ref (at off i) in
    for k = at goff v to at goff (v + 1) - 1 do
      let s = Int32.to_int (Workspace.get32 mark (at gnbr k lsl 2)) - base in
      if s >= 0 then begin
        put nbr !fill s;
        incr fill
      end
    done;
    (* Neighbors arrive sorted by original id, not by sub id. *)
    sort_row nbr (at off i) (at off (i + 1))
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
  let off = create_rows (count + 1) in
  put off 0 0;
  for i = 0 to count - 1 do
    let v = ids.(i) in
    let d = ref 0 in
    for k = at g.off v to at g.off (v + 1) - 1 do
      if local (at g.nbr k) >= 0 then incr d
    done;
    put off (i + 1) (at off i + !d)
  done;
  let nbr = create_rows (at off count) in
  for i = 0 to count - 1 do
    let v = ids.(i) in
    let fill = ref (at off i) in
    for k = at g.off v to at g.off (v + 1) - 1 do
      let j = local (at g.nbr k) in
      if j >= 0 then begin
        put nbr !fill j;
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
        for j = at g.off v to at g.off (v + 1) - 1 do
          let u = at g.nbr j in
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
      for i = at g.off v to at g.off (v + 1) - 1 do
        for j = i + 1 to at g.off (v + 1) - 1 do
          acc := (at g.inc i, at g.inc j) :: !acc
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
      for k = at g.off v to at g.off (v + 1) - 1 do
        let u = at g.nbr k in
        if not (Bitset.mem seen u) then begin
          Bitset.add seen u;
          incr count;
          Queue.add u queue
        end
      done
    done;
    !count = g.n
  end

(* Rows are sorted and duplicate-free, so equal edge sets give equal
   rows. *)
let equal a b = a.n = b.n && Bytes.equal a.off b.off && Bytes.equal a.nbr b.nbr

let pp fmt g =
  Format.fprintf fmt "@[<v>graph n=%d m=%d@," g.n (m g);
  iter_edges (fun _ (u, v) -> Format.fprintf fmt "%d -- %d@," u v) g;
  Format.fprintf fmt "@]"
