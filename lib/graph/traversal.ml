(* Entry [k] of a graph row: one load, no call (see {!Graph.get32}). *)
let[@inline] at r k = Int32.to_int (Graph.get32 r (k lsl 2))

(* [f u] for every neighbor [u] of [v], read in place from the shared
   rows: [Graph.neighbors] would copy the row first. *)
let iter_neighbors g v f =
  let off = Graph.row_offsets g and nbr = Graph.row_neighbors g in
  for k = at off v to at off (v + 1) - 1 do
    f (at nbr k)
  done

let bfs_distances_multi g sources =
  let dist = Array.make (Graph.n g) (-1) in
  let queue = Queue.create () in
  List.iter
    (fun s ->
      if dist.(s) < 0 then begin
        dist.(s) <- 0;
        Queue.add s queue
      end)
    sources;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    iter_neighbors g v (fun u ->
        if dist.(u) < 0 then begin
          dist.(u) <- dist.(v) + 1;
          Queue.add u queue
        end)
  done;
  dist

let bfs_distances g s = bfs_distances_multi g [ s ]

(* The BFS of every served ball, past its source (stamp 0, distance
   0): it reads the graph's rows and the workspace's arrays directly
   ({!Workspace.add} inlined by hand), since cross-module calls are not
   inlined in every build profile, and it makes no call, so the arrays
   it is handed stay in registers.  Every index is in range without a
   check: [i] and [j] stay below [queue]'s length, which [dist]
   shares, and every node is one of the graph's, below its [n] and so
   below the mark's length.  Returns the ball size, or -1 when the ball
   outgrows [queue] (signalled by moving [head] past [size]). *)
let expand mark base queue dist off nbr r =
  let cap = Array.length queue in
  let size = ref 1 and head = ref 0 in
  while !head < !size do
    let i = !head in
    head := i + 1;
    let dv = Array.unsafe_get dist i in
    if dv < r then begin
      let v = Array.unsafe_get queue i in
      for k = at off v to at off (v + 1) - 1 do
        let u = at nbr k in
        if Int32.to_int (Workspace.get32 mark (u lsl 2)) < base then begin
          let j = !size in
          if j < cap then begin
            Workspace.set32 mark (u lsl 2) (Int32.of_int (base + j));
            Array.unsafe_set queue j u;
            Array.unsafe_set dist j (dv + 1);
            size := j + 1
          end
          else head := cap + 1
        end
      done
    end
  done;
  if !head > !size then -1 else !size

(* A ball that outgrows the stamp-indexed arrays reruns once they have
   doubled: a few times in a workspace's life, as its largest ball
   grows. *)
let rec bfs_limited_into ws g s r =
  let n = Graph.n g in
  if s < 0 || s >= n then
    invalid_arg (Printf.sprintf "Traversal.bfs_limited_into: source %d outside 0..%d" s (n - 1));
  Workspace.ensure ws n;
  Workspace.reset ws;
  Workspace.add ws s ~dist:0;
  let size =
    expand ws.Workspace.mark ws.Workspace.base ws.Workspace.queue ws.Workspace.dist
      (Graph.row_offsets g) (Graph.row_neighbors g) r
  in
  if size >= 0 then begin
    ws.Workspace.size <- size;
    size
  end
  else begin
    let cap = Array.length ws.Workspace.queue in
    ws.Workspace.size <- cap;
    Workspace.reserve ws (2 * cap);
    bfs_limited_into ws g s r
  end

let bfs_limited g s r =
  let ws = Workspace.domain_local () in
  let count = bfs_limited_into ws g s r in
  List.init count (fun i ->
      let v = Workspace.node_at ws i in
      (v, Workspace.dist ws v))

let ball g s r = List.map fst (bfs_limited g s r)

let sphere g s r =
  List.filter_map (fun (v, d) -> if d = r then Some v else None) (bfs_limited g s r)

let distance g s t =
  if s = t then 0
  else begin
    (* Early-exit BFS. *)
    let dist = Array.make (Graph.n g) (-1) in
    let queue = Queue.create () in
    dist.(s) <- 0;
    Queue.add s queue;
    let result = ref (-1) in
    (try
       while not (Queue.is_empty queue) do
         let v = Queue.take queue in
         iter_neighbors g v (fun u ->
             if dist.(u) < 0 then begin
               dist.(u) <- dist.(v) + 1;
               if u = t then begin
                 result := dist.(u);
                 raise Exit
               end;
               Queue.add u queue
             end)
       done
     with Exit -> ());
    !result
  end

let shortest_path g s t =
  (* Distances from t; then walk greedily from s, always stepping to the
     smallest-id neighbor one step closer to t.  This yields the
     lexicographically least shortest path because neighbor arrays are
     sorted. *)
  let dist = bfs_distances g t in
  if dist.(s) < 0 then raise Not_found;
  let rec walk v acc =
    if v = t then List.rev (v :: acc)
    else begin
      let next = ref (-1) in
      iter_neighbors g v (fun u ->
          if !next < 0 && dist.(u) = dist.(v) - 1 then next := u);
      assert (!next >= 0);
      walk !next (v :: acc)
    end
  in
  walk s []

let eccentricity g v =
  Array.fold_left Int.max 0 (bfs_distances g v)

let diameter g =
  if Graph.n g = 0 then -1
  else Graph.fold_nodes (fun v acc -> Int.max acc (eccentricity g v)) g 0

let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let count = ref 0 in
  let queue = Queue.create () in
  for s = 0 to n - 1 do
    if comp.(s) < 0 then begin
      let c = !count in
      incr count;
      comp.(s) <- c;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let v = Queue.take queue in
        iter_neighbors g v (fun u ->
            if comp.(u) < 0 then begin
              comp.(u) <- c;
              Queue.add u queue
            end)
      done
    end
  done;
  (comp, !count)

let component_members g =
  let comp, k = components g in
  let members = Array.make k [] in
  for v = Graph.n g - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  members

let growth g v r = List.length (ball g v r)

let bipartition g =
  let n = Graph.n g in
  let side = Array.make n (-1) in
  let queue = Queue.create () in
  let ok = ref true in
  for s = 0 to n - 1 do
    if !ok && side.(s) < 0 then begin
      side.(s) <- 0;
      Queue.add s queue;
      while not (Queue.is_empty queue) do
        let v = Queue.take queue in
        iter_neighbors g v (fun u ->
            if side.(u) < 0 then begin
              side.(u) <- 1 - side.(v);
              Queue.add u queue
            end
            else if side.(u) = side.(v) then ok := false)
      done
    end
  done;
  if !ok then Some side else None

let is_bipartite g = Option.is_some (bipartition g)
