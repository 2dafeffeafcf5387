let order g =
  let n = Graph.n g in
  let deg = Array.init n (Graph.degree g) in
  let removed = Bitset.create n in
  let pos = Array.make n 0 in
  let degeneracy = ref 0 in
  for step = 0 to n - 1 do
    (* Minimum remaining degree, ties by id. *)
    let best = ref (-1) in
    for v = n - 1 downto 0 do
      if
        (not (Bitset.mem removed v))
        && (!best < 0 || deg.(v) < deg.(!best)
           || (deg.(v) = deg.(!best) && v < !best))
      then best := v
    done;
    let v = !best in
    degeneracy := Int.max !degeneracy deg.(v);
    pos.(v) <- step;
    Bitset.add removed v;
    Array.iter
      (fun u -> if not (Bitset.mem removed u) then deg.(u) <- deg.(u) - 1)
      (Graph.neighbors g v)
  done;
  (pos, !degeneracy)

let orient g (pos : int array) =
  let o = Orientation.create g in
  Graph.iter_edges
    (fun _ (u, v) ->
      if pos.(u) < pos.(v) then Orientation.orient o u v
      else Orientation.orient o v u)
    g;
  o
