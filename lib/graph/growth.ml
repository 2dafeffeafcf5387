let profile g v rmax =
  let dist = Traversal.bfs_distances g v in
  let counts = Array.make (rmax + 1) 0 in
  Array.iter
    (fun d -> if d >= 0 && d <= rmax then counts.(d) <- counts.(d) + 1)
    dist;
  let acc = ref 0 in
  Array.to_list (Array.map (fun c -> acc := !acc + c; !acc) counts)

let sphere_sizes g v rmax =
  let dist = Traversal.bfs_distances g v in
  let counts = Array.make (rmax + 1) 0 in
  Array.iter
    (fun d -> if d >= 0 && d <= rmax then counts.(d) <- counts.(d) + 1)
    dist;
  Array.to_list counts

let lemma3_alpha g ~v ~r ~x =
  if x < 1 || r < 0 then invalid_arg "Growth.lemma3_alpha";
  let rmax = (2 * x) + r in
  let dist = Traversal.bfs_distances g v in
  let sphere = Array.make (rmax + 1) 0 in
  Array.iter
    (fun d -> if d >= 0 && d <= rmax then sphere.(d) <- sphere.(d) + 1)
    dist;
  let delta = Int.max 1 (Graph.max_degree g) in
  let delta_r =
    let rec pow acc i = if i = 0 then acc else pow (acc * delta) (i - 1) in
    pow 1 r
  in
  let ball = Array.make (rmax + 1) 0 in
  let acc = ref 0 in
  Array.iteri
    (fun d c ->
      acc := !acc + c;
      ball.(d) <- !acc)
    sphere;
  let rec search alpha =
    if alpha > 2 * x then None
    else if ball.(alpha) >= delta_r * sphere.(alpha + r) then Some alpha
    else search (alpha + 1)
  in
  search x

let exponent_estimate g ~v ~rmax =
  let balls = Array.of_list (profile g v rmax) in
  let b1 = float_of_int balls.(1) and br = float_of_int balls.(rmax) in
  if br <= b1 then invalid_arg "Growth.exponent_estimate: flat profile";
  (log br -. log b1) /. (log (float_of_int rmax) -. log 1.0)
