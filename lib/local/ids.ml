open Netgraph

type t = int array

let identity g = Array.init (Graph.n g) (fun v -> v + 1)

let random_permutation rng g =
  let n = Graph.n g in
  Array.map (fun i -> i + 1) (Prng.permutation rng n)

let random_sparse rng g =
  let n = Graph.n g in
  let space = max 1 (n * n) in
  let used = Hashtbl.create n in
  Array.init n (fun _ ->
      let rec draw () =
        let id = 1 + Prng.int rng space in
        if Hashtbl.mem used id then draw ()
        else begin
          Hashtbl.replace used id ();
          id
        end
      in
      draw ())

let strictly_increasing (ids : int array) =
  let ok = ref true in
  for i = 1 to Array.length ids - 1 do
    if ids.(i - 1) >= ids.(i) then ok := false
  done;
  !ok

(* Strictly increasing ids (a shard's [gid + 1]) are distinct in one
   pass; any other order is checked on a sorted copy. *)
let is_valid g ids =
  Array.length ids = Graph.n g
  && Array.for_all (fun id -> id > 0) ids
  && (strictly_increasing ids
     ||
     let sorted = Array.copy ids in
     Array.sort Int.compare sorted;
     strictly_increasing sorted)

let rank ids =
  let n = Array.length ids in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) order;
  let r = Array.make n 0 in
  Array.iteri (fun pos v -> r.(v) <- pos) order;
  r
