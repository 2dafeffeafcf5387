open Netgraph

type t = int array

let identity g = Array.init (Graph.n g) (fun v -> v + 1)

let random_permutation rng g =
  let n = Graph.n g in
  Array.map (fun i -> i + 1) (Prng.permutation rng n)

let random_sparse rng g =
  let n = Graph.n g in
  let space = Int.max 1 (n * n) in
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

let rank ids =
  let n = Array.length ids in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Int.compare ids.(a) ids.(b)) order;
  let r = Array.make n 0 in
  Array.iteri (fun pos v -> r.(v) <- pos) order;
  r
