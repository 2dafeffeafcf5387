open Netgraph

type 'out decoder =
  Graph.t -> ids:Ids.t -> advice:string array -> 'out array

(* Fragments must preserve the relative order of node indices: the
   library's canonical local structure (sorted neighbor arrays) is the
   identifier order, so an order-scrambling renumbering would present the
   decoder with a different identifier assignment, not a smaller view. *)
let induced_ordered g ball =
  Graph.induced g (List.sort Int.compare ball)

let stable_for_all g ~ids ~advice ~decode ~equal ~radius ~samples =
  (* Compute the full run once; rebuild fragments per sample. *)
  let full = decode g ~ids ~advice in
  List.for_all
    (fun node ->
      let ball = Traversal.ball g node radius in
      let sub, to_sub, to_global = induced_ordered g ball in
      let sub_ids = Array.init (Graph.n sub) (fun i -> ids.(to_global.(i))) in
      let sub_advice =
        Array.init (Graph.n sub) (fun i -> advice.(to_global.(i)))
      in
      let fragment = decode sub ~ids:sub_ids ~advice:sub_advice in
      equal fragment.(to_sub.(node)) full.(node))
    samples

let measured_radius g ~ids ~advice ~decode ~equal ~max_radius ~samples =
  let rec search r =
    if r > max_radius then None
    else if stable_for_all g ~ids ~advice ~decode ~equal ~radius:r ~samples then
      Some r
    else search (r + 1)
  in
  search 0
