(* Fixture: the serve layer is hot and per-node — map_nodes_par is a
   parallel entry for the domain-race audit, and the per-query path must
   not allocate per-ball tables. *)

let hits = ref 0

let per_ball_scratch () = Hashtbl.create 32

let map_nodes_par g nodes f = ignore g; ignore nodes; ignore f; [||]

(* Race: the fan-out closure bumps a toplevel counter. *)
let serve_batch g nodes =
  map_nodes_par g nodes (fun v ->
      hits := !hits + 1;
      v)

(* Captured-local race: every domain shares [served]. *)
let serve_counted g nodes =
  let served = ref 0 in
  map_nodes_par g nodes (fun v ->
      incr served;
      v)
