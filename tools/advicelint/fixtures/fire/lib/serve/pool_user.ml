(* Fixture: Localmodel.Pool.run is a parallel entry — its task closures run
   on spawned domains, so the domain-race audit chases them exactly like
   map_*_par closures. *)

let completed = ref 0

(* Race: every pool worker bumps a toplevel counter. *)
let count_tasks tasks =
  Pool.run
    (fun t ->
      completed := !completed + 1;
      t)
    tasks

(* Captured-array race: workers scatter into a shared results array
   instead of returning their slice for the caller to place. *)
let gather tasks =
  let out = Array.make (Array.length tasks) 0 in
  Pool.run
    (fun i ->
      out.(i) <- i;
      i)
    tasks;
  out
