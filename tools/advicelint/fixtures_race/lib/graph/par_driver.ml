(* Fire fixture for the interprocedural domain-race audit.  The module
   alias [H] defeats the syntactic Callgraph resolver (no module named
   "H" exists in the index), and the mutation sits one or two calls
   deep — only the .cmt effect summaries can see that the closures
   handed to Pool.run write module-level state. *)

module Pool = struct
  let run f xs = Array.map f xs
end

module H = Race_helpers

let sum xs = Array.fold_left ( + ) 0 xs

let serve tasks =
  Pool.run
    (fun t ->
      H.note "served";
      sum t)
    tasks

let background () = Pool.run (fun () -> H.record "bg") [| () |]
