(* Fixture: a library module that starts its own domains instead of
   running its tasks on Localmodel.Pool. *)

let background f = Domain.spawn f

let both f g =
  let d = Stdlib.Domain.spawn f in
  let y = g () in
  (Domain.join d, y)
