(* Fixture: every query passes through router.ml on its way to a slot
   engine, so the module is on the per-node hot set — a list append in
   the per-query owner lookup fires. *)

let owner_of slots v =
  let all = slots @ [ (max_int, -1) ] in
  snd (List.find (fun (hi, _) -> v < hi) all)
