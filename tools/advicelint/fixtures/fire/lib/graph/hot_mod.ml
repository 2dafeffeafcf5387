(* Fixture: rules that fire in a hot module that is not on the per-node
   list (determinism, poly-compare, exception hygiene, mli coverage). *)

let seed () = Random.int 100

let stamp () = Sys.time ()

let same_pair a b = a = (1, 2) && b <> (3, 4)

let sort_ids arr = Array.sort compare arr

let hash_view v = Hashtbl.hash v

let boom () = failwith "hot_mod: boom"

let unreachable () = assert false

let small_nursery () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4096 }
