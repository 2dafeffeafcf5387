(* Fixture: the canonical-ball memo's single-writer discipline — a memo
   table published from inside a Pool.run worker races every other
   domain probing it; misses must be deferred and inserted by the caller
   after the join.  memo.ml is on the per-node hot set, so the per-ball
   table allocation fires too. *)

let stores = ref 0

let table : (string, string) Hashtbl.t = Hashtbl.create 64

(* Race: workers publish into the shared memo mid-batch. *)
let serve_memoized keys =
  Pool.run
    (fun key ->
      Hashtbl.replace table key key;
      stores := !stores + 1;
      key)
    keys

(* Captured-table variant: a batch-local memo shared by every worker. *)
let serve_local keys =
  let hot = Hashtbl.create 16 in
  Pool.run
    (fun key ->
      Hashtbl.replace hot key key;
      key)
    keys
