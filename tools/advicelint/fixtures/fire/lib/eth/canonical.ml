(* Fixture: the memo key is built in canonical.ml once per served ball,
   so the module is on the per-node hot set — a per-ball dedup table in
   the key encoder fires, while a per-call table carrying an explicit
   allow stays quiet. *)

let ball_key stamps =
  let seen = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace seen v ()) stamps;
  Hashtbl.length seen

let build_table samples =
  let[@advicelint.allow "hot-alloc"] table = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace table k v) samples;
  table
