(* The typed half of the poly-compare rule, run over the .cmt typedtrees
   that dune already emits (-bin-annot is on by default).

   Where the syntactic pass can only flag shapes it can see (bare
   [compare], literal tuples under [=]), the typedtree knows the
   instantiation type of every comparison primitive, so here we flag

   - any comparison primitive passed as a *value* ([Array.sort compare],
     [fold_left max]): the callee receives the generic caml_compare entry
     point no matter how the type is instantiated, and
   - any *application* whose argument type is not a scalar the compiler
     specializes (int, bool, char, unit, string, bytes, float and the
     boxed integers): [=] on graphs, views, options or int arrays is a
     structural deep-walk in the per-ball inner loop, and
   - any application of [min] or [max], at any type: they are ordinary
     polymorphic functions, not primitives, so even [max a b] on ints
     calls the generic compare (use [Int.max]).

   Best effort: if no .cmt is found for a hot file, the syntactic pass
   still stands on its own. *)

let comparison_path p =
  match Path.name p with
  | "Stdlib.=" | "Stdlib.<>" | "Stdlib.compare" | "Stdlib.<" | "Stdlib.<="
  | "Stdlib.>" | "Stdlib.>=" | "Stdlib.min" | "Stdlib.max" ->
      Some (Path.last p)
  | "Stdlib.Hashtbl.hash" | "Hashtbl.hash" -> Some "Hashtbl.hash"
  | _ -> None

let specialized_scalar ty =
  match Types.get_desc ty with
  | Types.Tconstr (p, [], _) -> (
      match Path.name p with
      | "int" | "bool" | "char" | "unit" | "string" | "bytes" | "float"
      | "int32" | "int64" | "nativeint" ->
          true
      | _ -> false)
  | _ -> false

let type_to_string ty =
  Format.asprintf "%a" Printtyp.type_expr ty

(* [emit] receives locations straight from the typedtree; the engine maps
   their files back to display paths. *)
let run ~emit (str : Typedtree.structure) =
  let open Typedtree in
  let rec expr_iter sub (e : expression) =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when comparison_path p <> None ->
        let op = Option.get (comparison_path p) in
        (match
           List.find_map
             (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
             args
         with
        | Some arg when op = "min" || op = "max" ->
            emit ~loc:e.exp_loc
              (Printf.sprintf
                 "Stdlib.%s applied at type %s is a polymorphic function, not \
                  a primitive: every call compares through caml_compare — use \
                  Int.%s / Float.%s"
                 op (type_to_string arg.exp_type) op op)
        | Some arg when not (specialized_scalar arg.exp_type) ->
            emit ~loc:e.exp_loc
              (Printf.sprintf
                 "polymorphic (%s) applied at type %s; the compiler only \
                  specializes scalar comparisons — compare monomorphically"
                 op (type_to_string arg.exp_type))
        | Some _ -> ()
        | None ->
            emit ~loc:e.exp_loc
              (Printf.sprintf
                 "partial application of polymorphic (%s); the closure will \
                  go through caml_compare on every call"
                 op));
        List.iter
          (function _, Some a -> expr_iter sub a | _, None -> ())
          args
    | Texp_ident (p, lid, _) -> (
        match comparison_path p with
        | Some op ->
            emit ~loc:lid.loc
              (Printf.sprintf
                 "polymorphic (%s) passed as a value; every call goes \
                  through caml_compare — use Int.compare / a monomorphic \
                  comparator"
                 op)
        | None -> ())
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr = expr_iter } in
  it.structure it str
