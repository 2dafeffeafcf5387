(* Interprocedural effect inference for the domain-race rule.

   The syntactic R1 audit (rules.ml) descends into helpers through the
   Callgraph index, but that index resolves names purely textually: a
   module alias ([module H = Race_helpers]) or a cross-unit call hides
   the callee, and any mutation the helper performs on module-level
   state escapes the audit.  This pass closes that hole using the
   typedtree: it reads every .cmt under the cmt roots, computes a
   per-function effect summary (which module-level raw-mutable globals
   the function reads or writes, directly or through calls), resolves
   module aliases from [Tstr_module] bindings, and propagates the
   summaries through every closure handed to a parallel entry point
   (Pool.run, map_nodes_par).

   State guarded by design is never flagged: only globals created by a
   raw-mutable maker (ref, Hashtbl/Queue/Stack/Buffer.create,
   Array.make/…, Bytes.…, Workspace.create) register; Atomic.make,
   Mutex.create and Domain.DLS keys do not.  Direct touches inside the
   closure are anchored at the ident, so they dedup against the
   syntactic rule when both fire; helper-mediated findings are anchored
   at the call site inside the closure and carry the reaching path. *)

open Typedtree

type gkey = string * string (* (innermost module, value name) *)

type global = {
  g_kind : string; (* "ref", "Hashtbl.t", ... *)
  g_file : string; (* basename of the defining source *)
  g_line : int;
}

(* Per-function direct effects plus outgoing call edges. *)
type summary = {
  mutable s_touches : (gkey * bool) list; (* (global, is_write) *)
  mutable s_calls : gkey list;
}

(* (global, is_write, call path from the summarised function) *)
type effect_ = gkey * bool * string list

let max_effects_per_summary = 8
let max_findings_per_site = 2

(* ------------------------------------------------------------------ *)
(* Paths and module names *)

let rec flatten = function
  | Path.Pident id -> [ Ident.name id ]
  | Path.Pdot (p, s) -> flatten p @ [ s ]
  | _ -> []

(* Strip dune's wrapping prefix: "Localmodel__Pool" -> "Pool". *)
let innermost m =
  let n = String.length m in
  let rec scan i best =
    if i + 1 >= n then best
    else if m.[i] = '_' && m.[i + 1] = '_' then scan (i + 2) (i + 2)
    else scan (i + 1) best
  in
  let k = scan 0 0 in
  if k = 0 then m else String.sub m k (n - k)

let last2 parts =
  match List.rev parts with
  | name :: qual :: _ -> (innermost qual, name)
  | [ name ] -> ("", name)
  | [] -> ("", "")

let modname_of_source src =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename src))

(* ------------------------------------------------------------------ *)
(* Raw-mutable maker classification (parity with Rules.classify_mutable) *)

let kind_of_maker qual name =
  match (qual, name) with
  | ("" | "Stdlib"), "ref" -> Some "ref"
  | "Hashtbl", "create" -> Some "Hashtbl.t"
  | "Queue", "create" -> Some "Queue.t"
  | "Stack", "create" -> Some "Stack.t"
  | "Buffer", "create" -> Some "Buffer.t"
  | "Workspace", "create" -> Some "workspace"
  | "Array", ("make" | "init" | "create_float" | "copy") -> Some "array"
  | "Bytes", ("make" | "create" | "init") -> Some "bytes"
  | _ -> None

let classify_maker expr =
  match expr.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _ :: _) ->
      let qual, name = last2 (flatten p) in
      kind_of_maker qual name
  | _ -> None

(* In-place mutators on raw containers: a call with a global as an
   argument counts as a write to it. *)
let is_mutator qual name =
  match (qual, name) with
  | ("" | "Stdlib"), (":=" | "incr" | "decr") -> true
  | "Hashtbl", ("add" | "replace" | "remove" | "reset" | "clear" | "filter_map_inplace")
  | "Queue", ("push" | "add" | "pop" | "take" | "clear" | "transfer")
  | "Stack", ("push" | "pop" | "clear")
  | "Buffer", ("add_string" | "add_char" | "add_bytes" | "add_subbytes" | "clear" | "reset")
  | "Array", ("set" | "fill" | "blit" | "unsafe_set" | "sort")
  | "Bytes", ("set" | "fill" | "blit" | "unsafe_set") ->
      true
  | _ -> false

(* Parallel entry points, after unwrapping module prefixes. *)
let par_entry_of parts =
  match last2 parts with
  | _, "map_nodes_par" -> Some "Par.map_nodes_par"
  | "Pool", "run" -> Some "Pool.run"
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-unit context built in pass 1, consumed in pass 2 *)

type unit_ctx = {
  u_module : string; (* unit module name, from the source basename *)
  u_src : string; (* source basename, for display-path pairing *)
  u_str : structure;
  u_aliases : (string, string) Hashtbl.t; (* alias -> target module *)
  u_idents : (string, gkey) Hashtbl.t; (* Ident.unique_name -> global *)
}

let resolve_alias u q =
  let rec go q n =
    if n = 0 then q
    else
      match Hashtbl.find_opt u.u_aliases q with
      | Some q' when q' <> q -> go q' (n - 1)
      | _ -> q
  in
  go q 4

(* Resolve a reference path to a candidate (module, name) key.  A bare
   ident resolves through the unit's stamp table when it names a
   registered global (shadowing-safe); otherwise it keys the unit's own
   namespace.  Qualified idents resolve their innermost qualifier
   through the alias table. *)
let resolve_ref u p =
  match p with
  | Path.Pident id -> (
      match Hashtbl.find_opt u.u_idents (Ident.unique_name id) with
      | Some key -> key
      | None -> (u.u_module, Ident.name id))
  | _ ->
      let qual, name = last2 (flatten p) in
      if qual = "" then (u.u_module, name) else (resolve_alias u qual, name)

(* The variable a binding introduces.  A type-constrained binding
   ([let x : t = e]) elaborates to [Tpat_alias], not [Tpat_var]. *)
let binding_var pat =
  match pat.pat_desc with
  | Tpat_var (id, nameloc) -> Some (id, nameloc)
  | Tpat_alias (_, id, nameloc) -> Some (id, nameloc)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Pass 1: globals, aliases, ident stamps *)

let collect_unit globals u =
  let rec structure mname str =
    List.iter (item mname) str.str_items
  and item mname it =
    match it.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match (binding_var vb.vb_pat, classify_maker vb.vb_expr) with
            | Some (id, nameloc), Some kind ->
                let key = (mname, Ident.name id) in
                Hashtbl.replace globals key
                  {
                    g_kind = kind;
                    g_file = u.u_src;
                    g_line = nameloc.loc.Location.loc_start.pos_lnum;
                  };
                Hashtbl.replace u.u_idents (Ident.unique_name id) key
            | _ -> ())
          vbs
    | Tstr_module mb -> module_binding mb
    | Tstr_recmodule mbs -> List.iter module_binding mbs
    | _ -> ()
  and module_binding mb =
    match mb.mb_name.txt with
    | None -> ()
    | Some name -> (
        match unconstrained mb.mb_expr with
        | { mod_desc = Tmod_ident (p, _); _ } -> (
            match List.rev (flatten p) with
            | target :: _ ->
                Hashtbl.replace u.u_aliases name (innermost target)
            | [] -> ())
        | { mod_desc = Tmod_structure s; _ } -> structure name s
        | _ -> ())
  and unconstrained me =
    match me.mod_desc with Tmod_constraint (me', _, _, _) -> unconstrained me' | _ -> me
  in
  structure u.u_module u.u_str

(* ------------------------------------------------------------------ *)
(* Pass 2a: effect summaries for every module-level binding *)

(* Walk an expression, reporting global touches and call edges. *)
let walk_expr u ~globals ~on_touch ~on_call expr =
  let super = Tast_iterator.default_iterator in
  let expr_it it (e : expression) =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        let qual, name = last2 (flatten p) in
        if is_mutator qual name then
          List.iter
            (fun (_, arg) ->
              match arg with
              | Some { exp_desc = Texp_ident (q, _, _); exp_loc; _ } ->
                  let key = resolve_ref u q in
                  if Hashtbl.mem globals key then on_touch key true exp_loc
              | _ -> ())
            args
    | Texp_setfield ({ exp_desc = Texp_ident (q, _, _); exp_loc; _ }, _, _, _)
      ->
        let key = resolve_ref u q in
        if Hashtbl.mem globals key then on_touch key true exp_loc
    | Texp_ident (p, _, _) ->
        let key = resolve_ref u p in
        if Hashtbl.mem globals key then on_touch key false e.exp_loc
        else on_call key e.exp_loc
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr = expr_it } in
  it.expr it expr

let summarize_unit u ~globals ~summaries =
  let rec structure mname str = List.iter (item mname) str.str_items
  and item mname it =
    match it.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            match binding_var vb.vb_pat with
            | Some (id, _) ->
                let s = { s_touches = []; s_calls = [] } in
                walk_expr u ~globals
                  ~on_touch:(fun key write _loc ->
                    if not (List.mem (key, write) s.s_touches) then
                      s.s_touches <- (key, write) :: s.s_touches)
                  ~on_call:(fun key _loc ->
                    if not (List.mem key s.s_calls) then
                      s.s_calls <- key :: s.s_calls)
                  vb.vb_expr;
                Hashtbl.replace summaries (mname, Ident.name id) s
            | _ -> ())
          vbs
    | Tstr_module mb -> (
        match mb.mb_name.txt with
        | Some name -> (
            match mb.mb_expr.mod_desc with
            | Tmod_structure s -> structure name s
            | _ -> ())
        | None -> ())
    | _ -> ()
  in
  structure u.u_module u.u_str

(* ------------------------------------------------------------------ *)
(* Transitive closure over summaries, memoised, cycle-safe *)

let reach ~summaries : gkey -> effect_ list =
  let memo : (gkey, effect_ list) Hashtbl.t = Hashtbl.create 64 in
  let in_progress : (gkey, unit) Hashtbl.t = Hashtbl.create 8 in
  let rec go key =
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
        if Hashtbl.mem in_progress key then []
        else (
          match Hashtbl.find_opt summaries key with
          | None -> []
          | Some s ->
              Hashtbl.replace in_progress key ();
              (* writes before reads, so the strongest access to a
                 global is the one reported *)
              let own =
                List.map
                  (fun (g, w) -> (g, w, []))
                  (List.stable_sort
                     (fun (_, w1) (_, w2) -> Bool.compare w2 w1)
                     s.s_touches)
              in
              let via =
                List.concat_map
                  (fun callee ->
                    List.map
                      (fun (g, w, path) -> (g, w, snd callee :: path))
                      (go callee))
                  s.s_calls
              in
              Hashtbl.remove in_progress key;
              (* dedup by (global, access), own effects first so the
                 shortest reaching path wins *)
              let seen = Hashtbl.create 8 in
              let r =
                List.filter
                  (fun (g, w, _) ->
                    if Hashtbl.mem seen (g, w) then false
                    else (
                      Hashtbl.replace seen (g, w) ();
                      true))
                  (own @ via)
              in
              let r =
                if List.length r > max_effects_per_summary then
                  List.filteri (fun i _ -> i < max_effects_per_summary) r
                else r
              in
              Hashtbl.replace memo key r;
              r)
  in
  go

(* ------------------------------------------------------------------ *)
(* Pass 2b: parallel entry sites *)

let pp_gkey (m, n) = m ^ "." ^ n

let report_site u ~globals ~reach ~emit ~entry arg =
  let emitted = ref 0 in
  (* one finding per global per site: the first (strongest) access wins *)
  let seen_globals = Hashtbl.create 4 in
  let emit_finding ~gkey ~loc msg =
    if !emitted < max_findings_per_site && not (Hashtbl.mem seen_globals gkey)
    then begin
      Hashtbl.replace seen_globals gkey ();
      incr emitted;
      emit ~loc msg
    end
  in
  walk_expr u ~globals
    ~on_touch:(fun key _write loc ->
      let g = Hashtbl.find globals key in
      emit_finding ~gkey:key ~loc
        (Printf.sprintf
           "module-level %s '%s' (%s:%d) is shared with a closure passed to \
            %s; shared mutable state races across domains — go through \
            Workspace.domain_local () or reduce after the join"
           g.g_kind (pp_gkey key) g.g_file g.g_line entry))
    ~on_call:(fun key loc ->
      List.iter
        (fun (gkey, write, path) ->
          let g = Hashtbl.find globals gkey in
          let via =
            match path with
            | [] -> ""
            | _ ->
                Printf.sprintf " (reached via %s)"
                  (String.concat " -> " (snd key :: path))
          in
          emit_finding ~gkey ~loc
            (Printf.sprintf
               "call to '%s' inside a closure passed to %s %s module-level \
                %s '%s' (%s:%d)%s; shared mutable state races across domains \
                — go through Workspace.domain_local () or reduce after the \
                join"
               (pp_gkey key) entry
               (if write then "writes" else "reads")
               g.g_kind (pp_gkey gkey) g.g_file g.g_line via))
        (reach key))
    arg

let scan_par_sites u ~globals ~reach ~emit =
  let super = Tast_iterator.default_iterator in
  let expr_it it (e : expression) =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        match par_entry_of (flatten p) with
        | Some entry ->
            List.iter
              (fun (_, arg) ->
                match arg with
                | Some a -> report_site u ~globals ~reach ~emit ~entry a
                | None -> ())
              args
        | None -> ())
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr = expr_it } in
  it.structure it u.u_str

(* ------------------------------------------------------------------ *)

(* Run the interprocedural audit over [cmt_files].  Effects are
   inferred for every compilation unit found, but findings are only
   emitted for units whose source basename [display_of_base] maps to a
   scanned file (reported under that display path). *)
let run ~cmt_files ~display_of_base ~emit =
  let units =
    List.filter_map
      (fun path ->
        match Cmt_format.read_cmt path with
        | { cmt_annots = Implementation str; cmt_sourcefile = Some src; _ } ->
            Some
              {
                u_module = modname_of_source src;
                u_src = Filename.basename src;
                u_str = str;
                u_aliases = Hashtbl.create 8;
                u_idents = Hashtbl.create 16;
              }
        | _ -> None
        | exception _ -> None)
      cmt_files
  in
  let globals = Hashtbl.create 32 in
  List.iter (fun u -> collect_unit globals u) units;
  let summaries = Hashtbl.create 128 in
  List.iter (fun u -> summarize_unit u ~globals ~summaries) units;
  let reach = reach ~summaries in
  List.iter
    (fun u ->
      match display_of_base u.u_src with
      | None -> ()
      | Some display ->
          scan_par_sites u ~globals ~reach
            ~emit:(fun ~loc msg -> emit ~file:display ~loc msg))
    units
