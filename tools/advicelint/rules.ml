(* The eight advicelint rules, run over parsetrees.

   Rule ids (stable; used by --rules, --warn-only and the
   [@advicelint.allow "<id>"] suppression attribute):

     domain-race        R1  shared mutable state reachable from a closure
                            passed to View.map_nodes_par / Pool.run;
                            Domain.spawn in lib/ outside lib/shim
     determinism        R2  Stdlib.Random / wall-clock reads in lib/
     poly-compare       R3  polymorphic =, compare, Hashtbl.hash in the
                            hot-path libraries (lib/graph, lib/local,
                            lib/eth); the typed variant lives in
                            Typed_rules and refines this with .cmt info
     mli-coverage       R4  every lib module ships an interface
     exception-hygiene  R5  failwith / assert false in library code
     hot-alloc          R6  List.nth, @, Hashtbl.create in the per-node
                            simulation-path modules
     obs-hygiene        R7  Trace.span_begin not paired with span_end in
                            the same toplevel binding; Obs metric/span
                            names that are not string literals
     io-hygiene         R8  bare open_out / open_out_bin / Out_channel
                            writers in lib/ outside Store.Io — library
                            writes must go through the crash-consistent
                            choke point (temp file + fsync + rename);
                            raw Unix socket calls (socket, bind, listen,
                            accept, connect, read, write, send, recv) in
                            lib/ outside lib/net — byte IO on sockets
                            belongs to the event loop and client, where
                            framing, backpressure and error frames live *)

open Parsetree
module SSet = Callgraph.SSet

type ctx = {
  file : string;  (* display path *)
  hot : bool;  (* file is in a hot-path library (R3) *)
  per_node : bool;  (* file is on the per-node simulation path (R6) *)
  index : Callgraph.t;
  emit : rule:string -> loc:Location.t -> string -> unit;
}

let all_rule_ids =
  [
    "domain-race";
    "determinism";
    "poly-compare";
    "mli-coverage";
    "exception-hygiene";
    "hot-alloc";
    "obs-hygiene";
    "io-hygiene";
  ]

(* Walk every expression of a structure with a plain iterator. *)
let iter_expressions str f =
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun sub e ->
          f e;
          Ast_iterator.default_iterator.expr sub e);
    }
  in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* R2 — determinism *)

let r2_banned lid =
  match Longident.flatten lid with
  | "Random" :: _ | "Stdlib" :: "Random" :: _ ->
      Some
        "Stdlib.Random is seeded ambiently and races across domains; use \
         Netgraph.Prng with an explicit seed"
  | [ "Sys"; "time" ] | [ "Stdlib"; "Sys"; "time" ] ->
      Some
        "wall-clock reads make simulation output irreproducible; thread \
         timestamps in explicitly (timing belongs in bench/, not lib/)"
  | [ "Unix"; ("gettimeofday" | "time" | "gmtime" | "localtime") ] ->
      Some
        "wall-clock reads make simulation output irreproducible; thread \
         timestamps in explicitly (timing belongs in bench/, not lib/)"
  | _ -> None

let run_determinism ctx str =
  iter_expressions str (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; loc } | Pexp_new { txt; loc } -> (
          match r2_banned txt with
          | Some msg -> ctx.emit ~rule:"determinism" ~loc msg
          | None -> ())
      | Pexp_open
          ( { popen_expr = { pmod_desc = Pmod_ident { txt; loc }; _ }; _ },
            _ ) -> (
          match r2_banned txt with
          | Some msg -> ctx.emit ~rule:"determinism" ~loc msg
          | None -> ())
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R3 — polymorphic compare/equality/hash (syntactic part) *)

let is_poly_compare_fn lid =
  match Longident.flatten lid with
  | [ "compare" ] | [ "Stdlib"; "compare" ] -> Some "compare"
  | [ "Hashtbl"; "hash" ] | [ "Stdlib"; "Hashtbl"; "hash" ] ->
      Some "Hashtbl.hash"
  | _ -> None

let is_cmp_operator lid =
  match Longident.flatten lid with
  | [ ("=" | "<>" | "<" | "<=" | ">" | ">=" | "min" | "max") as op ]
  | [ "Stdlib"; ("=" | "<>" | "<" | "<=" | ">" | ">=" | "min" | "max") as op ]
    ->
      Some op
  | _ -> None

(* Operands whose very shape proves the comparison is structural: tuples,
   records, arrays, lists and non-constant constructors.  (Scalar-typed
   operands are the typed analysis' job; see Typed_rules.) *)
let rec is_compound e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> is_compound e
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct (_, Some _) | Pexp_variant (_, Some _) -> true
  | Pexp_construct ({ txt = Longident.Lident ("None" | "[]"); _ }, None) ->
      true
  | _ -> false

let run_poly_compare_syntactic ctx str =
  if ctx.hot then
    let rec walk e =
      match e.pexp_desc with
      | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as fn), args)
        -> (
          (match is_cmp_operator txt with
          | Some op ->
              List.iter
                (fun (_, arg) ->
                  if is_compound arg then
                    ctx.emit ~rule:"poly-compare" ~loc:arg.pexp_loc
                      (Printf.sprintf
                         "structural (%s) on a compound value calls \
                          caml_compare; compare fields monomorphically or \
                          provide a dedicated equal"
                         op))
                args
          | None -> ());
          match is_poly_compare_fn txt with
          | Some name ->
              ctx.emit ~rule:"poly-compare" ~loc:fn.pexp_loc
                (Printf.sprintf
                   "polymorphic %s in a hot-path module; use Int.compare / a \
                    monomorphic comparator"
                   name);
              List.iter (fun (_, arg) -> walk arg) args
          | None -> List.iter (fun (_, arg) -> walk arg) args)
      | Pexp_ident { txt; loc } -> (
          match is_poly_compare_fn txt with
          | Some name ->
              ctx.emit ~rule:"poly-compare" ~loc
                (Printf.sprintf
                   "polymorphic %s passed as a value; every call goes through \
                    caml_compare — use Int.compare / a monomorphic comparator"
                   name)
          | None -> ())
      | _ ->
          let it =
            {
              Ast_iterator.default_iterator with
              expr = (fun _ e' -> walk e');
            }
          in
          Ast_iterator.default_iterator.expr it e
    in
    let it =
      { Ast_iterator.default_iterator with expr = (fun _ e -> walk e) }
    in
    it.structure it str

(* ------------------------------------------------------------------ *)
(* R5 — exception hygiene *)

let run_exception_hygiene ctx str =
  iter_expressions str (fun e ->
      match e.pexp_desc with
      | Pexp_ident { txt; loc } -> (
          match Longident.flatten txt with
          | [ "failwith" ] | [ "Stdlib"; "failwith" ] ->
              ctx.emit ~rule:"exception-hygiene" ~loc
                "failwith raises an anonymous Failure; use invalid_arg \
                 \"Module.fn: ...\" or a structured exception carrying \
                 context"
          | _ -> ())
      | Pexp_assert
          { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
        ->
          ctx.emit ~rule:"exception-hygiene" ~loc:e.pexp_loc
            "assert false in library code aborts with no context; raise \
             invalid_arg \"Module.fn: ...\" (or restructure so the case is \
             impossible by type)"
      | _ -> ())

(* ------------------------------------------------------------------ *)
(* R6 — hot-path allocation *)

let run_hot_alloc ctx str =
  if ctx.per_node then
    iter_expressions str (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt; loc } -> (
            match Longident.flatten txt with
            | [ "List"; ("nth" | "nth_opt") ] ->
                ctx.emit ~rule:"hot-alloc" ~loc
                  "List.nth is O(i) per lookup on the per-node simulation \
                   path; use an array"
            | [ "@" ] | [ "Stdlib"; "@" ] | [ "List"; "append" ] ->
                ctx.emit ~rule:"hot-alloc" ~loc
                  "list append copies its whole left operand on the per-node \
                   simulation path; accumulate with :: and reverse once, or \
                   use arrays"
            | [ "Hashtbl"; "create" ] ->
                ctx.emit ~rule:"hot-alloc" ~loc
                  "per-ball Hashtbl allocation is what the workspace refactor \
                   removed; use Netgraph.Workspace scratch arrays"
            | _ -> ())
        | _ -> ())

(* ------------------------------------------------------------------ *)
(* R1 — domain-race audit *)

(* Module operations that mutate their (first) argument. *)
let mutator_modules =
  [
    ( "Hashtbl",
      [ "add"; "replace"; "remove"; "reset"; "clear"; "filter_map_inplace" ] );
    ("Queue", [ "add"; "push"; "pop"; "take"; "clear"; "transfer" ]);
    ("Stack", [ "push"; "pop"; "clear" ]);
    ("Buffer", [ "clear"; "reset"; "truncate" ]);
    ( "Array",
      [ "set"; "unsafe_set"; "fill"; "blit"; "sort"; "fast_sort"; "stable_sort" ]
    );
    ("Bytes", [ "set"; "unsafe_set"; "fill"; "blit" ]);
  ]

let is_module_mutator lid =
  match Longident.flatten lid with
  | [ m; f ] -> (
      match List.assoc_opt m mutator_modules with
      | Some fns ->
          List.mem f fns
          || (m = "Buffer" && String.length f >= 4 && String.sub f 0 4 = "add_")
      | None -> false)
  | _ -> false

(* Repo functions that mutate a workspace passed as their first argument:
   a captured workspace crossing into a parallel closure defeats the
   per-domain isolation that Workspace.domain_local () provides. *)
let workspace_sinks =
  [
    ("Workspace", [ "add"; "reset"; "ensure" ]);
    ("Traversal", [ "bfs_limited_into" ]);
    ("View", [ "make_with" ]);
  ]

let is_workspace_sink lid =
  match Longident.flatten lid with
  | [ m; f ] -> (
      match List.assoc_opt m workspace_sinks with
      | Some fns -> List.mem f fns
      | None -> false)
  | [ f ] ->
      (* unqualified intra-file use *)
      List.exists (fun (_, fns) -> List.mem f fns) workspace_sinks
  | _ -> false

(* Functions through which access to per-domain state is sanctioned. *)
let is_domain_local lid =
  match List.rev (Longident.flatten lid) with
  | "domain_local" :: _ -> true
  | _ -> false

let is_par_entry lid =
  match List.rev (Longident.flatten lid) with
  | "map_nodes_par" :: _ -> true
  (* Pool.run task closures execute on spawned domains; a bare [run]
     head would also catch unrelated runners, so require the [Pool]
     qualifier (matches Pool.run and Localmodel.Pool.run). *)
  | "run" :: "Pool" :: _ -> true
  | _ -> false

let entry_name lid = String.concat "." (Longident.flatten lid)

(* Local `let f = fun ... ` definitions inside one toplevel item, so a
   closure like (fun () -> chunk lo hi) can be chased into [chunk] even
   though [chunk] is not a toplevel binding.  Scope-naive by design. *)
let collect_local_funs item_expr =
  let tbl = Hashtbl.create 8 in
  let record vb =
    match Callgraph.binding_name vb with
    | Some name -> Hashtbl.replace tbl name vb.pvb_expr
    | None -> ()
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.pexp_desc with
          | Pexp_let (_, vbs, _) -> List.iter record vbs
          | _ -> ());
          Ast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it item_expr;
  tbl

type r1_env = {
  entry : string;  (* e.g. "View.map_nodes_par" *)
  local_funs : (string, expression) Hashtbl.t;
  mutable visited : SSet.t;
  mutable emitted : (string * int * int) list;  (* (file, line, col) *)
}

let r1_emit ctx env ~loc msg =
  let key = (ctx.file, loc.Location.loc_start.pos_lnum,
             loc.Location.loc_start.pos_cnum - loc.Location.loc_start.pos_bol)
  in
  if not (List.mem key env.emitted) then begin
    env.emitted <- key :: env.emitted;
    ctx.emit ~rule:"domain-race" ~loc msg
  end

let rec analyze ctx env ~same_frame ~trace bound expr =
  let self = analyze ctx env ~same_frame ~trace in
  let via =
    match trace with
    | [] -> ""
    | t -> Printf.sprintf " (reached via %s)" (String.concat " -> " (List.rev t))
  in
  match expr.pexp_desc with
  | Pexp_fun (_, default, pat, body) ->
      Option.iter (self bound) default;
      self (Callgraph.pattern_vars bound pat) body
  | Pexp_function cases -> List.iter (analyze_case ctx env ~same_frame ~trace bound) cases
  | Pexp_let (Recursive, vbs, body) ->
      let bound' =
        List.fold_left (fun b vb -> Callgraph.pattern_vars b vb.pvb_pat) bound vbs
      in
      List.iter (fun vb -> self bound' vb.pvb_expr) vbs;
      self bound' body
  | Pexp_let (Nonrecursive, vbs, body) ->
      List.iter (fun vb -> self bound vb.pvb_expr) vbs;
      let bound' =
        List.fold_left (fun b vb -> Callgraph.pattern_vars b vb.pvb_pat) bound vbs
      in
      self bound' body
  | Pexp_match (e, cases) | Pexp_try (e, cases) ->
      self bound e;
      List.iter (analyze_case ctx env ~same_frame ~trace bound) cases
  | Pexp_for (pat, e1, e2, _, body) ->
      self bound e1;
      self bound e2;
      self (Callgraph.pattern_vars bound pat) body
  | Pexp_setfield (target, _, value) ->
      check_write ctx env ~same_frame ~via bound target "record-field write";
      self bound target;
      self bound value
  | Pexp_apply (fn, args) ->
      (match fn.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          let name = entry_name txt in
          match Longident.flatten txt with
          | [ ":=" ] | [ "Stdlib"; ":=" ] -> (
              match args with
              | (_, target) :: _ ->
                  check_write ctx env ~same_frame ~via bound target "ref write (:=)"
              | [] -> ())
          | [ ("incr" | "decr") ] | [ "Stdlib"; ("incr" | "decr") ] -> (
              match args with
              | (_, target) :: _ ->
                  check_write ctx env ~same_frame ~via bound target
                    (name ^ " on a ref")
              | [] -> ())
          | _ ->
              if is_module_mutator txt then
                List.iter
                  (fun (_, arg) ->
                    check_write ctx env ~same_frame ~via bound arg (name ^ " call"))
                  args
              else if is_workspace_sink txt && not (is_domain_local txt) then
                match args with
                | (_, ws_arg) :: _ ->
                    check_workspace ctx env ~same_frame ~via bound ws_arg name
                | [] -> ())
      | _ -> ());
      (match fn.pexp_desc with
      | Pexp_ident { txt; loc } -> ref_ident ctx env ~same_frame ~trace bound txt loc
      | _ -> self bound fn);
      List.iter (fun (_, arg) -> self bound arg) args
  | Pexp_ident { txt; loc } -> ref_ident ctx env ~same_frame ~trace bound txt loc
  | _ ->
      let it =
        { Ast_iterator.default_iterator with expr = (fun _ e -> self bound e) }
      in
      Ast_iterator.default_iterator.expr it expr

and analyze_case ctx env ~same_frame ~trace bound case =
  let bound' = Callgraph.pattern_vars bound case.pc_lhs in
  Option.iter (analyze ctx env ~same_frame ~trace bound') case.pc_guard;
  analyze ctx env ~same_frame ~trace bound' case.pc_rhs

(* A write whose target is an identifier defined neither in the closure
   nor as a sanctioned per-domain handle. *)
and check_write ctx env ~same_frame ~via bound target what =
  match (Callgraph.peel target).pexp_desc with
  | Pexp_ident { txt; loc } -> (
      match Longident.flatten txt with
      | [ name ] when SSet.mem name bound -> ()
      | _ -> (
          match Callgraph.resolve_globals ctx.index ~file:ctx.file txt with
          | g :: _ ->
              r1_emit ctx env ~loc
                (Printf.sprintf
                   "%s mutates module-level %s '%s' (%s:%d) from a closure \
                    passed to %s%s; shared mutable state races across \
                    domains — go through Workspace.domain_local () or \
                    reduce after the join"
                   what g.Callgraph.g_kind g.Callgraph.g_name
                   g.Callgraph.g_file g.Callgraph.g_line env.entry via)
          | [] ->
              if same_frame then
                match txt with
                | Longident.Lident name ->
                    r1_emit ctx env ~loc
                      (Printf.sprintf
                         "%s targets '%s', captured from the enclosing scope \
                          by a closure passed to %s%s; every domain mutates \
                          the same cell — accumulate per-chunk results and \
                          reduce after the join"
                         what name env.entry via)
                | _ -> ()))
  | _ -> ()

(* A captured workspace flowing into a mutating sink inside a parallel
   closure: the workspace must be fetched per domain. *)
and check_workspace ctx env ~same_frame ~via bound ws_arg sink =
  match (Callgraph.peel ws_arg).pexp_desc with
  | Pexp_ident { txt = Longident.Lident name; loc } ->
      if (not (SSet.mem name bound)) && same_frame then
        r1_emit ctx env ~loc
          (Printf.sprintf
             "workspace '%s' captured from the enclosing scope reaches %s \
              inside a closure passed to %s%s; call Workspace.domain_local \
              () inside the closure so each domain gets its own scratch"
             name sink env.entry via)
  | _ -> ()

(* Any reference to module-level mutable state from inside the parallel
   region, read or write, plus transitive descent into repo functions. *)
and ref_ident ctx env ~same_frame ~trace bound lid loc =
  let unqual_bound =
    match lid with Longident.Lident n -> SSet.mem n bound | _ -> false
  in
  if not unqual_bound then begin
    (match Callgraph.resolve_globals ctx.index ~file:ctx.file lid with
    | g :: _ ->
        let via =
          match trace with
          | [] -> ""
          | t ->
              Printf.sprintf " (reached via %s)"
                (String.concat " -> " (List.rev t))
        in
        r1_emit ctx env ~loc
          (Printf.sprintf
             "module-level %s '%s' (%s:%d) is touched from a closure passed \
              to %s%s; shared mutable state races across domains — go \
              through Workspace.domain_local () or pass state explicitly"
             g.Callgraph.g_kind g.Callgraph.g_name g.Callgraph.g_file
             g.Callgraph.g_line env.entry via)
    | [] -> ());
    if List.length trace < 24 then begin
      (* descend into same-item local functions first, then repo toplevels *)
      let name = match List.rev (Longident.flatten lid) with n :: _ -> n | [] -> "" in
      match (lid, Hashtbl.find_opt env.local_funs name) with
      | Longident.Lident _, Some body ->
          let key = ctx.file ^ "#local#" ^ name in
          if not (SSet.mem key env.visited) then begin
            env.visited <- SSet.add key env.visited;
            analyze ctx env ~same_frame ~trace:(name :: trace) SSet.empty body
          end
      | _ -> (
          match Callgraph.resolve_defs ctx.index ~file:ctx.file lid with
          | d :: _ ->
              let key = d.Callgraph.d_file ^ "#" ^ d.Callgraph.d_name in
              if not (SSet.mem key env.visited) then begin
                env.visited <- SSet.add key env.visited;
                let sub_ctx = { ctx with file = d.Callgraph.d_file } in
                analyze sub_ctx env ~same_frame:false
                  ~trace:(d.Callgraph.d_name :: trace) SSet.empty
                  d.Callgraph.d_expr
              end
          | [] -> ())
    end
  end

let run_domain_race ctx str =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              let local_funs = collect_local_funs vb.pvb_expr in
              let it =
                {
                  Ast_iterator.default_iterator with
                  expr =
                    (fun sub e ->
                      (match e.pexp_desc with
                      | Pexp_apply
                          ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
                        when is_par_entry txt ->
                          let env =
                            {
                              entry = entry_name txt;
                              local_funs;
                              visited = SSet.empty;
                              emitted = [];
                            }
                          in
                          List.iter
                            (fun (_, arg) ->
                              match (Callgraph.peel arg).pexp_desc with
                              | Pexp_fun _ | Pexp_function _ ->
                                  analyze ctx env ~same_frame:true ~trace:[]
                                    SSet.empty arg
                              | Pexp_ident { txt = alid; loc } ->
                                  ref_ident ctx env ~same_frame:true ~trace:[]
                                    SSet.empty alid loc
                              | _ -> ())
                            args
                      | _ -> ());
                      Ast_iterator.default_iterator.expr sub e);
                }
              in
              it.expr it vb.pvb_expr)
            vbs
      | _ -> ())
    str

(* ------------------------------------------------------------------ *)
(* R7 — obs hygiene *)

(* [span_begin] / [span_end] references, qualified through Trace (any
   prefix: Trace.span_begin, Obs.Trace.span_begin) or unqualified (the
   intra-module uses inside lib/obs itself). *)
let is_trace_ref last lid =
  match List.rev (Longident.flatten lid) with
  | l :: rest when String.equal l last -> (
      match rest with [] -> true | m :: _ -> String.equal m "Trace")
  | _ -> false

(* Obs entry points whose first argument names a series; the name must be
   a string literal so the set of series is statically enumerable. *)
let obs_named_entry lid =
  match List.rev (Longident.flatten lid) with
  | ("counter" | "gauge" | "histogram") as f :: "Metrics" :: _ ->
      Some ("Metrics." ^ f)
  | ("span" | "span_begin") as f :: "Trace" :: _ -> Some ("Trace." ^ f)
  | _ -> None

let is_string_literal e =
  match (Callgraph.peel e).pexp_desc with
  | Pexp_constant (Pconst_string _) -> true
  | _ -> false

let run_obs_hygiene ctx str =
  List.iter
    (fun item ->
      let begins = ref [] (* locs, reverse traversal order *)
      and end_count = ref 0 in
      let on_expr e =
        match e.pexp_desc with
        | Pexp_ident { txt; loc } ->
            if is_trace_ref "span_begin" txt then begins := loc :: !begins
            else if is_trace_ref "span_end" txt then incr end_count
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args) -> (
            match obs_named_entry txt with
            | None -> ()
            | Some entry -> (
                match
                  List.find_opt (fun (lbl, _) -> lbl = Asttypes.Nolabel) args
                with
                | Some (_, name_arg) when not (is_string_literal name_arg) ->
                    ctx.emit ~rule:"obs-hygiene" ~loc
                      (Printf.sprintf
                         "%s called with a computed name; metric and span \
                          names must be string literals so the series set is \
                          statically enumerable — hoist the name into a \
                          static handle"
                         entry)
                | _ -> ()))
        | _ -> ()
      in
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun sub e ->
              on_expr e;
              Ast_iterator.default_iterator.expr sub e);
        }
      in
      it.structure_item it item;
      let n_begin = List.length !begins in
      if n_begin > !end_count then
        let loc = List.nth !begins (n_begin - 1) (* first in traversal *) in
        ctx.emit ~rule:"obs-hygiene" ~loc
          (Printf.sprintf
             "Trace.span_begin without a matching Trace.span_end in this \
              toplevel binding (%d begin(s), %d end(s)); close the span on \
              every path, or use Trace.span which is exception-safe"
             n_begin !end_count)
      else if !end_count > n_begin then
        ctx.emit ~rule:"obs-hygiene" ~loc:item.pstr_loc
          (Printf.sprintf
             "Trace.span_end without a matching Trace.span_begin in this \
              toplevel binding (%d begin(s), %d end(s)); a stray span_end \
              pops the caller's span stack"
             n_begin !end_count))
    str

(* ------------------------------------------------------------------ *)
(* R8 — io hygiene: library writes go through Store.Io *)

let r8_path_contains path fragment =
  let plen = String.length path and flen = String.length fragment in
  let rec go i =
    i + flen <= plen && (String.sub path i flen = fragment || go (i + 1))
  in
  flen > 0 && go 0

let r8_banned lid =
  match Longident.flatten lid with
  | [ ("open_out" | "open_out_bin" | "open_out_gen") as f ]
  | [ "Stdlib"; (("open_out" | "open_out_bin" | "open_out_gen") as f) ]
  | [
      "Out_channel";
      (("open_text" | "open_bin" | "open_gen" | "with_open_text"
       | "with_open_bin" | "with_open_gen") as f);
    ]
  | [
      "Stdlib";
      "Out_channel";
      (("open_text" | "open_bin" | "open_gen" | "with_open_text"
       | "with_open_bin" | "with_open_gen") as f);
    ] ->
      Some f
  | _ -> None

(* File-offset access: memory-mapping and seeking.  Store.Io.read_range
   is the one sanctioned window reader — it owns bounds clamping, the
   positioned read, and the fault-injection plan, so an ad-hoc map_file
   or lseek elsewhere reads bytes the injury harness cannot see. *)
let r8_mapseek_banned lid =
  match Longident.flatten lid with
  | [ ("Unix" | "UnixLabels"); (("map_file" | "lseek") as f) ]
  | [ ("Unix" | "UnixLabels"); "LargeFile"; ("lseek" as f) ]
  | [ ("seek_in" | "seek_out") as f ]
  | [ "Stdlib"; (("seek_in" | "seek_out") as f) ]
  | [ ("In_channel" | "Out_channel"); ("seek" as f) ]
  | [ "Stdlib"; ("In_channel" | "Out_channel"); ("seek" as f) ] ->
      Some f
  | _ -> None

(* Socket-level byte IO: creating, wiring up, or reading/writing raw
   file descriptors.  Unix.openfile / fsync / close stay legal — they
   are file plumbing, not socket traffic. *)
let r8_socket_banned lid =
  match Longident.flatten lid with
  | [
      ("Unix" | "UnixLabels");
      (("socket" | "socketpair" | "bind" | "listen" | "accept" | "connect"
       | "read" | "write" | "write_substring" | "single_write"
       | "single_write_substring" | "send" | "send_substring" | "sendto"
       | "recv" | "recvfrom") as f);
    ] ->
      Some f
  | _ -> None

let run_io_hygiene ctx str =
  (* Only library code is held to the choke points: Store.Io is the
     sanctioned file writer, lib/net the sanctioned socket owner. *)
  if r8_path_contains ctx.file "lib/" && not (r8_path_contains ctx.file "store/io.ml")
  then
    let in_net = r8_path_contains ctx.file "net/" in
    iter_expressions str (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt; loc } -> (
            match r8_banned txt with
            | Some f ->
                ctx.emit ~rule:"io-hygiene" ~loc
                  (Printf.sprintf
                     "bare %s writes the destination in place; library code \
                      must write through Store.Io.write_file (temp file + \
                      fsync + atomic rename) so a crash never leaves a torn \
                      file"
                     f)
            | None -> (
                match r8_mapseek_banned txt with
                | Some f ->
                    ctx.emit ~rule:"io-hygiene" ~loc
                      (Printf.sprintf
                         "raw %s positions a file offset outside store/; \
                          windowed byte access goes through \
                          Store.Io.read_range, which owns bounds clamping, \
                          the positioned read and the fault-injection \
                          plan — bytes read around it are invisible to the \
                          injury harness"
                         f)
                | None -> (
                    if not in_net then
                      match r8_socket_banned txt with
                      | Some f ->
                          ctx.emit ~rule:"io-hygiene" ~loc
                            (Printf.sprintf
                               "raw Unix.%s outside lib/net; socket byte IO \
                                belongs to the event loop and client \
                                (Net.Conn / Net.Server / Net.Client), where \
                                frame parsing, backpressure and error frames \
                                live — ad-hoc socket code bypasses all three"
                               f)
                      | None -> ())))
        | _ -> ())

(* ------------------------------------------------------------------ *)
(* R1 — one spawn site *)

(* Library code starts no domain of its own: Localmodel.Pool is the
   model-checked way to run parallel work, and its Shim.Real the one
   place lib/ names Domain.spawn. *)
let run_spawn_site ctx str =
  if r8_path_contains ctx.file "lib/" && not (r8_path_contains ctx.file "shim/") then
    iter_expressions str (fun e ->
        match e.pexp_desc with
        | Pexp_ident { txt; loc } -> (
            match Longident.flatten txt with
            | [ "Domain"; "spawn" ] | [ "Stdlib"; "Domain"; "spawn" ] ->
                ctx.emit ~rule:"domain-race" ~loc
                  "Domain.spawn in library code outside lib/shim; run \
                   parallel work through Localmodel.Pool.run, whose \
                   claim, join and failure replay are model-checked"
            | _ -> ())
        | _ -> ())

(* ------------------------------------------------------------------ *)

let run_all ctx ~rules str =
  let enabled r = match rules with None -> true | Some rs -> List.mem r rs in
  if enabled "domain-race" then begin
    run_domain_race ctx str;
    run_spawn_site ctx str
  end;
  if enabled "determinism" then run_determinism ctx str;
  if enabled "poly-compare" then run_poly_compare_syntactic ctx str;
  if enabled "exception-hygiene" then run_exception_hygiene ctx str;
  if enabled "hot-alloc" then run_hot_alloc ctx str;
  if enabled "obs-hygiene" then run_obs_hygiene ctx str;
  if enabled "io-hygiene" then run_io_hygiene ctx str
