(* Scanning, parsing, suppression and orchestration for advicelint.

   The pass reads every .ml under the given roots, runs the parsetree
   rules (Rules), overlays the typedtree refinement (Typed_rules) for any
   hot file whose .cmt is found under the cmt roots, applies
   [@advicelint.allow "<rule-id>"] suppressions, and returns a
   deterministically ordered diagnostic list. *)

type format = Text | Json

type config = {
  roots : string list;
  cmt_roots : string list;
  rules : string list option;  (* None = all *)
  hot_dirs : string list;  (* substring match against display paths *)
  per_node_basenames : string list;
  warn_only : string list;  (* rules downgraded to Warning *)
  format : format;
  exit_zero : bool;
  cache_file : string option;  (* incremental per-file cache, or None *)
}

let default_config =
  {
    roots = [];
    cmt_roots = [];
    rules = None;
    hot_dirs = [ "lib/graph"; "lib/local"; "lib/eth"; "lib/store"; "lib/serve" ];
    per_node_basenames =
      [
        "view.ml"; "traversal.ml"; "workspace.ml"; "graph.ml"; "rounds.ml";
        "engine.ml"; "cache.ml"; "pool.ml"; "memo.ml"; "canonical.ml";
        "router.ml"; "center_decode.ml";
      ];
    warn_only = [];
    format = Text;
    exit_zero = false;
    cache_file = None;
  }

(* ------------------------------------------------------------------ *)
(* File discovery *)

let is_hidden name =
  String.length name > 0 && (name.[0] = '.' || name.[0] = '_')

let rec scan_tree ~keep_hidden acc path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc entry ->
        if (not keep_hidden) && is_hidden entry then acc
        else scan_tree ~keep_hidden acc (Filename.concat path entry))
      acc
      (let entries = Sys.readdir path in
       Array.sort String.compare entries;
       entries)
  else path :: acc

let scan_sources root =
  if not (Sys.file_exists root) then []
  else
    scan_tree ~keep_hidden:false [] root
    |> List.filter (fun p -> Filename.check_suffix p ".ml")
    |> List.sort String.compare

let scan_interfaces root =
  if not (Sys.file_exists root) then []
  else
    scan_tree ~keep_hidden:false [] root
    |> List.filter (fun p -> Filename.check_suffix p ".mli")
    |> List.sort String.compare

let scan_cmts root =
  if not (Sys.file_exists root) then []
  else
    scan_tree ~keep_hidden:true [] root
    |> List.filter (fun p -> Filename.check_suffix p ".cmt")
    |> List.sort String.compare

(* ------------------------------------------------------------------ *)
(* Parsing *)

let parse_impl path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf path;
      Parse.implementation lexbuf)

(* ------------------------------------------------------------------ *)
(* Incremental cache.

   Keyed by per-file content digest under a rule-set hash: an entry
   stores the parsed AST and the diagnostics of the file-local rules,
   so an unchanged file is neither re-parsed nor re-linted.  Cross-file
   passes (domain-race descent through the Callgraph, mli-coverage, the
   typedtree refinements) always re-run over the full tree — they can
   be invalidated by edits to *other* files, so their results are never
   cached.  Any mismatch (format version, compiler version, rule
   selection, severity config) silently drops the whole cache. *)

let cache_format_version = "advicelint-cache-1"

type cache_entry = {
  ce_digest : Digest.t;
  ce_ast : Parsetree.structure;
  ce_local : (Diag.t * int) list;  (* file-local diags, with offsets *)
}

type cache_data = {
  cf_version : string;
  cf_rules_hash : Digest.t;
  cf_entries : (string * cache_entry) list;
}

let rules_hash cfg =
  Digest.string
    (String.concat "\x00"
       ((cache_format_version :: Sys.ocaml_version
         :: (match cfg.rules with None -> [ "<all>" ] | Some rs -> rs))
       @ ("warn:" :: cfg.warn_only)
       @ ("hot:" :: cfg.hot_dirs)
       @ ("pernode:" :: cfg.per_node_basenames)))

let load_cache cfg =
  match cfg.cache_file with
  | None -> None
  | Some path -> (
      match open_in_bin path with
      | exception Sys_error _ -> None
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              match (Marshal.from_channel ic : cache_data) with
              | cf
                when cf.cf_version = cache_format_version
                     && cf.cf_rules_hash = rules_hash cfg ->
                  let tbl = Hashtbl.create 64 in
                  List.iter
                    (fun (p, e) -> Hashtbl.replace tbl p e)
                    cf.cf_entries;
                  Some tbl
              | _ -> None
              | exception _ -> None))

let save_cache cfg entries =
  match cfg.cache_file with
  | None -> ()
  | Some path -> (
      let tmp = path ^ ".tmp" in
      try
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            Marshal.to_channel oc
              {
                cf_version = cache_format_version;
                cf_rules_hash = rules_hash cfg;
                cf_entries = entries;
              }
              []);
        Sys.rename tmp path
      with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Suppression: [@advicelint.allow "rule"] / [@@@advicelint.allow] *)

type allow_span = {
  a_base : string;  (* basename of the file the span lives in *)
  a_start : int;  (* pos_cnum offsets *)
  a_end : int;
  a_rules : string list;  (* [] = all rules *)
}

let payload_strings (payload : Parsetree.payload) =
  let acc = ref [] in
  (match payload with
  | PStr str ->
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun sub e ->
              (match e.pexp_desc with
              | Pexp_constant (Pconst_string (s, _, _)) -> acc := s :: !acc
              | _ -> ());
              Ast_iterator.default_iterator.expr sub e);
        }
      in
      it.structure it str
  | _ -> ());
  List.rev !acc

let allow_attr (attrs : Parsetree.attributes) =
  List.find_map
    (fun (a : Parsetree.attribute) ->
      if a.attr_name.txt = "advicelint.allow" then
        Some (payload_strings a.attr_payload)
      else None)
    attrs

let collect_allow_spans ~file str =
  let base = Filename.basename file in
  let spans = ref [] in
  let record (loc : Location.t) rules =
    spans :=
      {
        a_base = base;
        a_start = loc.loc_start.pos_cnum;
        a_end = loc.loc_end.pos_cnum;
        a_rules = rules;
      }
      :: !spans
  in
  let it =
    {
      Ast_iterator.default_iterator with
      structure_item =
        (fun sub item ->
          (match item.pstr_desc with
          | Pstr_attribute a when a.attr_name.txt = "advicelint.allow" ->
              (* floating attribute: applies to the whole file *)
              record
                {
                  item.pstr_loc with
                  loc_start = { item.pstr_loc.loc_start with pos_cnum = 0 };
                  loc_end = { item.pstr_loc.loc_end with pos_cnum = max_int };
                }
                (payload_strings a.attr_payload)
          | Pstr_eval (_, attrs) -> (
              match allow_attr attrs with
              | Some rules -> record item.pstr_loc rules
              | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.structure_item sub item);
      value_binding =
        (fun sub vb ->
          (match allow_attr vb.pvb_attributes with
          | Some rules -> record vb.pvb_loc rules
          | None -> ());
          Ast_iterator.default_iterator.value_binding sub vb);
      expr =
        (fun sub e ->
          (match allow_attr e.pexp_attributes with
          | Some rules -> record e.pexp_loc rules
          | None -> ());
          Ast_iterator.default_iterator.expr sub e);
    }
  in
  it.structure it str;
  !spans

let suppressed spans (d : Diag.t) ~offset =
  List.exists
    (fun s ->
      s.a_base = Filename.basename d.Diag.file
      && offset >= s.a_start && offset <= s.a_end
      && (s.a_rules = [] || List.mem d.Diag.rule s.a_rules))
    spans

(* ------------------------------------------------------------------ *)

let path_contains path fragment =
  let plen = String.length path and flen = String.length fragment in
  let rec go i =
    i + flen <= plen && (String.sub path i flen = fragment || go (i + 1))
  in
  flen > 0 && go 0

let classify cfg path =
  let hot = List.exists (path_contains path) cfg.hot_dirs in
  let per_node = hot && List.mem (Filename.basename path) cfg.per_node_basenames in
  (hot, per_node)

let rule_enabled cfg r =
  match cfg.rules with None -> true | Some rs -> List.mem r rs

let severity_of cfg rule =
  if List.mem rule cfg.warn_only then Diag.Warning else Diag.Error

(* ------------------------------------------------------------------ *)

type result = {
  diagnostics : Diag.t list;
  files_scanned : int;
  files_reused : int;  (* served from the incremental cache *)
}

(* Rules whose result depends only on the file itself — cacheable.
   domain-race descends into other files through the Callgraph, so it
   is re-run over the full tree on every invocation. *)
let local_rules cfg =
  List.filter
    (fun r -> r <> "domain-race")
    (match cfg.rules with None -> Rules.all_rule_ids | Some rs -> rs)

let run cfg =
  let sources = List.concat_map scan_sources cfg.roots in
  let interfaces = List.concat_map scan_interfaces cfg.roots in
  let raw = ref [] in
  (* diag accumulated with its start offset for suppression matching *)
  let emit_at ~rule ~file (loc : Location.t) msg =
    let d = Diag.of_location ~rule ~severity:(severity_of cfg rule) ~file loc msg in
    raw := (d, loc.loc_start.pos_cnum) :: !raw
  in
  (* Parse everything first: the domain-race audit needs a cross-file
     index before any per-file rule runs.  An unchanged file (same
     content digest under the same rule-set hash) is served from the
     incremental cache instead: its AST is reused and its file-local
     diagnostics replayed without a parse or a rule pass. *)
  let cache = load_cache cfg in
  let files_reused = ref 0 in
  let entries =
    List.filter_map
      (fun path ->
        let digest = try Digest.file path with Sys_error _ -> "" in
        let cached =
          match cache with
          | Some tbl -> (
              match Hashtbl.find_opt tbl path with
              | Some e when e.ce_digest = digest && digest <> "" -> Some e
              | _ -> None)
          | None -> None
        in
        match cached with
        | Some e ->
            incr files_reused;
            Some (path, e, true)
        | None -> (
            match parse_impl path with
            | str ->
                Some
                  (path, { ce_digest = digest; ce_ast = str; ce_local = [] },
                   false)
            | exception e ->
                let msg =
                  match e with
                  | Syntaxerr.Error _ -> "syntax error"
                  | e -> Printexc.to_string e
                in
                emit_at ~rule:"parse" ~file:path Location.none
                  (Printf.sprintf "cannot parse: %s" msg);
                None))
      sources
  in
  let parsed = List.map (fun (path, e, _) -> (path, e.ce_ast)) entries in
  let index = Callgraph.create () in
  List.iter (fun (path, str) -> Callgraph.of_file index ~file:path str) parsed;
  let spans =
    List.concat_map (fun (path, str) -> collect_allow_spans ~file:path str) parsed
  in
  (* File-local parsetree rules: replayed from the cache for unchanged
     files, computed (and recorded for next time) for the rest. *)
  let entries =
    List.map
      (fun (path, e, reused) ->
        if reused then begin
          List.iter (fun (d, off) -> raw := (d, off) :: !raw) e.ce_local;
          (path, e)
        end
        else begin
          let hot, per_node = classify cfg path in
          let captured = ref [] in
          let ctx =
            {
              Rules.file = path;
              hot;
              per_node;
              index;
              emit =
                (fun ~rule ~loc msg ->
                  let d =
                    Diag.of_location ~rule
                      ~severity:(severity_of cfg rule)
                      ~file:path loc msg
                  in
                  captured := (d, loc.Location.loc_start.pos_cnum) :: !captured);
            }
          in
          Rules.run_all ctx ~rules:(Some (local_rules cfg)) e.ce_ast;
          raw := !captured @ !raw;
          (path, { e with ce_local = !captured })
        end)
      entries
  in
  save_cache cfg entries;
  (* Cross-file domain-race descent, over every file regardless of the
     cache: an edit elsewhere can change what a closure reaches. *)
  if rule_enabled cfg "domain-race" then
    List.iter
      (fun (path, str) ->
        let hot, per_node = classify cfg path in
        let ctx =
          {
            Rules.file = path;
            hot;
            per_node;
            index;
            emit = (fun ~rule ~loc msg -> emit_at ~rule ~file:path loc msg);
          }
        in
        Rules.run_all ctx ~rules:(Some [ "domain-race" ]) str)
      parsed;
  (* R4 — mli coverage *)
  if rule_enabled cfg "mli-coverage" then begin
    let have_mli =
      List.fold_left
        (fun acc p -> Callgraph.SSet.add (Filename.remove_extension p) acc)
        Callgraph.SSet.empty interfaces
    in
    List.iter
      (fun path ->
        if not (Callgraph.SSet.mem (Filename.remove_extension path) have_mli)
        then
          emit_at ~rule:"mli-coverage" ~file:path Location.none
            "module has no .mli; every library module must declare its \
             interface (R4)")
      sources
  end;
  (* Typed refinement of poly-compare over any .cmt we can pair with a
     scanned hot file (matched by basename; all lib basenames are
     unique). *)
  if rule_enabled cfg "poly-compare" then begin
    let hot_by_base = Hashtbl.create 32 in
    List.iter
      (fun (path, _) ->
        let hot, _ = classify cfg path in
        if hot then Hashtbl.replace hot_by_base (Filename.basename path) path)
      parsed;
    List.iter
      (fun cmt_path ->
        match Cmt_format.read_cmt cmt_path with
        | { cmt_annots = Implementation tstr; cmt_sourcefile = Some src; _ } -> (
            match Hashtbl.find_opt hot_by_base (Filename.basename src) with
            | Some display ->
                Typed_rules.run tstr ~emit:(fun ~loc msg ->
                    emit_at ~rule:"poly-compare" ~file:display loc msg)
            | None -> ())
        | _ -> ()
        | exception _ -> ())
      (List.concat_map scan_cmts cfg.cmt_roots)
  end;
  (* Interprocedural domain-race: per-function effect summaries from
     every .cmt under the cmt roots, propagated through closures handed
     to parallel entry points.  Catches helper-hidden mutation the
     syntactic audit cannot resolve (module aliases, cross-unit calls);
     direct touches anchor at the same position as the syntactic rule
     and dedup against it. *)
  if rule_enabled cfg "domain-race" then begin
    let by_base = Hashtbl.create 32 in
    List.iter
      (fun (path, _) -> Hashtbl.replace by_base (Filename.basename path) path)
      parsed;
    Effects.run
      ~cmt_files:(List.concat_map scan_cmts cfg.cmt_roots)
      ~display_of_base:(fun base -> Hashtbl.find_opt by_base base)
      ~emit:(fun ~file ~loc msg -> emit_at ~rule:"domain-race" ~file loc msg)
  end;
  (* Suppress, dedup, order. *)
  let seen = Hashtbl.create 64 in
  let diagnostics =
    !raw
    |> List.filter (fun (d, off) -> not (suppressed spans d ~offset:off))
    |> List.map fst
    |> List.sort Diag.compare
    |> List.filter (fun d ->
           let k = Diag.dedup_key d in
           if Hashtbl.mem seen k then false
           else begin
             Hashtbl.replace seen k ();
             true
           end)
  in
  {
    diagnostics;
    files_scanned = List.length sources;
    files_reused = !files_reused;
  }

(* ------------------------------------------------------------------ *)

let print_text result =
  List.iter (fun d -> print_endline (Diag.to_text d)) result.diagnostics;
  let errors =
    List.length
      (List.filter (fun d -> d.Diag.severity = Diag.Error) result.diagnostics)
  in
  let warnings = List.length result.diagnostics - errors in
  Printf.printf "advicelint: %d file%s, %d error%s, %d warning%s\n"
    result.files_scanned
    (if result.files_scanned = 1 then "" else "s")
    errors
    (if errors = 1 then "" else "s")
    warnings
    (if warnings = 1 then "" else "s")

let print_json result =
  print_endline "{";
  Printf.printf "  \"files_scanned\": %d,\n" result.files_scanned;
  Printf.printf "  \"files_reused\": %d,\n" result.files_reused;
  Printf.printf "  \"rules\": [%s],\n"
    (String.concat ", "
       (List.map (fun r -> "\"" ^ r ^ "\"") Rules.all_rule_ids));
  Printf.printf "  \"diagnostics\": [\n%s\n  ]\n"
    (String.concat ",\n"
       (List.map (fun d -> "    " ^ Diag.to_json d) result.diagnostics));
  print_endline "}"

(* Exit status: 1 iff any error-severity diagnostic (unless exit_zero). *)
let report cfg result =
  (match cfg.format with Text -> print_text result | Json -> print_json result);
  if cfg.exit_zero then 0
  else if List.exists (fun d -> d.Diag.severity = Diag.Error) result.diagnostics
  then 1
  else 0
