(* advice_store: pack a graph + C4 advice into a binary snapshot, dump a
   snapshot's framing, and serve per-node queries from it by ball-local
   decompression.

   Examples:
     dune exec bin/advice_store.exe -- pack --graph cycle --n 400 --out g.ladv
     dune exec bin/advice_store.exe -- inspect g.ladv
     dune exec bin/advice_store.exe -- serve g.ladv --batch queries.txt
*)

open Netgraph
open Cmdliner

let n_term =
  Arg.(value & opt int 400 & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Number of nodes.")

let seed_term =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed for the stored edge subset.")

let graph_term =
  Arg.(
    value
    & opt (enum [ ("cycle", `Cycle); ("circulant", `Circulant) ]) `Cycle
    & info [ "graph" ] ~docv:"KIND"
        ~doc:"Graph family: cycle or circulant (the C4 one-bit schema \
              needs long geodesics, so serving sticks to sparse families \
              whose balls stay small).")

let input_term =
  Arg.(
    value
    & opt (some file) None
    & info [ "input" ] ~docv:"FILE"
        ~doc:"Load the graph from an edge-list file instead of generating \
              one (strict parse: self-loops and duplicate edges are \
              rejected with their line number).")

let metrics_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Record obs metrics and trace spans during the run and write \
              the JSON snapshot to $(docv) ('-' for stdout).")

let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
      Obs.Trace.set_clock (fun () ->
          Int64.of_float (Unix.gettimeofday () *. 1e9));
      Obs.Sink.enable ();
      Fun.protect
        ~finally:(fun () -> Obs.Sink.disable ())
        (fun () ->
          f ();
          if path = "-" then
            Obs.Jsonout.to_channel stdout (Obs.Sink.json ~events:32 ())
          else begin
            Obs.Sink.write_json ~events:32 path;
            Format.printf "wrote %s (obs metrics snapshot)@." path
          end)

(* Snapshot damage is an expected condition for this tool, not a crash:
   report the codec's diagnostic and exit non-zero. *)
let or_corrupt f =
  match f () with
  | () -> ()
  | exception Store.Codec.Corrupt msg ->
      Format.eprintf "corrupt snapshot: %s@." msg;
      exit 2

(* Numeric flags are usage errors, checked before any pack or open:
   one line on stderr and exit 2. *)
let at_least cmd flag ~min v =
  match v with
  | Some v when v < min ->
      Format.eprintf "%s: --%s must be at least %d (got %d)@." cmd flag min v;
      exit 2
  | _ -> ()

let within cmd flag ~min ~max v =
  if v < min || v > max then begin
    Format.eprintf "%s: --%s must be in %d..%d (got %d)@." cmd flag min max v;
    exit 2
  end

(* A malformed edge list, or a graph the schema cannot encode, is an
   input error: one line on stderr and exit 2. *)
let input_error fmt =
  Format.kasprintf
    (fun msg ->
      Format.eprintf "pack: %s@." msg;
      exit 2)
    fmt

let build ?input kind n =
  match input with
  | Some path -> (
      match Graphio.load path with
      | g -> g
      | exception Invalid_argument msg -> input_error "--input %s: %s" path msg)
  | None -> (
      match kind with
      | `Cycle -> Builders.cycle (max 3 n)
      | `Circulant -> Builders.circulant (max 5 n) [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* pack *)

let out_term =
  Arg.(
    required
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Snapshot file to write.")

let sample_term =
  Arg.(
    value & opt int 0
    & info [ "sample" ] ~docv:"K"
        ~doc:"Certify the serve radius on $(docv) evenly spaced nodes \
              instead of every node (0 = exhaustive).")

let pack_shards_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"S"
        ~doc:"Write a version-2 sharded container: the node-id space \
              splits into $(docv) contiguous ranges, each serialized \
              (in parallel across --domains) with a halo deep enough \
              that every interior ball decodes shard-locally.  Omitted: \
              the monolithic version-1 snapshot.")

let domains_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"D"
        ~doc:"Domains for the parallel fan-outs, fitted to the machine's \
              cores (default: $(b,LOCAL_ADVICE_DOMAINS), else every core).")

let pack_cmd =
  let run kind n seed input out sample shards domains metrics =
    at_least "pack" "shards" ~min:1 shards;
    at_least "pack" "domains" ~min:1 domains;
    at_least "pack" "sample" ~min:0 (Some sample);
    let domains = Localmodel.Pool.effective_domains ?requested:domains () in
    with_metrics metrics @@ fun () ->
    let g = build ?input kind n in
    let rng = Prng.create seed in
    let x = Bitset.create (Graph.m g) in
    Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
    let budget =
      Graph.fold_nodes
        (fun v acc -> acc + Schemas.Edge_compression.bits_bound (Graph.degree g v))
        g 0
    in
    Format.printf "packed: n=%d m=%d subset=%d edges@." (Graph.n g) (Graph.m g)
      (Bitset.cardinal x);
    let snapshot, cert =
      match Serve.Pack.edge_compression ~sample ~domains g x with
      | packed -> packed
      | exception
          ( Advice.Onebit.Conversion_failure msg
          | Schemas.Balanced_orientation.Encoding_failure msg ) ->
          input_error "cannot encode the graph: %s" msg
    in
    (* Serialize exactly once: a second write just to learn the size
       would double-count store.bytes_written. *)
    let bytes =
      match shards with
      | None ->
          let bytes = Store.Snapshot.write snapshot in
          Format.printf
            "advice: %d bits on the wire (paper budget Σ⌈d/2⌉+1 = %d)@."
            (Store.Snapshot.advice_payload_bits snapshot ~name:"c4")
            budget;
          bytes
      | Some s ->
          let bytes =
            Store.Shard.build ~domains ~shards:s
              ~halo:(max cert.Serve.Pack.radius 1) snapshot
          in
          let man = Store.Shard.manifest (Store.Shard.open_bytes bytes) in
          let widest =
            Array.fold_left
              (fun acc i -> max acc i.Store.Shard.i_bytes)
              0 man.Store.Shard.m_shards
          in
          (* The plan clamps the requested count to the node count. *)
          Format.printf
            "sharded: %d shard(s), halo %d, widest frame %d bytes@."
            (Array.length man.Store.Shard.m_shards)
            man.Store.Shard.m_halo widest;
          bytes
    in
    Store.Io.write_file out bytes;
    Format.printf "certified: serve radius %d (%s of %d nodes checked)@."
      cert.Serve.Pack.radius
      (if cert.Serve.Pack.exhaustive then "all" else "sample")
      cert.Serve.Pack.checked;
    Format.printf "wrote %s (%d bytes)@." out (String.length bytes)
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:"Compress a seeded random edge subset of a graph into a \
             snapshot with a certified serve radius (C4); --shards writes \
             the sharded lazily-loadable container instead.")
    Term.(
      const run $ graph_term $ n_term $ seed_term $ input_term $ out_term
      $ sample_term $ pack_shards_term $ domains_term $ metrics_term)

(* ------------------------------------------------------------------ *)
(* inspect *)

let snapshot_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"SNAPSHOT" ~doc:"Snapshot file to read.")

let tag_name tag =
  if tag = Store.Snapshot.tag_graph then "graph"
  else if tag = Store.Snapshot.tag_advice then "advice"
  else if tag = Store.Snapshot.tag_meta then "meta"
  else Printf.sprintf "unknown(%d)" tag

let health_term =
  Arg.(
    value & flag
    & info [ "health" ]
        ~doc:"Load every shard and print whether it is healthy or lost, \
              instead of the framing.  A version-1 snapshot is one \
              shard; a damaged one is refused as corrupt.")

let shard_term =
  Arg.(
    value
    & opt (some int) None
    & info [ "shard" ] ~docv:"K"
        ~doc:"Decode and describe one shard of a sharded (version-2) \
              container; without it inspect reports every shard from the \
              manifest alone, reading no body bytes.")

(* One line per metadata entry.  The shipped class table is bytes: it
   is checked, and summed up, before anything is printed. *)
let meta_lines meta =
  List.map
    (fun (k, v) ->
      if String.equal k Serve.Memo.table_key then
        let classes, covered = Serve.Memo.read_table v in
        Printf.sprintf "meta %s = %d classes covering %d nodes, %d bytes" k classes
          covered (String.length v)
      else Printf.sprintf "meta %s = %s" k v)
    meta

(* v2 honesty: everything below the per-shard lines comes from the
   manifest frame — offsets, sizes and CRCs are reported without
   touching (or decoding) a single body byte. *)
let print_manifest path man =
  let open Store.Shard in
  let meta = meta_lines man.m_meta in
  Format.printf "container: %d bytes, version %d, %d shard(s), halo %d@."
    (Store.Io.file_size path) version
    (Array.length man.m_shards)
    man.m_halo;
  Format.printf "graph: n=%d m=%d@." man.m_n man.m_m;
  List.iter (fun name -> Format.printf "advice %S (per shard)@." name) man.m_advice;
  List.iter (Format.printf "%s@.") meta;
  Array.iter
    (fun i ->
      Format.printf
        "  shard %-3d nodes [%d,%d) local n=%-6d m=%-6d offset=%-8d \
         length=%-8d crc=%08x@."
        i.i_index i.i_lo i.i_hi i.i_local_n i.i_local_m i.i_offset i.i_bytes
        i.i_crc)
    man.m_shards

(* Shared by every --shard consumer (plain and --health): a bad index
   is a usage error (exit 2), never a decode attempt. *)
let check_shard_index store k =
  let man = Store.Shard.manifest store in
  if k < 0 || k >= Array.length man.Store.Shard.m_shards then begin
    Format.eprintf "inspect: shard %d out of range (container has %d)@." k
      (Array.length man.Store.Shard.m_shards);
    exit 2
  end

let print_shard store k =
  let open Store.Shard in
  check_shard_index store k;
  let loaded = load store k in
  let ids = loaded.l_ids in
  Format.printf "shard %d: nodes [%d,%d), %d local node(s) (%d halo), %d \
                 local edge(s)@."
    k loaded.l_lo loaded.l_hi (Array.length ids)
    (Array.length ids - (loaded.l_hi - loaded.l_lo))
    (Graph.m loaded.l_graph);
  if Array.length ids > 0 then
    Format.printf "ids: %d..%d (global)@." ids.(0) ids.(Array.length ids - 1);
  List.iter
    (fun (name, a) ->
      Format.printf "advice %S: %d bits over the local nodes@." name
        (Advice.Assignment.total_bits a))
    loaded.l_advice

(* [?only] narrows the probe to one (validated) shard: --health --shard K
   used to ignore K entirely — neither validating nor narrowing. *)
let print_shard_health ?only store =
  let man = Store.Shard.manifest store in
  let shards =
    match only with
    | None -> man.Store.Shard.m_shards
    | Some k -> [| man.Store.Shard.m_shards.(k) |]
  in
  let healthy = ref 0 and lost = ref 0 in
  Array.iter
    (fun i ->
      let k = i.Store.Shard.i_index in
      match Store.Shard.load store k with
      | _ ->
          incr healthy;
          Format.printf "  shard %d nodes [%d,%d): healthy@." k
            i.Store.Shard.i_lo i.Store.Shard.i_hi
      | exception Store.Codec.Corrupt msg ->
          incr lost;
          Format.printf "  shard %d nodes [%d,%d): lost — %s@." k
            i.Store.Shard.i_lo i.Store.Shard.i_hi msg)
    shards;
  Format.printf "health: %d healthy, %d lost of %d shard(s)%s@." !healthy !lost
    (Array.length shards)
    (match only with
    | None -> ""
    | Some _ ->
        Printf.sprintf " probed (container has %d)"
          (Array.length man.Store.Shard.m_shards))

let inspect_container path health shard =
  let store = Store.Shard.open_file path in
  match (health, shard) with
  | true, Some k ->
      check_shard_index store k;
      print_shard_health ~only:k store
  | true, None -> print_shard_health store
  | false, Some k -> print_shard store k
  | false, None ->
      Store.Shard.check_rows store;
      print_manifest path (Store.Shard.manifest store)

(* A version-1 file's framing and bits per node, read by the strict
   reader. *)
let print_v1 path =
  let raw = Store.Io.read_file path in
  let snapshot = Store.Snapshot.read raw in
  let meta = meta_lines snapshot.Store.Snapshot.meta in
  let sections = Store.Snapshot.sections raw in
  Format.printf "snapshot: %d bytes, version %d, %d sections@."
    (String.length raw) Store.Snapshot.version (List.length sections);
  List.iter
    (fun s ->
      Format.printf "  section %-6s offset=%-6d length=%-6d crc=%08x@."
        (tag_name s.Store.Codec.tag) s.Store.Codec.offset
        s.Store.Codec.length s.Store.Codec.crc)
    sections;
  let g = snapshot.Store.Snapshot.graph in
  Format.printf "graph: n=%d m=%d Δ=%d@." (Graph.n g) (Graph.m g)
    (Graph.max_degree g);
  List.iter
    (fun (name, a) ->
      let bits = Advice.Assignment.total_bits a in
      let budget =
        Graph.fold_nodes
          (fun v acc ->
            acc + Schemas.Edge_compression.bits_bound (Graph.degree g v))
          g 0
      in
      Format.printf
        "advice %S: %d bits total, max %d bits/node, %.3f bits/edge-slot \
         (paper budget Σ⌈d/2⌉+1 = %d, used %.1f%%)@."
        name bits
        (Advice.Assignment.max_bits a)
        (if Graph.m g = 0 then 0.0 else float_of_int bits /. float_of_int (2 * Graph.m g))
        budget
        (100.0 *. float_of_int bits /. float_of_int (max 1 budget)))
    snapshot.Store.Snapshot.advice;
  List.iter (Format.printf "%s@.") meta

(* --health opens any file as a container (a version-1 file is one
   shard); only the plain report reads a version-1 file's sections. *)
let inspect_cmd =
  let run path health shard =
    or_corrupt @@ fun () ->
    let v2 = Store.Shard.peek_version path = Store.Shard.version in
    if (not v2) && Option.is_some shard then begin
      Format.eprintf "inspect: --shard applies to sharded (version-2) \
                      containers only@.";
      exit 2
    end;
    if v2 || health then inspect_container path health shard else print_v1 path
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Dump a snapshot's framing (sections, lengths, checksums) and \
             its bits-per-node statistics against the paper's bound.  On a \
             sharded (version-2) container the report comes from the \
             manifest alone — no body bytes are decoded — and $(b,--shard) \
             decodes a single shard; $(b,--health) loads every shard \
             instead (a version-1 snapshot is one), or the one \
             $(b,--shard) names.")
    Term.(const run $ snapshot_arg $ health_term $ shard_term)

(* ------------------------------------------------------------------ *)
(* serve *)

let batch_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "batch" ] ~docv:"FILE"
        ~doc:"Query list: one of 'label V', 'member V E', 'bits V' per \
              line; '#' starts a comment.  '-' reads the queries from \
              standard input (the same convention as --metrics -).")

let parse_queries text =
  let fail line fmt =
    Format.kasprintf
      (fun s ->
        Format.eprintf "bad query on line %d: %s@." line s;
        exit 2)
      fmt
  in
  String.split_on_char '\n' text
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.map (fun (line, l) ->
         let int_at what s =
           match int_of_string_opt s with
           | Some v -> v
           | None -> fail line "%s is not an integer: %S" what s
         in
         match String.split_on_char ' ' l |> List.filter (fun s -> s <> "") with
         | [ "label"; v ] -> Serve.Engine.Output_label (int_at "node" v)
         | [ "member"; v; e ] ->
             Serve.Engine.Edge_member (int_at "node" v, int_at "edge" e)
         | [ "bits"; v ] -> Serve.Engine.Advice_bits (int_at "node" v)
         | _ -> fail line "expected 'label V', 'member V E' or 'bits V': %S" l)

let salvage_term =
  Arg.(
    value & flag
    & info [ "salvage" ]
        ~doc:"Serve a sharded container in degraded mode: a shard that \
              fails to load is lost, the queries for its node range \
              answer with an error, and every other shard serves.  A \
              damaged version-1 snapshot is one shard and is refused \
              as corrupt, as a damaged manifest is.")

let listen_term =
  Arg.(
    value & flag
    & info [ "listen" ]
        ~doc:"Run as a long-lived TCP server instead of answering a \
              one-shot batch: a single-threaded select event loop speaking \
              the versioned binary frame protocol (see DESIGN.md, \"Wire \
              protocol & event loop\").  SIGINT/SIGTERM drain gracefully.")

let host_term =
  Arg.(
    value
    & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address for --listen.")

let port_term =
  Arg.(
    value & opt int 0
    & info [ "port" ] ~docv:"PORT"
        ~doc:"TCP port for --listen (0 asks the kernel for an ephemeral \
              port; the chosen one is printed on startup).")

(* '-' follows the --metrics convention: the query list arrives on
   stdin.  Both paths read to EOF on a binary channel, so pipes and
   process substitutions work identically. *)
let read_batch batch =
  let text =
    if batch = "-" then Store.Io.read_to_eof stdin else Store.Io.read_file batch
  in
  Array.of_list (parse_queries text)

let print_query = function
  | Serve.Engine.Output_label v -> Format.printf "label %d" v
  | Serve.Engine.Edge_member (v, e) -> Format.printf "member %d %d" v e
  | Serve.Engine.Advice_bits v -> Format.printf "bits %d" v

let print_answer = function
  | Serve.Engine.Label s -> Format.printf " -> %s@." s
  | Serve.Engine.Member b -> Format.printf " -> %b@." b
  | Serve.Engine.Bits s -> Format.printf " -> %s@." s

(* Per-query outcomes: a lost shard degrades only the queries aimed at
   its node range.  [where] names the shards in the summary line. *)
let serve_batch router ~where batch =
  let queries = read_batch batch in
  let results =
    try Serve.Router.batch_results router queries
    with Invalid_argument msg ->
      Format.eprintf "rejected batch: %s@." msg;
      exit 2
  in
  let failed = ref 0 in
  Array.iteri
    (fun i result ->
      print_query queries.(i);
      match result with
      | Ok answer -> print_answer answer
      | Error msg ->
          incr failed;
          Format.printf " -> error: %s@." msg)
    results;
  Format.printf "served %d queries at radius %d (advice %S%s%s)@."
    (Array.length queries) (Serve.Router.radius router)
    (Serve.Router.advice_name router) where
    (if !failed > 0 then Printf.sprintf ", %d failed" !failed else "")

let serve_listen router host port =
  let config = { Net.Server.host; port } in
  let server =
    try Net.Server.create ~config router
    with Unix.Unix_error (err, _, _) ->
      Format.eprintf "cannot listen on %s:%d: %s@." host port
        (Unix.error_message err);
      exit 2
  in
  Format.printf "listening on %s:%d (n=%d m=%d radius=%d protocol v%d)@."
    host (Net.Server.port server) (Serve.Router.n router) (Serve.Router.m router)
    (Serve.Router.radius router) Net.Protocol.version;
  (* Flush before blocking: scripts scrape the port from this line. *)
  Format.print_flush ();
  let stop _ = Net.Server.shutdown server in
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
  Net.Server.run server;
  let find k = List.assoc_opt k (Net.Server.stats server) in
  let count k = Option.value ~default:0 (find k) in
  Format.printf
    "server drained: %d connection(s), %d request(s), %d query(ies), %d \
     error frame(s)@."
    (count "net.accepted") (count "net.requests") (count "net.queries")
    (count "net.errors")

let resident_mb_term =
  Arg.(
    value & opt int 0
    & info [ "resident-mb" ] ~docv:"MB"
        ~doc:"Bound resident shards to $(docv) MiB of serialized bytes, \
              loading lazily and evicting least-recently-used (0 = \
              unbounded; a version-1 snapshot is one shard).")

let memo_term =
  Arg.(
    value & flag
    & info [ "memo" ]
        ~doc:"Serve with the ball-class table the file ships: $(b,pack) \
              counts the canonical ball classes at the certified radius \
              and stores the ones that recur with their labels, so a node \
              whose ball is one of them is answered without a decode, on \
              every shard.  A file without a table ($(b,inspect) says why) \
              serves without a memo.  Answers are byte-identical with or \
              without it.")

(* The nursery of a serving process, in words: 32k words (256 KB), not
   the runtime's default 256k.  The serve loop allocates about 8 words
   a query, select loop included, and almost none of it outlives the
   query, so a small nursery still spans thousands of queries between
   minor collections, while the default one is swept through page by
   page until all 2 MB of it is resident (DESIGN.md, "The nursery").  A
   policy of this binary, set once before the container is opened:
   library code never resizes the heap (advicelint's determinism
   rule). *)
let serve_minor_heap_words = 32_768

let serve_cmd =
  let run path batch listen host port domains salvage resident_mb use_memo
      metrics =
    at_least "serve" "domains" ~min:1 domains;
    within "serve" "port" ~min:0 ~max:65535 port;
    (* The budget is passed in bytes, so it must not overflow. *)
    within "serve" "resident-mb" ~min:0 ~max:(max_int / 1048576) resident_mb;
    let domains = Localmodel.Pool.effective_domains ?requested:domains () in
    Gc.set { (Gc.get ()) with Gc.minor_heap_size = serve_minor_heap_words };
    or_corrupt @@ fun () ->
    with_metrics metrics @@ fun () ->
    let mode =
      match (listen, batch) with
      | true, Some _ ->
          Format.eprintf "serve: --listen and --batch are mutually exclusive@.";
          exit 2
      | true, None -> `Listen
      | false, Some b -> `Batch b
      | false, None ->
          Format.eprintf
            "serve: nothing to do — pass --batch FILE ('-' for stdin) or \
             --listen@.";
          exit 2
    in
    (* Every file opens the same way: a version-1 snapshot is a one-shard
       container cut into --domains slots, a sharded one loads its shards
       lazily under --resident-mb.  --salvage degrades per shard instead
       of fail-stopping. *)
    let store = Store.Shard.open_file path in
    let meta = (Store.Shard.manifest store).Store.Shard.m_meta in
    (* Only printed with --memo, so memo-less runs keep their exact
       output (the smoke goldens diff it).  The memo is sized to the
       table, so it holds every class. *)
    let memo =
      if not use_memo then None
      else
        match List.assoc_opt Serve.Memo.table_key meta with
        | Some table ->
            let classes, covered = Serve.Memo.read_table table in
            Format.printf "memo: %d ball classes covering %d nodes@." classes covered;
            Some (Serve.Memo.create ~capacity:classes)
        | None ->
            Format.printf "memo: none, the file ships no class table (inspect says why)@.";
            None
    in
    let router =
      Serve.Router.create ~resident_budget:(resident_mb * 1024 * 1024) ~salvage
        ?memo ~domains store
    in
    let shards = Array.length (Store.Shard.manifest store).Store.Shard.m_shards in
    if shards > 1 then
      Format.printf "sharded container: %d shard(s)%s%s@." shards
        (if resident_mb > 0 then
           Printf.sprintf ", resident budget %d MiB" resident_mb
         else "")
        (if salvage then ", salvage on" else "");
    (* A radius certified on a sample can give wrong labels elsewhere. *)
    (match List.assoc_opt "serve.certified" meta with
    | Some c when not (String.equal c "all") ->
        Format.printf
          "certified on %s of %d nodes: unsampled nodes are unchecked (repack \
           with --sample 0)@."
          c (Serve.Router.n router)
    | _ -> ());
    match mode with
    | `Listen -> serve_listen router host port
    | `Batch b -> serve_batch router ~where:(Printf.sprintf ", %d shard(s)" shards) b
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Answer per-node queries from a snapshot by decoding only each \
             node's certified-radius ball: one-shot with --batch (a file \
             or '-' for stdin), or as a long-lived TCP server with \
             --listen.  Both snapshot versions open as containers and \
             serve through one router: a version-1 snapshot is one shard \
             cut into --domains node-range slots, a sharded (version-2) \
             container loads its shards lazily under --resident-mb.")
    Term.(
      const run $ snapshot_arg $ batch_term $ listen_term $ host_term
      $ port_term $ domains_term $ salvage_term
      $ resident_mb_term $ memo_term $ metrics_term)

let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  let info =
    Cmd.info "advice_store" ~version:"1.0"
      ~doc:"Binary advice snapshots and ball-local query serving (C4)."
  in
  exit (Cmd.eval (Cmd.group ~default info [ pack_cmd; inspect_cmd; serve_cmd ]))
