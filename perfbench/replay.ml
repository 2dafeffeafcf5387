(* In-process traced replay: a sample of the workload's request frames
   goes through the public function of every layer, in the order the
   server calls them, with a span around each call.  The serving state
   (owner shards under the resident budget, per-shard LRU, memo) mirrors
   what `advice_store serve --memo` builds, and every replayed answer is
   compared with Router.query / Engine.query on the same queries — a
   replay that answered differently would be timing another program.

   Spans live in flat arrays and are written out once, after the run. *)

open Netgraph
module Engine = Serve.Engine
module View = Localmodel.View
module P = Net.Protocol

(* The `advice_store serve` defaults the server runs with. *)
let cache_capacity = 1024
let memo_capacity = 4096

(* ------------------------------------------------------------------ *)
(* Spans *)

type kind =
  | Request
  | Parse
  | Route
  | Load
  | Cache_find
  | Cache_insert
  | View_make
  | Signature
  | Memo_find
  | Memo_insert
  | Decode
  | Encode

let kinds =
  [| Request; Parse; Route; Load; Cache_find; Cache_insert; View_make; Signature;
     Memo_find; Memo_insert; Decode; Encode |]

let kind_index k =
  let rec go i = if kinds.(i) = k then i else go (i + 1) in
  go 0

let kind_name = function
  | Request -> "request"
  | Parse -> "Protocol.parse_request"
  | Route -> "Router.shard_of"
  | Load -> "Shard.load"
  | Cache_find -> "Cache.find"
  | Cache_insert -> "Cache.insert"
  | View_make -> "View.make"
  | Signature -> "Canonical.ball_signature"
  | Memo_find -> "Memo.find"
  | Memo_insert -> "Memo.insert"
  | Decode -> "Engine.label_of_view"
  | Encode -> "Protocol.response_to_string"

(* Layers, named after the modules; self time is reported per layer. *)
let layers =
  [| "bench"; "net"; "serve.router"; "store"; "serve.cache"; "local"; "eth";
     "serve.memo"; "schemas" |]

let layer_of = function
  | Request -> 0
  | Parse | Encode -> 1
  | Route -> 2
  | Load -> 3
  | Cache_find | Cache_insert -> 4
  | View_make -> 5
  | Signature -> 6
  | Memo_find | Memo_insert -> 7
  | Decode -> 8

type spans = {
  mutable len : int;
  mutable kind : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
}

type tracer = {
  mutable on : bool;
  sp : spans;
  mutable current : int;  (* innermost open span, -1 at top level *)
  mutable request : int;
  mutable ball_nodes : int list;
  mutable key_bytes : int list;
}

let tracer () =
  let a () = Array.make 4096 0 in
  {
    on = false;
    sp = { len = 0; kind = a (); start = a (); stop = a (); parent = a (); req = a () };
    current = -1;
    request = 0;
    ball_nodes = [];
    key_bytes = [];
  }

let push tr k =
  let sp = tr.sp in
  if sp.len = Array.length sp.kind then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    sp.kind <- grow sp.kind;
    sp.start <- grow sp.start;
    sp.stop <- grow sp.stop;
    sp.parent <- grow sp.parent;
    sp.req <- grow sp.req
  end;
  let i = sp.len in
  sp.len <- i + 1;
  sp.kind.(i) <- kind_index k;
  sp.parent.(i) <- tr.current;
  sp.req.(i) <- tr.request;
  i

let span tr k f =
  if not tr.on then f ()
  else begin
    let i = push tr k in
    let parent = tr.current in
    tr.current <- i;
    tr.sp.start.(i) <- Timing.now_ns ();
    let r = f () in
    tr.sp.stop.(i) <- Timing.now_ns ();
    tr.current <- parent;
    r
  end

(* ------------------------------------------------------------------ *)
(* Serving state *)

type owner = {
  graph : Graph.t;
  ids : int array;  (* identifiers: global node id + 1, as the router assigns *)
  local : int -> int;  (* global node id -> owner-local node id *)
  local_edge : int -> int;
  advice : string array;
  cache : Serve.Cache.t;
  bytes : int;  (* resident-budget charge: the shard's frame bytes *)
  mutable stamp : int;
}

type source =
  | Mono of Store.Snapshot.t
  | Sharded of { store : Store.Shard.t; router : Serve.Router.t; budget : int }

type t = {
  source : source;
  radius : int;
  params : Schemas.Balanced_orientation.params;
  memo : Serve.Memo.t;
  owners : owner option array;
  tr : tracer;
  mutable clock : int;
  mutable resident : int;
  mutable resident_peak : int;
  mutable loads : int;
  mutable evictions : int;
  mutable cache_finds : int;
  mutable cache_hits : int;
  mutable memo_finds : int;
  mutable memo_hits : int;
}

let meta_int meta key = Option.bind (List.assoc_opt key meta) int_of_string_opt

let params_of meta =
  match
    ( meta_int meta "params.short_threshold",
      meta_int meta "params.cover",
      meta_int meta "params.spacing" )
  with
  | Some short_threshold, Some cover, Some spacing ->
      { Schemas.Balanced_orientation.short_threshold; cover; spacing }
  | _ -> Schemas.Balanced_orientation.onebit_params

let bsearch arr x =
  let lo = ref 0 and hi = ref (Array.length arr - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let first_advice = function
  | (_, a) :: _ -> a
  | [] -> failwith "snapshot has no advice section"

let create source =
  let meta, owners, resident =
    match source with
    | Mono s ->
        let g = s.Store.Snapshot.graph in
        let o =
          {
            graph = g;
            ids = Localmodel.Ids.identity g;
            local = Fun.id;
            local_edge = Fun.id;
            advice = first_advice s.Store.Snapshot.advice;
            cache = Serve.Cache.create ~capacity:cache_capacity ~n:(Graph.n g);
            bytes = 0;
            stamp = 0;
          }
        in
        (s.Store.Snapshot.meta, [| Some o |], 0)
    | Sharded { store; _ } ->
        let man = Store.Shard.manifest store in
        (man.Store.Shard.m_meta, Array.make (Array.length man.Store.Shard.m_shards) None, 0)
  in
  let radius =
    match meta_int meta "serve.radius" with
    | Some r -> r
    | None -> failwith "snapshot metadata has no serve.radius"
  in
  {
    source;
    radius;
    params = params_of meta;
    memo = Serve.Memo.create ~capacity:memo_capacity;
    owners;
    tr = tracer ();
    clock = 0;
    resident;
    resident_peak = resident;
    loads = 0;
    evictions = 0;
    cache_finds = 0;
    cache_hits = 0;
    memo_finds = 0;
    memo_hits = 0;
  }

let touch t o =
  t.clock <- t.clock + 1;
  o.stamp <- t.clock

(* Least-recently-used residents go until [needed] more bytes fit the
   budget — after the load, as the router does. *)
let evict_for t ~budget ~keep needed =
  let continue = ref true in
  while budget > 0 && t.resident + needed > budget && !continue do
    let victim = ref (-1) and best = ref max_int in
    Array.iteri
      (fun k -> function
        | Some o when k <> keep && o.stamp < !best ->
            victim := k;
            best := o.stamp
        | _ -> ())
      t.owners;
    if !victim < 0 then continue := false
    else begin
      (match t.owners.(!victim) with
      | Some o -> t.resident <- t.resident - o.bytes
      | None -> ());
      t.owners.(!victim) <- None;
      t.evictions <- t.evictions + 1
    end
  done

let load t ~store ~budget k =
  let l = span t.tr Load (fun () -> Store.Shard.load store k) in
  let info = (Store.Shard.manifest store).Store.Shard.m_shards.(k) in
  let gids = l.Store.Shard.l_ids and egids = l.Store.Shard.l_edge_ids in
  let o =
    {
      graph = l.Store.Shard.l_graph;
      ids = Array.map (fun gid -> gid + 1) gids;
      local = bsearch gids;
      local_edge = bsearch egids;
      advice = first_advice l.Store.Shard.l_advice;
      cache = Serve.Cache.create ~capacity:cache_capacity ~n:(Array.length gids);
      bytes = info.Store.Shard.i_bytes;
      stamp = 0;
    }
  in
  evict_for t ~budget ~keep:k o.bytes;
  t.owners.(k) <- Some o;
  t.resident <- t.resident + o.bytes;
  t.resident_peak <- max t.resident_peak t.resident;
  t.loads <- t.loads + 1;
  o

let owner t v =
  span t.tr Route (fun () ->
      match t.source with
      | Mono _ -> Option.get t.owners.(0)
      | Sharded { store; router; budget } -> (
          let k = Serve.Router.shard_of router v in
          match t.owners.(k) with
          | Some o ->
              touch t o;
              o
          | None ->
              let o = load t ~store ~budget k in
              touch t o;
              o))

(* LRU, then the memo keyed by the canonical ball signature, then the
   decoder — Engine's miss path. *)
let label t o lv =
  t.cache_finds <- t.cache_finds + 1;
  match span t.tr Cache_find (fun () -> Serve.Cache.find o.cache lv) with
  | Some s ->
      t.cache_hits <- t.cache_hits + 1;
      s
  | None ->
      let view =
        span t.tr View_make (fun () ->
            View.make ~advice:o.advice o.graph ~ids:o.ids ~radius:t.radius lv)
      in
      let key = span t.tr Signature (fun () -> Ethlink.Canonical.ball_signature view) in
      if t.tr.on then begin
        t.tr.ball_nodes <- Graph.n view.View.graph :: t.tr.ball_nodes;
        t.tr.key_bytes <- String.length key :: t.tr.key_bytes
      end;
      t.memo_finds <- t.memo_finds + 1;
      let s =
        match span t.tr Memo_find (fun () -> Serve.Memo.find t.memo key) with
        | Some s ->
            t.memo_hits <- t.memo_hits + 1;
            s
        | None ->
            let s =
              span t.tr Decode (fun () -> Engine.label_of_view ~params:t.params view)
            in
            span t.tr Memo_insert (fun () -> Serve.Memo.insert t.memo key s);
            s
      in
      span t.tr Cache_insert (fun () -> Serve.Cache.insert o.cache lv s);
      s

(* Position of edge [le] in the sorted-neighbor label of [lv]. *)
let incident_index o lv le =
  let u = Graph.edge_other_endpoint o.graph le lv in
  let nbrs = Graph.neighbors o.graph lv in
  let i = ref 0 in
  while nbrs.(!i) <> u do
    incr i
  done;
  !i

let answer t q =
  match q with
  | Engine.Output_label v ->
      let o = owner t v in
      Engine.Label (label t o (o.local v))
  | Engine.Edge_member (v, e) ->
      let o = owner t v in
      let lv = o.local v in
      let s = label t o lv in
      Engine.Member (s.[incident_index o lv (o.local_edge e)] = '1')
  | Engine.Advice_bits v ->
      let o = owner t v in
      Engine.Bits o.advice.(o.local v)

let query_node = function
  | Engine.Output_label v | Engine.Edge_member (v, _) | Engine.Advice_bits v -> v

(* A batch is served owner shard by owner shard, in shard order — the
   router's plan — so each owner loads once per batch. *)
let shard_order source qs =
  let idx = Array.init (Array.length qs) Fun.id in
  (match source with
  | Mono _ -> ()
  | Sharded { router; _ } ->
      let key i = Serve.Router.shard_of router (query_node qs.(i)) in
      Array.stable_sort (fun a b -> Int.compare (key a) (key b)) idx);
  idx

let serve_frame t ~request frame =
  t.tr.request <- request;
  span t.tr Request (fun () ->
      let parsed =
        span t.tr Parse (fun () -> P.parse_request frame ~pos:0 ~len:(Bytes.length frame))
      in
      let resp =
        match parsed with
        | P.Done (P.Query q, _) -> P.Answer (answer t q)
        | P.Done (P.Batch qs, _) ->
            let out = Array.make (Array.length qs) (Engine.Bits "") in
            Array.iter (fun i -> out.(i) <- answer t qs.(i)) (shard_order t.source qs);
            P.Answers out
        | _ -> failwith "replay: the generator produced an unexpected frame"
      in
      (resp, span t.tr Encode (fun () -> P.response_to_string resp)))

(* ------------------------------------------------------------------ *)
(* Reference path: the serve stack's own entry points. *)

type reference = Engine of Engine.t | Router of Serve.Router.t

let reference source memo =
  match source with
  | Mono s -> Engine (Engine.create ~cache_capacity ~memo s)
  | Sharded { store; budget; _ } ->
      Router (Serve.Router.create ~cache_capacity ~resident_budget:budget ~memo store)

let reference_query = function
  | Engine e -> Engine.query e
  | Router r -> Serve.Router.query r

(* ------------------------------------------------------------------ *)
(* One measured replay *)

type outcome = {
  state : t;  (** the traced replay's final state *)
  queries : int array;  (** queries per sampled request *)
  mismatches : int;  (** sampled answers differing from the reference or oracle *)
  query_ns : int;  (** reference single-query path over the sample *)
  batch_ns : int;  (** reference batch path over the sample *)
  untraced_ns : int;
  traced_ns : int;
  encode_request_ns : int array;  (** per query, one entry per request *)
  parse_response_ns : int array;
  memo_stats : Serve.Memo.stats;  (** the reference memo after the sample *)
}

let frame qs = Bytes.of_string (P.request_to_string (Workload.request qs))

(* [warm] frames bring the serving state to steady state untimed; then
   [sample] is served and timed on four paths: the reference
   single-query entry point, the reference batch entry point, the
   replay untraced, and the replay traced.  Each path starts from fresh
   state. *)
let run source ~expected ~warm ~sample =
  let per_frame serve frames =
    Array.map
      (fun qs ->
        let out = Array.make (Array.length qs) (Engine.Bits "") in
        Array.iter (fun i -> out.(i) <- serve qs.(i)) (shard_order source qs);
        out)
      frames
  in
  let memo = Serve.Memo.create ~capacity:memo_capacity in
  let r = reference source memo in
  ignore (per_frame (reference_query r) warm);
  let ref_answers, query_ns = Timing.timed (fun () -> per_frame (reference_query r) sample) in
  let memo_stats = Serve.Memo.stats memo in
  let batch_ns =
    match source with
    | Mono _ -> query_ns  (* v1 keeps no batch entry point of its own *)
    | Sharded { store; budget; _ } ->
        let router =
          Serve.Router.create ~cache_capacity ~resident_budget:budget
            ~memo:(Serve.Memo.create ~capacity:memo_capacity)
            store
        in
        let batch qs = Serve.Router.batch_results router qs in
        Array.iter (fun qs -> ignore (batch qs)) warm;
        let got, ns = Timing.timed (fun () -> Array.map batch sample) in
        Array.iteri
          (fun f results ->
            Array.iteri
              (fun i res ->
                if res <> Ok ref_answers.(f).(i) then
                  failwith "Router.batch_results disagrees with Router.query")
              results)
          got;
        ns
  in
  let warm_frames = Array.map frame warm and sample_frames = Array.map frame sample in
  let replay traced =
    let t = create source in
    Array.iter (fun f -> ignore (serve_frame t ~request:(-1) f)) warm_frames;
    t.tr.on <- traced;
    t.loads <- 0;
    t.evictions <- 0;
    t.resident_peak <- t.resident;
    t.cache_finds <- 0;
    t.cache_hits <- 0;
    t.memo_finds <- 0;
    t.memo_hits <- 0;
    let outs, ns =
      Timing.timed (fun () ->
          Array.mapi (fun request f -> serve_frame t ~request f) sample_frames)
    in
    (t, outs, ns)
  in
  let _, _, untraced_ns = replay false in
  let state, outs, traced_ns = replay true in
  let mismatches = ref 0 in
  Array.iteri
    (fun f qs ->
      let answers =
        match fst outs.(f) with
        | P.Answer a -> [| a |]
        | P.Answers a -> a
        | _ -> [||]
      in
      Array.iteri
        (fun i q ->
          if i >= Array.length answers
             || answers.(i) <> ref_answers.(f).(i)
             || answers.(i) <> expected q
          then incr mismatches)
        qs)
    sample;
  let per_query qs ns = ns / Array.length qs in
  let encode_request_ns =
    Array.map
      (fun qs ->
        let req = Workload.request qs in
        per_query qs (snd (Timing.timed (fun () -> P.request_to_string req))))
      sample
  in
  let parse_response_ns =
    Array.mapi
      (fun f qs ->
        let b = Bytes.of_string (snd outs.(f)) in
        per_query qs
          (snd (Timing.timed (fun () -> P.parse_response b ~pos:0 ~len:(Bytes.length b)))))
      sample
  in
  {
    state;
    queries = Array.map Array.length sample;
    mismatches = !mismatches;
    query_ns;
    batch_ns;
    untraced_ns;
    traced_ns;
    encode_request_ns;
    parse_response_ns;
    memo_stats;
  }

(* ------------------------------------------------------------------ *)
(* Span analysis *)

let duration sp i = sp.stop.(i) - sp.start.(i)

(* Durations of every span of one kind, optionally divided by the
   queries of its request (frame-level calls on batch frames). *)
let durations ?per_query tr k =
  let sp = tr.sp in
  let ki = kind_index k in
  let out = ref [] in
  for i = sp.len - 1 downto 0 do
    if sp.kind.(i) = ki then
      let d = duration sp i in
      out :=
        (match per_query with Some q -> d / q.(sp.req.(i)) | None -> d) :: !out
  done;
  Array.of_list !out

type layer_stat = { layer : string; self : Timing.summary; spans : int }

(* Self time — a span's duration minus the time its child spans cover —
   summed per layer within each request, then divided by the request's
   queries.  Returns the per-layer summaries and the per-query total. *)
let self_times tr ~queries =
  let sp = tr.sp in
  let nreq = Array.length queries in
  let child = Array.make sp.len 0 in
  for i = 0 to sp.len - 1 do
    let p = sp.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + duration sp i
  done;
  let nl = Array.length layers in
  let self = Array.make_matrix nl nreq 0 and counts = Array.make nl 0 in
  let total = Array.make nreq 0 in
  for i = 0 to sp.len - 1 do
    let k = kinds.(sp.kind.(i)) in
    let l = layer_of k and r = sp.req.(i) in
    self.(l).(r) <- self.(l).(r) + duration sp i - child.(i);
    counts.(l) <- counts.(l) + 1;
    if k = Request then total.(r) <- duration sp i
  done;
  let per_query a = Array.mapi (fun r x -> x / queries.(r)) a in
  ( Array.mapi
      (fun l name ->
        { layer = name; self = Timing.summarize (per_query self.(l)); spans = counts.(l) })
      layers,
    Timing.summarize (per_query total) )

(* Sum of per-layer median self times over the median traced request,
   per query: 1.0 when the layers account for the whole path. *)
let coverage (stats, total) =
  let sum = Array.fold_left (fun acc s -> acc + s.self.Timing.p50) 0 stats in
  float_of_int sum /. float_of_int (max 1 total.Timing.p50)

let write_spans tr path =
  let sp = tr.sp in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc "request\tspan\tparent\tname\tstart_ns\tend_ns\n";
  for i = 0 to sp.len - 1 do
    Printf.fprintf oc "%d\t%d\t%d\t%s\t%d\t%d\n" sp.req.(i) i sp.parent.(i)
      (kind_name kinds.(sp.kind.(i)))
      sp.start.(i) sp.stop.(i)
  done
