open Netgraph
module View = Localmodel.View
module Balanced_orientation = Schemas.Balanced_orientation

let m_queries = Obs.Metrics.counter "serve.queries"
let m_batches = Obs.Metrics.counter "serve.batches"
let m_hits = Obs.Metrics.counter "serve.cache.hits"
let m_misses = Obs.Metrics.counter "serve.cache.misses"
let m_degraded = Obs.Metrics.counter "serve.degraded"
let m_quarantined = Obs.Metrics.counter "serve.quarantined"
let m_fallback = Obs.Metrics.counter "serve.fallback_labels"

let m_ball =
  Obs.Metrics.histogram "serve.ball_size"
    ~buckets:[| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096 |]

let m_shards = Obs.Metrics.counter "serve.batch.shards"

(* The node-id space is cut into contiguous shards, each pinned to its
   own cache: shard [s] owns nodes [bounds.(s) .. bounds.(s+1) - 1] and
   [caches.(s)] is keyed by the shard-local id [v - bounds.(s)].  A
   batch hands each shard to exactly one pool worker, so no lock ever
   guards a cache — ownership does.  Contiguous id ranges are the CSR
   locality clusters: builders number neighbors near each other (cycle:
   v±1, grid: row-major ±side), so nodes whose radius-r balls overlap
   land in the same shard and share its cache and the worker domain's
   epoch workspace. *)
type t = {
  graph : Graph.t;
  name : string;
  advice : string array;
  params : Balanced_orientation.params;
  radius : int;
  ids : Localmodel.Ids.t;
  bounds : int array;  (* length = #shards + 1; bounds.(0) = 0 *)
  caches : Cache.t array;  (* one per shard, shard-locally keyed *)
  memo : Memo.t option;  (* canonical-ball decode memo, possibly shared *)
  memo_prefix : string;  (* radius/params/trust pinned into every key *)
  degraded : bool;  (* any section of the source snapshot was damaged *)
  trusted : bool;  (* the served advice section passed its checksum *)
  quarantined : string list;  (* human-readable damage report *)
}

let fail fmt = Format.kasprintf invalid_arg fmt

(* Decode the ball stamped in [ws] over host [g] (center at stamp index
   [center]; ids and advice indexed by host node).  The canonical trail
   structure (Orientation.euler_partition) pairs edges in sorted-neighbor
   order, i.e. in identifier order, while the ball is numbered by BFS
   stamp order — so the decoder runs on the id-ordered fragment
   ({!Ethlink.Canonical.ordered_fragment}), built straight from the
   stamps.  [tolerant] degrades an undecodable ball to the all-'0' label
   instead of raising. *)
let decode_stamped ~params ~tolerant ws g ~ids ~advice ~center =
  let h, perm, rank = Ethlink.Canonical.ordered_fragment ws g ~ids in
  let k = Graph.n h in
  if Obs.Metrics.enabled () then Obs.Metrics.observe m_ball k;
  let queue = ws.Workspace.queue in
  let advice = Array.init k (fun r -> advice.(queue.(perm.(r)))) in
  let c = rank.(center) in
  (* Everything the decode needs is copied out of [ws] by now: the
     decoder reuses the domain-local workspace for its own BFS. *)
  let ones = Bitset.create k in
  Array.iteri
    (fun r s -> if String.length s > 0 && s.[0] = '1' then Bitset.add ones r)
    advice;
  let nbrs = Graph.neighbors h c in
  let label () =
    (* Fragment-safe C4 split: the first advice char is the one-bit
       orientation marker; truncated marker messages near the boundary
       are ignored by [Onebit.decode] and missing anchors fall back to
       the canonical trail direction. *)
    let varlen = Advice.Onebit.decode h ones in
    let o = Balanced_orientation.decode_tolerant ~params h varlen in
    String.init (Array.length nbrs) (fun i ->
        let u = nbrs.(i) in
        let tail, head =
          if Orientation.points_from o c u then (c, u) else (u, c)
        in
        let out = Orientation.out_neighbors o tail in
        let idx = ref 0 in
        Array.iter (fun w -> if w < head then incr idx) out;
        let s = advice.(tail) in
        (* Position 0 is the orientation bit; membership bits follow in
           out-neighbor (= identifier) order.  A fragment whose boundary
           truncates the tail's adjacency can run past the string — the
           certified radius rules that out, and below it we stay total. *)
        if 1 + !idx < String.length s then s.[1 + !idx] else '0')
  in
  if not tolerant then label ()
  else
    (* Quarantined advice can hold arbitrarily damaged bit strings, and
       the decoder's totality guarantee only covers well-formed
       assignments: one poisoned ball must not take down the query (or
       the whole parallel batch). *)
    match label () with
    | s -> s
    | exception (Balanced_orientation.Encoding_failure _ | Invalid_argument _) ->
        Obs.Metrics.incr m_fallback;
        String.make (Array.length nbrs) '0'

let label_of_view ~params (view : View.t) =
  let ws = Ethlink.Canonical.stamp_view view in
  decode_stamped ~params ~tolerant:false ws view.View.graph ~ids:view.View.ids
    ~advice:view.View.advice ~center:view.View.center

(* Metadata access *)

let meta_find snapshot key =
  List.find_opt (fun (k, _) -> String.equal k key) snapshot.Store.Snapshot.meta
  |> Option.map snd

let meta_int snapshot key =
  match meta_find snapshot key with
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some v -> Some v
      | None -> fail "Engine.create: metadata %s is not an integer: %S" key s)

let params_of_meta snapshot =
  match
    ( meta_int snapshot "params.short_threshold",
      meta_int snapshot "params.cover",
      meta_int snapshot "params.spacing" )
  with
  | Some short_threshold, Some cover, Some spacing ->
      { Balanced_orientation.short_threshold; cover; spacing }
  | _ -> Balanced_orientation.onebit_params

let resolve_radius ?radius snapshot =
  match (radius, meta_int snapshot "serve.radius") with
  | Some r, _ | None, Some r ->
      if r < 0 then fail "Engine.create: negative serve radius %d" r else r
  | None, None ->
      fail
        "Engine.create: snapshot metadata has no serve.radius and no \
         ~radius override was given"

let build ~cache_capacity ~shards ~memo ~radius ~ids ~degraded ~trusted
    ~quarantined snapshot name advice =
  let graph = snapshot.Store.Snapshot.graph in
  let n = Graph.n graph in
  let ids =
    match ids with
    | None -> Localmodel.Ids.identity graph
    | Some ids ->
        if Array.length ids <> n then
          fail "Engine.create: ids array has %d entries for a %d-node graph"
            (Array.length ids) n;
        if not (Localmodel.Ids.is_valid graph ids) then
          fail "Engine.create: ids are not distinct positive identifiers";
        ids
  in
  let s =
    match shards with
    | Some s when s < 1 -> fail "Engine.create: shard count %d must be positive" s
    | Some s -> min s (max 1 n)
    | None -> min (View.effective_domains ()) (max 1 n)
  in
  if cache_capacity < 0 then
    fail "Engine.create: negative cache capacity %d" cache_capacity;
  (* Exact balanced split: the per-shard capacities sum to precisely the
     configured budget (small budgets leave trailing shards uncached
     rather than overshooting the total). *)
  let caps = Cache.split ~total:cache_capacity ~shards:s in
  let bounds = Array.init (s + 1) (fun k -> k * n / s) in
  let caches =
    Array.init s (fun k ->
        Cache.create ~capacity:caps.(k) ~n:(bounds.(k + 1) - bounds.(k)))
  in
  let params = params_of_meta snapshot in
  (* Everything a decode depends on beyond the ball itself, pinned into
     every memo key: one table can then be shared by engines serving at
     the same radius/params/trust (the router's per-shard engines) while
     engines that differ in any of them can never alias. *)
  let memo_prefix =
    Printf.sprintf "r%d;p%d,%d,%d;t%c;" radius
      params.Balanced_orientation.short_threshold
      params.Balanced_orientation.cover params.Balanced_orientation.spacing
      (if trusted then '1' else '0')
  in
  {
    graph;
    name;
    advice;
    params;
    radius;
    ids;
    bounds;
    caches;
    memo;
    memo_prefix;
    degraded;
    trusted;
    quarantined;
  }

let create ?(cache_capacity = 1024) ?shards ?memo ?radius ?ids ?name snapshot =
  let name, advice =
    match (name, snapshot.Store.Snapshot.advice) with
    | None, (n, a) :: _ -> (n, a)
    | None, [] -> fail "Engine.create: snapshot has no advice section"
    | Some n, sections -> (
        match List.find_opt (fun (k, _) -> String.equal k n) sections with
        | Some (k, a) -> (k, a)
        | None -> fail "Engine.create: snapshot has no advice section %S" n)
  in
  let radius = resolve_radius ?radius snapshot in
  build ~cache_capacity ~shards ~memo ~radius ~ids ~degraded:false
    ~trusted:true ~quarantined:[] snapshot name advice

(* Degraded construction from a salvage report: prefer checksum-clean
   advice, fall back to a quarantined (parsed but CRC-failed) section. *)

let describe_damage (r : Store.Snapshot.section_report) =
  let where =
    match r.Store.Snapshot.s_name with
    | Some n -> Printf.sprintf "section %d (advice %S)" r.Store.Snapshot.s_index n
    | None -> Printf.sprintf "section %d (tag %d)" r.Store.Snapshot.s_index r.Store.Snapshot.s_tag
  in
  match r.Store.Snapshot.s_status with
  | Store.Snapshot.Healthy -> None
  | Store.Snapshot.Quarantined msg -> Some (where ^ " quarantined: " ^ msg)
  | Store.Snapshot.Lost msg -> Some (where ^ " lost: " ^ msg)

let create_salvaged ?(cache_capacity = 1024) ?shards ?memo ?radius ?ids ?name
    (sv : Store.Snapshot.salvage) =
  let snapshot = sv.Store.Snapshot.partial in
  let find sections n = List.find_opt (fun (k, _) -> String.equal k n) sections in
  let name, advice, trusted =
    match name with
    | None -> (
        match (snapshot.Store.Snapshot.advice, sv.Store.Snapshot.recovered) with
        | (n, a) :: _, _ -> (n, a, true)
        | [], (n, a) :: _ -> (n, a, false)
        | [], [] ->
            fail "Engine.create_salvaged: no advice section survived salvage")
    | Some n -> (
        match find snapshot.Store.Snapshot.advice n with
        | Some (k, a) -> (k, a, true)
        | None -> (
            match find sv.Store.Snapshot.recovered n with
            | Some (k, a) -> (k, a, false)
            | None ->
                fail
                  "Engine.create_salvaged: advice section %S did not survive \
                   salvage"
                  n))
  in
  let radius = resolve_radius ?radius snapshot in
  let quarantined = List.filter_map describe_damage sv.Store.Snapshot.report in
  let degraded =
    (not trusted) || (match quarantined with [] -> false | _ :: _ -> true)
  in
  build ~cache_capacity ~shards ~memo ~radius ~ids ~degraded ~trusted
    ~quarantined snapshot name advice

let graph t = t.graph
let radius t = t.radius
let shard_count t = Array.length t.caches
let advice_name t = t.name
let memoized t = Option.is_some t.memo
let degraded t = t.degraded
let serving_trusted t = t.trusted
let quarantined_sections t = t.quarantined

type query = Output_label of int | Edge_member of int * int | Advice_bits of int
type answer = Label of string | Member of bool | Bits of string

let check_node t what v =
  if v < 0 || v >= Graph.n t.graph then
    fail "Engine: %s names node %d outside 0..%d" what v (Graph.n t.graph - 1)

let validate t = function
  | Output_label v -> check_node t "Output_label" v
  | Advice_bits v -> check_node t "Advice_bits" v
  | Edge_member (v, e) ->
      check_node t "Edge_member" v;
      if e < 0 || e >= Graph.m t.graph then
        fail "Engine: Edge_member names edge %d outside 0..%d" e
          (Graph.m t.graph - 1);
      let a, b = Graph.edge_endpoints t.graph e in
      if v <> a && v <> b then
        fail "Engine: Edge_member node %d is not an endpoint of edge %d (%d-%d)"
          v e a b

(* Index of incident edge [e] within [v]'s label string: the rank of the
   other endpoint in [v]'s sorted neighbor array. *)
let incident_index t v e =
  let u = Graph.edge_other_endpoint t.graph e v in
  let nbrs = Graph.neighbors t.graph v in
  let lo = ref 0 and hi = ref (Array.length nbrs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if nbrs.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Decode [v]'s ball, consulting the canonical-ball memo between the
   LRU layer (the caller) and the decoder.  One BFS stamps the ball; the
   memo key is written straight from the stamps, and only a memo miss
   builds the id-ordered fragment — from the same stamps — and decodes
   it.  An untrusted engine degrades undecodable balls to the all-'0'
   label.  A memo miss hands the (key, label) pair to [stage] instead of
   writing the table: the single-writer publication discipline.  The
   serialized single-query path stages straight into the table
   ([publish]); the batch paths stage into a worker-local list and
   publish after the pool join — workers only ever *read* the table, so
   it stays frozen for the whole parallel region. *)
let compute_label t ~stage v =
  let ws = Workspace.domain_local () in
  ignore (Traversal.bfs_limited_into ws t.graph v t.radius);
  let decode () =
    decode_stamped ~params:t.params ~tolerant:(not t.trusted) ws t.graph
      ~ids:t.ids ~advice:t.advice ~center:0
  in
  match t.memo with
  | None -> decode ()
  | Some memo -> (
      let key =
        Ethlink.Canonical.ball_key ~prefix:t.memo_prefix ws t.graph ~ids:t.ids
          ~advice:t.advice
      in
      match Memo.find memo key with
      | Some label -> label
      | None ->
          let label = decode () in
          stage key label;
          label)

(* The immediate-publication stage for serialized callers. *)
let publish t key label =
  match t.memo with None -> () | Some memo -> Memo.insert memo key label

let publish_staged t staged =
  List.iter (fun (key, label) -> publish t key label) staged

(* Owner shard of node [v]: the largest [s] with [bounds.(s) <= v].
   Shard counts are tiny (≤ 64), but binary search keeps the lookup
   uniform with the batch assembler below. *)
let shard_of t v =
  let lo = ref 0 and hi = ref (Array.length t.caches - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.bounds.(mid) <= v then lo := mid else hi := mid - 1
  done;
  !lo

(* Serve one node against a specific shard's cache.  The caller is the
   shard's owner for the duration of the call: either the single-query
   path (engine-level callers serialise those) or the one pool worker
   the batch pinned to the shard. *)
let shard_label t ~stage s v =
  let cache = t.caches.(s) in
  let key = v - t.bounds.(s) in
  match Cache.find cache key with
  | Some str ->
      Obs.Metrics.incr m_hits;
      str
  | None ->
      Obs.Metrics.incr m_misses;
      let str = compute_label t ~stage v in
      Cache.insert cache key str;
      str

let label_for t v = shard_label t ~stage:(publish t) (shard_of t v) v

let answer_with t label_of = function
  | Output_label v -> Label (label_of v)
  | Edge_member (v, e) -> Member ((label_of v).[incident_index t v e] = '1')
  | Advice_bits v -> Bits t.advice.(v)

let note_degraded t count =
  if t.degraded then Obs.Metrics.add m_degraded count;
  if not t.trusted then Obs.Metrics.add m_quarantined count

let query t q =
  validate t q;
  Obs.Metrics.incr m_queries;
  note_degraded t 1;
  answer_with t (label_for t) q

(* [query] for callers that are themselves pool workers (the router's
   batch waves): memo misses are consed onto [staged] for the caller to
   hand back to the publishing thread instead of being written from a
   parallel region. *)
let query_staged t q staged =
  validate t q;
  Obs.Metrics.incr m_queries;
  note_degraded t 1;
  let acc = ref staged in
  let stage key label = acc := (key, label) :: !acc in
  let label_of v = shard_label t ~stage (shard_of t v) v in
  let answer = answer_with t label_of q in
  (answer, !acc)

let ball_node = function
  | Output_label v | Edge_member (v, _) -> Some v
  | Advice_bits _ -> None

(* Plan: the sorted, deduplicated set of nodes whose ball the batch
   needs. *)
let planned_nodes qs =
  let wanted = Array.of_seq (Seq.filter_map ball_node (Array.to_seq qs)) in
  Array.sort Int.compare wanted;
  let nodes = Array.make (Array.length wanted) 0 in
  let count = ref 0 in
  Array.iter
    (fun v ->
      if !count = 0 || nodes.(!count - 1) <> v then begin
        nodes.(!count) <- v;
        incr count
      end)
    wanted;
  Array.sub nodes 0 !count

(* Shard plan: cut the sorted node array at each shard boundary.  The
   nodes are sorted and the shards are contiguous id ranges, so shard
   [s]'s slice is exactly [cuts.(s) .. cuts.(s+1) - 1] — the planner is
   a single merge pass, no per-node owner lookup. *)
let shard_cuts t nodes =
  let k = Array.length nodes in
  let nshards = Array.length t.caches in
  let cuts = Array.make (nshards + 1) 0 in
  let p = ref 0 in
  for s = 1 to nshards do
    let limit = t.bounds.(s) in
    while !p < k && nodes.(!p) < limit do
      incr p
    done;
    cuts.(s) <- !p
  done;
  cuts

(* The parallel half of [batch], functorized over the concurrency shim
   so Check.Sched can run the exact shard/cache handoff under its
   schedule-exploring scheduler.  Production is [Batch (Shim.Real)]
   below; the only shim traffic on the hot path is one Raw ownership
   touch per served node — a plain load + store through [Shim.Real.Raw],
   and the access trace the checker's vector-clock tracker uses to prove
   (or refute, for the double-writer mutant) that no two workers ever
   touch one shard's cache unsynchronized. *)
let default_pool_variant = Pool.default_variant

module Batch (S : Shim.S) = struct
  (* Shadowing the outer [Pool] on purpose: call sites below read
     [Pool.run], which keeps the domain-race lint descending into the
     closures handed to the pool exactly as it does for production
     callers. *)
  module Pool = Pool.Make (S)

  let batch ?domains ?(pool = default_pool_variant) t qs =
    Array.iter (validate t) qs;
    Obs.Trace.span "serve.batch" (fun () ->
        Obs.Metrics.incr m_batches;
        Obs.Metrics.add m_queries (Array.length qs);
        note_degraded t (Array.length qs);
        let nodes = planned_nodes qs in
        let cuts = shard_cuts t nodes in
        let nshards = Array.length t.caches in
        (* One tracked ownership cell per shard cache for this batch.
           Every cache access below is bracketed by a read-modify-write
           of the owning shard's cell, so any schedule in which two
           workers interleave on one cache is a happens-before race on
           that cell — which is exactly what the checker flags. *)
        let owners = Array.init nshards (fun _ -> S.Raw.make 0) in
        (* One task per non-empty shard slice.  A task owns its shard for
           the whole batch: it classifies hits and computes misses against
           the shard's private cache, with no post-join insert phase, and
           returns its labels for the calling domain to scatter — workers
           never write through a captured structure (the discipline the
           domain-race lint audits). *)
        let live = ref [] in
        for s = nshards - 1 downto 0 do
          if cuts.(s) < cuts.(s + 1) then live := s :: !live
        done;
        let tasks = Array.of_list !live in
        Obs.Metrics.add m_shards (Array.length tasks);
        let serve_shard s =
          let lo = cuts.(s) and hi = cuts.(s + 1) in
          let out = Array.make (hi - lo) "" in
          (* Worker-local staging: the memo stays frozen (read-only) for
             every worker; misses ride back with the labels and the
             calling domain publishes them after the join below. *)
          let staged = ref [] in
          let stage key label = staged := (key, label) :: !staged in
          for i = lo to hi - 1 do
            S.Raw.set owners.(s) (S.Raw.get owners.(s) + 1);
            out.(i - lo) <- shard_label t ~stage s nodes.(i)
          done;
          (out, !staged)
        in
        let parts = Pool.run ~variant:pool ?domains serve_shard tasks in
        let labels = Array.make (Array.length nodes) "" in
        Array.iteri
          (fun j s ->
            let out, staged = parts.(j) in
            Array.blit out 0 labels cuts.(s) (Array.length out);
            publish_staged t staged)
          tasks;
        let label_of v =
          (* binary search in the planned node array *)
          let lo = ref 0 and hi = ref (Array.length nodes - 1) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if nodes.(mid) < v then lo := mid + 1 else hi := mid
          done;
          labels.(!lo)
        in
        Array.map (answer_with t label_of) qs)
end

module Production = Batch (Shim.Real)

let batch = Production.batch
