module Shard = Store.Shard

let m_loads = Obs.Metrics.counter "store.shard.loads"
let m_evictions = Obs.Metrics.counter "store.shard.evictions"
let m_lost = Obs.Metrics.counter "store.shard.lost"
let m_resident_peak = Obs.Metrics.gauge "store.shard.resident_bytes"
let m_batches = Obs.Metrics.counter "serve.batches"
let m_slots = Obs.Metrics.counter "serve.batch.shards"

exception Shard_lost of { shard : int; reason : string }

let fail fmt = Format.kasprintf invalid_arg fmt

(* Where slot bodies come from: a v2 container's shard frames, loaded
   lazily, or one in-memory v1 snapshot whose graph every slot engine
   shares (held through one of them). *)
type source = Container of Shard.t | Memory of Engine.t

(* One resident slot: its private engine (a container shard's engine
   orders fragments by the shard's *global* identifiers — the
   byte-identity mechanism), the global→local translation tables (empty
   on an in-memory slot, whose node and edge ids are the global ones),
   and its cost in the byte-budget accounting (the serialized frame
   size from the manifest: stable, observable via inspect, and linear
   in the shard's node count, as the loaded engine is — the label
   strings its column gathers later are not counted; 0 in memory). *)
type resident = {
  engine : Engine.t;
  ids : int array;
  edge_ids : int array;
  bytes : int;
  mutable stamp : int;  (* LRU recency, from the router clock *)
}

type slot = Unloaded | Resident of resident | Lost of string

type t = {
  source : source;
  man : Shard.manifest;  (* in memory: synthesized from the slot plan *)
  salvage : bool;
  name : string option;
  cache_capacity : int option;  (* passed to each loaded shard engine *)
  memo : Memo.t option;  (* one canonical-ball table, shared by every
                            slot engine (keys pin radius/params) *)
  budget : int;  (* resident-byte budget; 0 = unbounded *)
  radius : int;
  slots : slot array;
  unpinned : bool array;  (* all false: what a single query pins *)
  mutable resident_bytes : int;
  mutable clock : int;
  mutable loads : int;
  mutable evictions : int;
  mutable lost : int;
}

let meta_int man key =
  match List.find_opt (fun (k, _) -> String.equal k key) man.Shard.m_meta with
  | None -> None
  | Some (_, s) -> (
      match int_of_string_opt s with
      | Some v -> Some v
      | None -> fail "Router.create: metadata %s is not an integer: %S" key s)

let make ~source ~man ~salvage ~name ~cache_capacity ~memo ~budget ~radius
    slots =
  {
    source;
    man;
    salvage;
    name;
    cache_capacity;
    memo;
    budget;
    radius;
    slots;
    unpinned = Array.make (Array.length slots) false;
    resident_bytes = 0;
    clock = 0;
    loads = 0;
    evictions = 0;
    lost = 0;
  }

let create ?cache_capacity ?(resident_budget = 0) ?(salvage = false) ?memo
    ?radius ?name store =
  let man = Shard.manifest store in
  let radius =
    match (radius, meta_int man "serve.radius") with
    | Some r, _ | None, Some r ->
        if r < 0 then fail "Router.create: negative serve radius %d" r else r
    | None, None ->
        fail
          "Router.create: container metadata has no serve.radius and no \
           ~radius override was given"
  in
  if man.Shard.m_halo < max radius 1 then
    fail
      "Router.create: container halo %d cannot serve radius %d (needs at \
       least %d) — repack with a deeper halo"
      man.Shard.m_halo radius (max radius 1);
  if resident_budget < 0 then
    fail "Router.create: negative resident budget %d" resident_budget;
  (match cache_capacity with
  | Some c when c < 0 -> fail "Router.create: negative cache capacity %d" c
  | _ -> ());
  (match name with
  | Some n when not (List.exists (String.equal n) man.Shard.m_advice) ->
      fail "Router.create: container has no advice section %S" n
  | _ -> ());
  (match man.Shard.m_advice with
  | [] -> fail "Router.create: container has no advice section"
  | _ :: _ -> ());
  make ~source:(Container store) ~man ~salvage ~name ~cache_capacity ~memo
    ~budget:resident_budget ~radius
    (Array.make (Array.length man.Shard.m_shards) Unloaded)

(* A v1 snapshot as node-range slots over its one decoded graph: every
   slot is resident from construction and never evicted (budget 0), and
   each slot engine is a restriction of [e], so they share the graph,
   the advice and one ids array (the source is slot 0, so [e]'s own
   label column can be freed).  The manifest only carries what the
   shared code paths read: node and edge counts, advice name and slot
   ranges. *)
let of_engine ?domains e =
  let g = Engine.graph e in
  let n = Netgraph.Graph.n g in
  let d =
    match domains with
    | Some d when d < 1 -> fail "Router.of_engine: domain count %d must be positive" d
    | Some d -> d
    | None -> Localmodel.View.effective_domains ()
  in
  let ranges = Shard.plan ~n ~shards:d in
  let info k (lo, hi) =
    { Shard.i_index = k; i_lo = lo; i_hi = hi; i_local_n = hi - lo;
      i_local_m = 0; i_offset = 0; i_bytes = 0; i_crc = 0 }
  in
  let engines =
    Array.map (fun (lo, hi) -> if hi - lo = n then e else Engine.restrict e ~lo ~hi) ranges
  in
  let resident engine =
    Resident { engine; ids = [||]; edge_ids = [||]; bytes = 0; stamp = 0 }
  in
  let man =
    { Shard.m_n = n; m_m = Netgraph.Graph.m g; m_halo = 0;
      m_advice = [ Engine.advice_name e ]; m_meta = [];
      m_shards = Array.mapi info ranges; m_header_bytes = 0 }
  in
  make ~source:(Memory engines.(0)) ~man ~salvage:false ~name:None
    ~cache_capacity:None ~memo:(Engine.memo e) ~budget:0 ~radius:(Engine.radius e)
    (Array.map resident engines)

let n t = t.man.Shard.m_n
let m t = t.man.Shard.m_m
let radius t = t.radius
let shard_count t = Array.length t.slots
let resident_bytes t = t.resident_bytes
let loads t = t.loads
let evictions t = t.evictions

let resident_shards t =
  Array.fold_left
    (fun acc s -> match s with Resident _ -> acc + 1 | _ -> acc)
    0 t.slots

let lost_shards t =
  let out = ref [] in
  Array.iteri
    (fun k s -> match s with Lost msg -> out := (k, msg) :: !out | _ -> ())
    t.slots;
  List.rev !out

let degraded t =
  t.lost > 0
  || match t.source with Memory e -> Engine.degraded e | Container _ -> false

let serving_trusted t =
  match t.source with Memory e -> Engine.serving_trusted e | Container _ -> true

let advice_name t =
  match (t.name, t.man.Shard.m_advice) with
  | Some n, _ -> n
  | None, n :: _ -> n
  | None, [] ->
      (* create rejects advice-free containers, so this is unreachable
         for any router that was successfully constructed. *)
      invalid_arg "Router.advice_name: container has no advice sections"

let shard_of t v = Shard.shard_of_node t.man v

let touch t r =
  t.clock <- t.clock + 1;
  r.stamp <- t.clock

(* Release any budget bytes accounted to slot [k].  Centralizing the
   subtraction keeps the invariant local and auditable:
   [t.resident_bytes] is always exactly the sum of [Resident] slot
   bytes — an eviction, a loss, or a reload after salvage can neither
   leak bytes nor double-count a frame against the budget. *)
let release_slot t k =
  match t.slots.(k) with
  | Resident r ->
      t.resident_bytes <- t.resident_bytes - r.bytes;
      t.slots.(k) <- Unloaded
  | Unloaded | Lost _ -> t.slots.(k) <- Unloaded

(* Evict least-recently-used residents until [needed] more bytes fit the
   budget.  [pinned.(k)] protects the current batch wave; when nothing
   evictable remains the load proceeds anyway — a single shard larger
   than the whole budget must still serve. *)
let evict_for t ~pinned needed =
  let continue = ref true in
  while
    t.budget > 0 && t.resident_bytes + needed > t.budget && !continue
  do
    let victim = ref (-1) in
    let best = ref max_int in
    Array.iteri
      (fun k slot ->
        match slot with
        | Resident r when (not pinned.(k)) && r.stamp < !best ->
            victim := k;
            best := r.stamp
        | _ -> ())
      t.slots;
    if !victim < 0 then continue := false
    else begin
      release_slot t !victim;
      t.evictions <- t.evictions + 1;
      Obs.Metrics.incr m_evictions
    end
  done

let mark_lost t k reason =
  (* Re-marking an already-lost shard (a failed reload attempt) must
     not double-count it: [t.lost]/[store.shard.lost] count lost
     *shards*, not failed load attempts. *)
  let already = match t.slots.(k) with Lost _ -> true | _ -> false in
  release_slot t k;
  t.slots.(k) <- Lost reason;
  if not already then begin
    t.lost <- t.lost + 1;
    Obs.Metrics.incr m_lost
  end

(* Load shard [k]: fetch + decode its byte range, hand the local graph
   and advice slices to a fresh engine whose ids are the
   global node ids shifted to the identifier space (gid + 1 = the
   identity assignment a whole-graph engine uses), so every fragment
   relabeling — and therefore every answer byte — matches the
   monolithic engine's. *)
let load_resident t ~pinned k =
  let store =
    match t.source with
    | Container store -> store
    | Memory _ ->
        invalid_arg "Router: in-memory slots are resident from construction"
  in
  let info = t.man.Shard.m_shards.(k) in
  let loaded = Shard.load store k in
  let snapshot =
    {
      Store.Snapshot.graph = loaded.Shard.l_graph;
      advice = loaded.Shard.l_advice;
      meta = t.man.Shard.m_meta;
    }
  in
  let ids = Array.map (fun gid -> gid + 1) loaded.Shard.l_ids in
  let engine =
    Engine.create ?cache_capacity:t.cache_capacity ?memo:t.memo
      ~radius:t.radius ~ids ?name:t.name snapshot
  in
  let r =
    {
      engine;
      ids = loaded.Shard.l_ids;
      edge_ids = loaded.Shard.l_edge_ids;
      bytes = info.Shard.i_bytes;
      stamp = 0;
    }
  in
  (* The slot must be empty before its frame bytes are re-accounted:
     a reload of a previously lost (or, defensively, still-resident)
     shard would otherwise charge the budget twice. *)
  release_slot t k;
  evict_for t ~pinned r.bytes;
  t.slots.(k) <- Resident r;
  t.resident_bytes <- t.resident_bytes + r.bytes;
  Obs.Metrics.gauge_max m_resident_peak t.resident_bytes;
  t.loads <- t.loads + 1;
  Obs.Metrics.incr m_loads;
  touch t r;
  r

(* Resident shard [k], loading (and evicting) as needed.  A shard whose
   bytes are damaged becomes [Lost]: with [~salvage] the caller gets
   {!Shard_lost} and every other node range keeps serving; without it
   the codec's diagnostic propagates — the operator asked for fail-stop.

   [Lost] is a cached diagnostic, not a tombstone: the next touch of a
   lost range retries the load, so a transient I/O fault or repaired
   container bytes heal the shard in place.  A successful reload
   decrements the lost count and accounts its frame bytes exactly once
   ([load_resident] releases the slot before charging the budget); a
   failed retry refreshes the diagnostic without re-counting the loss. *)
let attempt_load t ~pinned k =
  match load_resident t ~pinned k with
  | r -> r
  | exception Store.Codec.Corrupt reason ->
      mark_lost t k reason;
      if t.salvage then raise (Shard_lost { shard = k; reason })
      else raise (Store.Codec.Corrupt reason)
  | exception Sys_error reason ->
      mark_lost t k reason;
      if t.salvage then raise (Shard_lost { shard = k; reason })
      else raise (Sys_error reason)

let ensure t ~pinned k =
  match t.slots.(k) with
  | Resident r ->
      touch t r;
      r
  | Unloaded -> attempt_load t ~pinned k
  | Lost _ ->
      let r = attempt_load t ~pinned k in
      (* Healed: the slot left the lost set on the successful reload. *)
      t.lost <- t.lost - 1;
      r

(* Global → local query translation.  A container shard translates by
   binary search in its sorted id tables: interior nodes always
   translate, and an edge id that is not stored in the owner shard
   cannot be incident to the queried node, which is exactly the engine's
   endpoint precondition.  An in-memory slot's ids are the global ones,
   so its translation is the identity plus that endpoint check — which
   keeps a batch's rejection ahead of any ball work. *)

let bsearch (arr : int array) (x : int) =
  let lo = ref 0 and hi = ref (Array.length arr - 1) in
  if Array.length arr = 0 then -1
  else begin
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if arr.(mid) < x then lo := mid + 1 else hi := mid
    done;
    if arr.(!lo) = x then !lo else -1
  end

let check_node t what v =
  if v < 0 || v >= n t then
    fail "Engine: %s names node %d outside 0..%d" what v (n t - 1)

let validate t = function
  | Engine.Output_label v -> check_node t "Output_label" v
  | Engine.Advice_bits v -> check_node t "Advice_bits" v
  | Engine.Edge_member (v, e) ->
      check_node t "Edge_member" v;
      if e < 0 || e >= m t then
        fail "Engine: Edge_member names edge %d outside 0..%d" e (m t - 1)

let translate t (r : resident) q =
  match (t.source, q) with
  | Memory e, Engine.Edge_member (v, ed) ->
      let a, b = Netgraph.Graph.edge_endpoints (Engine.graph e) ed in
      if v <> a && v <> b then
        fail "Engine: Edge_member node %d is not an endpoint of edge %d (%d-%d)"
          v ed a b;
      q
  | Memory _, (Engine.Output_label _ | Engine.Advice_bits _) -> q
  | Container _, Engine.Output_label v -> Engine.Output_label (bsearch r.ids v)
  | Container _, Engine.Advice_bits v -> Engine.Advice_bits (bsearch r.ids v)
  | Container _, Engine.Edge_member (v, e) ->
      let le = bsearch r.edge_ids e in
      if le < 0 then
        fail "Engine: Edge_member node %d is not an endpoint of edge %d" v e;
      Engine.Edge_member (bsearch r.ids v, le)

let query_node = function
  | Engine.Output_label v | Engine.Edge_member (v, _) | Engine.Advice_bits v ->
      v

let query t q =
  validate t q;
  let k = shard_of t (query_node q) in
  let r = ensure t ~pinned:t.unpinned k in
  Engine.query r.engine (translate t r q)

(* ------------------------------------------------------------------ *)
(* Batch: group queries by owner slot, then serve in *waves* — the
   largest prefix of needed slots whose bytes fit the resident budget
   loads together and fans across the pool (one task per slot, so one
   worker owns a slot's engine and label column for the whole wave),
   then the next wave replaces it.  In-memory slots cost no bytes, so a
   v1 batch is a single wave. *)

(* [Array.map f a] seeded with a static [placeholder]: seeding a large
   array with a young value (as [Array.map] does) forces a minor
   collection, a stop-the-world pause of every domain, per array. *)
let map_seeded placeholder f a =
  let out = Array.make (Array.length a) placeholder in
  Array.iteri (fun i x -> out.(i) <- f x) a;
  out

let plan_shards t qs =
  let nshards = Array.length t.slots in
  let owner = Array.map (fun q -> shard_of t (query_node q)) qs in
  let counts = Array.make nshards 0 in
  Array.iter (fun k -> counts.(k) <- counts.(k) + 1) owner;
  let idxs =
    Array.init nshards (fun k -> if counts.(k) = 0 then [||] else Array.make counts.(k) 0)
  in
  let fill = Array.make nshards 0 in
  Array.iteri
    (fun i k ->
      idxs.(k).(fill.(k)) <- i;
      fill.(k) <- fill.(k) + 1)
    owner;
  idxs

(* The wave loop, functorized over the concurrency shim so Check.Sched
   can run the exact slot handoff under its schedule-exploring
   scheduler.  Production is [Batch (Shim.Real)] below; the only shim
   traffic on the hot path is one Raw ownership touch per served query
   — a plain load + store through [Shim.Real.Raw], and the access trace
   the checker's vector-clock tracker uses to prove (or refute, for the
   shared-writer mutant) that no two workers ever touch one slot's
   engine unsynchronized. *)
module Batch (S : Shim.S) = struct
  (* Shadowing the outer [Pool] on purpose: call sites below read
     [Pool.run], which keeps the domain-race lint descending into the
     closures handed to the pool exactly as it does for production
     callers. *)
  module Pool = Pool.Make (S)

  let batch_results ?domains t qs =
    Array.iter (validate t) qs;
    Obs.Trace.span "serve.batch" @@ fun () ->
    Obs.Metrics.incr m_batches;
    let idxs = plan_shards t qs in
    let results = Array.make (Array.length qs) (Error "unserved") in
    (* One tracked ownership cell per slot for this batch: every engine
       call below is bracketed by a read-modify-write of its slot's
       cell, so any schedule in which two workers interleave on one
       slot is a happens-before race on that cell. *)
    let owners = Array.map (fun _ -> S.Raw.make 0) t.slots in
    let needed = ref [] in
    Array.iteri
      (fun k is -> if Array.length is > 0 then needed := k :: !needed)
      idxs;
    let remaining = ref (List.rev !needed) in
    let non_empty = function [] -> false | _ :: _ -> true in
    while non_empty !remaining do
      (* Greedy wave: slots in id order while their summed frame bytes
         fit the budget (at least one always proceeds). *)
      let pinned = Array.make (Array.length t.slots) false in
      let wave = ref [] in
      let wave_bytes = ref 0 in
      let rec take = function
        | [] -> []
        | k :: rest ->
            let b = t.man.Shard.m_shards.(k).Shard.i_bytes in
            (* wave_bytes = 0 iff the wave is empty: every frame carries
               at least its 9 header bytes (in-memory slots, at 0 bytes,
               run unbudgeted). *)
            if !wave_bytes = 0 || t.budget = 0 || !wave_bytes + b <= t.budget
            then begin
              wave := k :: !wave;
              wave_bytes := !wave_bytes + b;
              pinned.(k) <- true;
              take rest
            end
            else k :: rest
      in
      remaining := take !remaining;
      (* Load the wave (salvage failures fail only their own queries)
         and translate its queries on this domain, so pool tasks are
         pure engine calls on pre-validated local queries. *)
      let tasks = ref [] in
      List.iter
        (fun k ->
          match ensure t ~pinned k with
          | r ->
              let local =
                map_seeded (Engine.Advice_bits 0) (fun i -> translate t r qs.(i)) idxs.(k)
              in
              tasks := (k, r, local) :: !tasks
          | exception Shard_lost { shard; reason } ->
              let msg = Printf.sprintf "shard %d lost: %s" shard reason in
              Array.iter (fun i -> results.(i) <- Error msg) idxs.(k))
        (List.rev !wave);
      let tasks = Array.of_list (List.rev !tasks) in
      Obs.Metrics.add m_slots (Array.length tasks);
      (* Workers only *read* the shared memo (Engine.staged): each task
         accumulates its misses and hands them back with its answers,
         and this (the single calling) thread inserts them after the
         join — the wave boundary is the memo's write point. *)
      let parts =
        Pool.run ?domains
          (fun (k, r, local) ->
            let staged = ref [] in
            let answers =
              map_seeded (Engine.Bits "")
                (fun q ->
                  S.Raw.set owners.(k) (S.Raw.get owners.(k) + 1);
                  let a, miss = Engine.staged r.engine q in
                  (match miss with Some kv -> staged := kv :: !staged | None -> ());
                  a)
                local
            in
            (answers, !staged))
          tasks
      in
      Array.iteri
        (fun j (k, _, _) ->
          let answers, staged = parts.(j) in
          Option.iter
            (fun memo -> List.iter (fun (key, label) -> Memo.insert memo key label) staged)
            t.memo;
          Array.iteri (fun p i -> results.(i) <- Ok answers.(p)) idxs.(k))
        tasks
    done;
    results
end

module Production = Batch (Shim.Real)

let batch_results = Production.batch_results

let batch ?domains t qs =
  map_seeded (Engine.Bits "")
    (function
      | Ok a -> a
      | Error msg -> raise (Store.Codec.Corrupt msg))
    (batch_results ?domains t qs)
