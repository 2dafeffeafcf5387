module Shard = Store.Shard

let m_loads = Obs.Metrics.counter "store.shard.loads"
let m_evictions = Obs.Metrics.counter "store.shard.evictions"
let m_lost = Obs.Metrics.counter "store.shard.lost"
let m_resident_peak = Obs.Metrics.gauge "store.shard.resident_bytes"
let m_batches = Obs.Metrics.counter "serve.batches"
let m_slots = Obs.Metrics.counter "serve.batch.shards"
let m_degraded = Obs.Metrics.counter "serve.degraded"
let m_quarantined = Obs.Metrics.counter "serve.quarantined"

exception Shard_lost of { shard : int; reason : string }

let fail fmt = Format.kasprintf invalid_arg fmt

(* One resident container shard: its engine, whose label column the
   shard's slots cut into disjoint node ranges; [shift], which maps a
   global id in [lo, hi) to its local id ([v + shift]: the interior is
   one run of the sorted local ids); [halo], the global ids of the local
   nodes below and above that run, in local order; the global edge-id
   table; and its frame bytes, charged to the resident budget.  A
   [whole] shard stores every node and edge: [lo, hi) is then every
   node, and its id tables, the identity, are not kept. *)
type resident = {
  engine : Engine.t;
  whole : bool;
  lo : int;
  hi : int;
  shift : int;
  halo : int array;
  edge_ids : int array;
  bytes : int;
  mutable stamp : int;  (* LRU recency, from the router clock *)
}

type shard = Unloaded | Resident of resident | Lost of string

(* A slot: the nodes of container shard [shard] from [lo] up to the
   next slot's [lo] (or the end of the shard). *)
type slot = { shard : int; lo : int }

type t = {
  store : Shard.t;
  man : Shard.manifest;
  salvage : bool;
  cache_capacity : int option;  (* passed to each loaded shard engine *)
  memo : Memo.t option;  (* the shipped class table, loaded once and
                            shared by every shard engine *)
  meta : (string * string) list;  (* the shard engines' metadata: the
                                     manifest's, less the table *)
  budget : int;  (* resident-byte budget; 0 = unbounded *)
  radius : int;
  domains : int;  (* sets the slot count, and the pool size of a batch *)
  slots : slot array;  (* in node order *)
  first_slot : int array;  (* per shard, plus one past the last slot *)
  shards : shard array;
  unpinned : bool array;  (* all false: what a single query pins *)
  damage : string list;  (* a salvaged v1 file's non-healthy sections *)
  trusted : bool;  (* the served advice section passed its checksum *)
  mutable degraded_answers : int;
  mutable resident_bytes : int;
  mutable clock : int;
  mutable loads : int;
  mutable evictions : int;
  mutable lost : int;
}

let n t = t.man.Shard.m_n
let m t = t.man.Shard.m_m
let radius t = t.radius

let certified_all t =
  match List.assoc_opt "serve.certified" t.man.Shard.m_meta with
  | Some c -> String.equal c "all"
  | None -> false

let memo_stats t = Option.map Memo.stats t.memo
let slot_count t = Array.length t.slots
let resident_bytes t = t.resident_bytes
let loads t = t.loads
let evictions t = t.evictions

let resident_shards t =
  Array.fold_left
    (fun acc s -> match s with Resident _ -> acc + 1 | _ -> acc)
    0 t.shards

let lost_shards t =
  let out = ref [] in
  Array.iteri
    (fun k s -> match s with Lost msg -> out := (k, msg) :: !out | _ -> ())
    t.shards;
  List.rev !out

let degraded t = t.lost > 0 || not (List.is_empty t.damage)
let serving_trusted t = t.trusted
let quarantined_sections t = t.damage
let degraded_answers t = t.degraded_answers

(* One count per answer that leaves the router, taken as it leaves: the
   single definition of a degraded answer. *)
let note_answered t count =
  if degraded t then begin
    t.degraded_answers <- t.degraded_answers + count;
    Obs.Metrics.add m_degraded count
  end;
  if not t.trusted then Obs.Metrics.add m_quarantined count

(* Damage report lines: one per non-healthy section of a salvage. *)
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

(* The shard lists checksum-clean advice first, so the served section
   is trusted unless the report has no healthy advice row. *)
let trusted_advice report =
  List.is_empty report
  || List.exists
       (fun r ->
         match r.Store.Snapshot.s_status with
         | Store.Snapshot.Healthy -> r.Store.Snapshot.s_tag = Store.Snapshot.tag_advice
         | Store.Snapshot.Quarantined _ | Store.Snapshot.Lost _ -> false)
       report

(* [create] rejects advice-free containers, so the list is not empty. *)
let advice_name t = List.hd t.man.Shard.m_advice

let shard_of t v = Shard.shard_of_node t.man v

(* Owner slot of an in-range node, for batch planning: the last slot
   starting at or before it (an empty slot shares its start with the
   next one). *)
let slot_of t v =
  let lo = ref 0 and hi = ref (Array.length t.slots - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.slots.(mid).lo <= v then lo := mid else hi := mid - 1
  done;
  !lo

let touch t r =
  t.clock <- t.clock + 1;
  r.stamp <- t.clock

(* Release any budget bytes accounted to shard [k].  Centralizing the
   subtraction keeps the invariant local and auditable:
   [t.resident_bytes] is always exactly the sum of [Resident] shard
   bytes — an eviction, a loss, or a reload after salvage can neither
   leak bytes nor double-count a frame against the budget. *)
let release_shard t k =
  match t.shards.(k) with
  | Resident r ->
      t.resident_bytes <- t.resident_bytes - r.bytes;
      t.shards.(k) <- Unloaded
  | Unloaded | Lost _ -> t.shards.(k) <- Unloaded

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
      (fun k shard ->
        match shard with
        | Resident r when (not pinned.(k)) && r.stamp < !best ->
            victim := k;
            best := r.stamp
        | _ -> ())
      t.shards;
    if !victim < 0 then continue := false
    else begin
      release_shard t !victim;
      t.evictions <- t.evictions + 1;
      Obs.Metrics.incr m_evictions
    end
  done

let mark_lost t k reason =
  (* Re-marking an already-lost shard (a failed reload attempt) must
     not double-count it: [t.lost]/[store.shard.lost] count lost
     *shards*, not failed load attempts. *)
  let already = match t.shards.(k) with Lost _ -> true | _ -> false in
  release_shard t k;
  t.shards.(k) <- Lost reason;
  if not already then begin
    t.lost <- t.lost + 1;
    Obs.Metrics.incr m_lost
  end

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

(* Load shard [k]: fetch + decode its byte range and hand the local
   graph and advice slices to a fresh engine.  Its identifiers are the
   local ones: local ids are sorted by global id, and the decoder and
   the memo key read identifiers only through their order, so every
   answer byte matches the monolithic engine's (DESIGN.md, "Sharded
   snapshot layout").  The interior is one run of the sorted local ids,
   so each of the shard's slots is a local range of the engine's column
   too. *)
let load_resident t ~pinned k =
  let info = t.man.Shard.m_shards.(k) in
  let loaded = Shard.load t.store k in
  let whole =
    info.Shard.i_local_n = t.man.Shard.m_n && info.Shard.i_local_m = t.man.Shard.m_m
  in
  let snapshot =
    {
      Store.Snapshot.graph = loaded.Shard.l_graph;
      advice = loaded.Shard.l_advice;
      meta = t.meta;
    }
  in
  let engine =
    Engine.create ?cache_capacity:t.cache_capacity ?memo:t.memo ~radius:t.radius snapshot
  in
  let ids = loaded.Shard.l_ids in
  let lo, hi = if whole then (0, t.man.Shard.m_n) else (info.Shard.i_lo, info.Shard.i_hi) in
  let shift = if whole then 0 else bsearch ids lo - lo in
  let above = hi + shift in
  let r =
    {
      engine;
      whole;
      lo;
      hi;
      shift;
      halo =
        (if whole then [||]
         else Array.append (Array.sub ids 0 (lo + shift)) (Array.sub ids above (Array.length ids - above)));
      edge_ids = (if whole then [||] else loaded.Shard.l_edge_ids);
      bytes = info.Shard.i_bytes;
      stamp = 0;
    }
  in
  (* The shard must be empty before its frame bytes are re-accounted:
     a reload of a previously lost (or, defensively, still-resident)
     shard would otherwise charge the budget twice. *)
  release_shard t k;
  evict_for t ~pinned r.bytes;
  t.shards.(k) <- Resident r;
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
   ([load_resident] releases the shard before charging the budget); a
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
  match t.shards.(k) with
  | Resident r ->
      touch t r;
      r
  | Unloaded -> attempt_load t ~pinned k
  | Lost _ ->
      let r = attempt_load t ~pinned k in
      (* Healed: the shard left the lost set on the successful reload. *)
      t.lost <- t.lost - 1;
      r

let create ?cache_capacity ?(resident_budget = 0) ?(salvage = false) ?memo
    ?radius ?domains store =
  (* A damaged v1 file's damage is known at open: without salvage the
     router fails-stop here, with the strict reader's diagnostic; with
     it, the one shard's salvage report says what is served. *)
  let report =
    match Shard.damage store with
    | None -> []
    | Some diagnostic when not salvage -> raise (Store.Codec.Corrupt diagnostic)
    | Some _ -> (Shard.load store 0).Shard.l_report
  in
  let man = Shard.manifest store in
  let radius = Engine.serve_radius ?radius man.Shard.m_meta in
  let s = Array.length man.Shard.m_shards in
  if s > 1 && man.Shard.m_halo < max radius 1 then
    fail
      "Router.create: container halo %d cannot serve radius %d (needs at \
       least %d) — repack with a deeper halo"
      man.Shard.m_halo radius (max radius 1);
  if resident_budget < 0 then
    fail "Router.create: negative resident budget %d" resident_budget;
  (match cache_capacity with
  | Some c when c < 0 -> fail "Router.create: negative cache capacity %d" c
  | _ -> ());
  let domains =
    match domains with
    | Some d when d < 1 -> fail "Router.create: domain count %d must be positive" d
    | Some d -> d
    | None -> Localmodel.Pool.effective_domains ()
  in
  if List.is_empty man.Shard.m_advice then
    raise
      (Store.Codec.Corrupt
         (match Shard.damage store with
         | Some diagnostic -> "container has no advice section left after salvage: " ^ diagnostic
         | None -> "container has no advice section"));
  (* ⌈D/S⌉ node ranges per shard: a one-shard file gets D slots, and a
     container with at least D shards one slot per shard. *)
  let slots =
    Array.concat
      (List.map
         (fun { Shard.i_index = shard; i_lo; i_hi; _ } ->
           Array.map
             (fun (a, _) -> { shard; lo = i_lo + a })
             (Shard.plan ~n:(i_hi - i_lo) ~shards:((domains + s - 1) / s)))
         (Array.to_list man.Shard.m_shards))
  in
  let first_slot = Array.make (s + 1) (Array.length slots) in
  Array.iteri (fun j slot -> first_slot.(slot.shard) <- min first_slot.(slot.shard) j) slots;
  let meta = man.Shard.m_meta in
  let t =
    {
      store;
      man;
      salvage;
      cache_capacity;
      memo = Option.bind memo (fun memo -> Memo.attach memo meta);
      meta = List.filter (fun (k, _) -> not (String.equal k Memo.table_key)) meta;
      budget = resident_budget;
      radius;
      domains;
      slots;
      first_slot;
      shards = Array.make s Unloaded;
      unpinned = Array.make s false;
      damage = List.filter_map describe_damage report;
      trusted = trusted_advice report;
      degraded_answers = 0;
      resident_bytes = 0;
      clock = 0;
      loads = 0;
      evictions = 0;
      lost = 0;
    }
  in
  (* A salvaged v1 file was parsed whole at open; its one shard's engine
     is built now too.  An engine the file cannot make (a malformed
     [params.*] value) leaves the shard [Lost], so every query answers
     with its diagnostic, as a healthy file's would. *)
  (if Option.is_some (Shard.damage store) then
     try ignore (ensure t ~pinned:t.unpinned 0) with Shard_lost _ -> ());
  t

(* Global → local query translation, one rule for every shard: a
   query's node is interior to its owner, so its local id is [v +
   shift], and an [Edge_member]'s local edge is the one among that
   node's incident edges whose global id matches.  The endpoint check
   runs here, on the calling domain, so a bad batch is rejected before
   its wave's ball work.  Only a failure binary-searches the edge
   table, to name the endpoints of an edge the shard stores as the
   engine would. *)

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

(* Global id of local node [x]: by the offset inside the run, through
   the halo table outside it. *)
let global_id (r : resident) x =
  let v = x - r.shift in
  if v < r.lo then r.halo.(x) else if v < r.hi then v else r.halo.(x - (r.hi - r.lo))

let not_incident (r : resident) v e =
  let le = if r.whole then e else bsearch r.edge_ids e in
  if le < 0 then fail "Engine: Edge_member node %d is not an endpoint of edge %d" v e;
  let a, b = Netgraph.Graph.edge_endpoints (Engine.graph r.engine) le in
  fail "Engine: Edge_member node %d is not an endpoint of edge %d (%d-%d)" v e
    (global_id r a) (global_id r b)

(* Entry [k] of a graph row (see {!Netgraph.Graph.get32}). *)
let[@inline] at r k = Int32.to_int (Netgraph.Graph.get32 r (k lsl 2))

let local_edge (r : resident) v e =
  let g = Engine.graph r.engine in
  let off = Netgraph.Graph.row_offsets g and inc = Netgraph.Graph.row_edges g in
  let lv = v + r.shift in
  let k = ref (at off lv) and stop = at off (lv + 1) in
  while !k < stop && (if r.whole then at inc !k else r.edge_ids.(at inc !k)) <> e do
    incr k
  done;
  if !k = stop then not_incident r v e else at inc !k

let translate (r : resident) = function
  | Engine.Output_label v -> Engine.Output_label (v + r.shift)
  | Engine.Advice_bits v -> Engine.Advice_bits (v + r.shift)
  | Engine.Edge_member (v, e) -> Engine.Edge_member (v + r.shift, local_edge r v e)

let query_node = function
  | Engine.Output_label v | Engine.Edge_member (v, _) | Engine.Advice_bits v ->
      v

(* A single query builds nothing: no local query box, and the engine
   returns an answer its column already holds (or a shared one).  A
   whole shard's engine checks an [Edge_member] itself, with the same
   message. *)
let query t q =
  validate t q;
  let v = query_node q in
  let r = ensure t ~pinned:t.unpinned (shard_of t v) in
  let a =
    match q with
    | Engine.Output_label _ -> Engine.output_label r.engine (v + r.shift)
    | Engine.Advice_bits _ -> Engine.advice_bits r.engine (v + r.shift)
    | Engine.Edge_member (_, e) ->
        Engine.edge_member r.engine (v + r.shift) (if r.whole then e else local_edge r v e)
  in
  note_answered t 1;
  a

(* ------------------------------------------------------------------ *)
(* Batch: group queries by owner slot, then serve in *waves* — the
   largest prefix of needed shards whose bytes fit the resident budget
   loads together and fans its slots across the pool (one task per
   slot, so one worker owns a slot's range of its shard engine's label
   column for the whole wave), then the next wave replaces it. *)

(* [Array.map f a] seeded with a static [placeholder]: seeding a large
   array with a young value (as [Array.map] does) forces a minor
   collection, a stop-the-world pause of every domain, per array. *)
let map_seeded placeholder f a =
  let out = Array.make (Array.length a) placeholder in
  Array.iteri (fun i x -> out.(i) <- f x) a;
  out

let plan_slots t qs =
  let nslots = slot_count t in
  let owner = Array.map (fun q -> slot_of t (query_node q)) qs in
  let counts = Array.make nslots 0 in
  Array.iter (fun j -> counts.(j) <- counts.(j) + 1) owner;
  let idxs =
    Array.init nslots (fun j -> if counts.(j) = 0 then [||] else Array.make counts.(j) 0)
  in
  let fill = Array.make nslots 0 in
  Array.iteri
    (fun i j ->
      idxs.(j).(fill.(j)) <- i;
      fill.(j) <- fill.(j) + 1)
    owner;
  idxs

(* The wave loop, functorized over the concurrency shim so Check.Sched
   can run the exact slot handoff under its schedule-exploring
   scheduler.  Production is [Batch (Shim.Real)] below; the only shim
   traffic on the hot path is one Raw ownership touch per served query
   — a plain load + store through [Shim.Real.Raw], and the access trace
   the checker's vector-clock tracker uses to prove (or refute, for the
   shared-writer mutant) that no two workers ever touch one slot's
   column range unsynchronized. *)
module Batch (S : Shim.S) = struct
  (* Named [Pool] so the call below reads [Pool.run], whose closures
     the domain-race lint audits as it does every production caller's. *)
  module Pool = Localmodel.Pool.Make (S)

  (* [~strict]: a lost shard raises its diagnostic as [Codec.Corrupt]
     before its wave's pool runs, so a batch that will be rejected
     serves nothing more; otherwise its queries get [Error]. *)
  let serve t qs ~strict =
    Array.iter (validate t) qs;
    Obs.Trace.span "serve.batch" @@ fun () ->
    Obs.Metrics.incr m_batches;
    let idxs = plan_slots t qs in
    let results = Array.make (Array.length qs) (Error "unserved") in
    (* One tracked ownership cell per slot for this batch: every engine
       call below is bracketed by a read-modify-write of its slot's
       cell, so any schedule in which two workers interleave on one
       slot is a happens-before race on that cell. *)
    let owners = Array.map (fun _ -> S.Raw.make 0) idxs in
    let needed = Array.make (Array.length t.shards) false in
    Array.iteri (fun j is -> if Array.length is > 0 then needed.(t.slots.(j).shard) <- true) idxs;
    let remaining = ref (List.filter (Array.get needed) (List.init (Array.length t.shards) Fun.id)) in
    let non_empty = function [] -> false | _ :: _ -> true in
    while non_empty !remaining do
      (* Greedy wave: shards in id order while their summed frame bytes
         fit the budget (at least one always proceeds). *)
      let pinned = Array.make (Array.length t.shards) false in
      let wave = ref [] in
      let wave_bytes = ref 0 in
      let rec take = function
        | [] -> []
        | k :: rest ->
            let b = t.man.Shard.m_shards.(k).Shard.i_bytes in
            (* wave_bytes = 0 iff the wave is empty: every frame carries
               at least its 9 header bytes. *)
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
          let slots = List.init (t.first_slot.(k + 1) - t.first_slot.(k)) (( + ) t.first_slot.(k)) in
          match ensure t ~pinned k with
          | r ->
              List.iter
                (fun j ->
                  if Array.length idxs.(j) > 0 then begin
                    let local =
                      map_seeded (Engine.Advice_bits 0) (fun i -> translate r qs.(i)) idxs.(j)
                    in
                    tasks := (j, r.engine, local) :: !tasks
                  end)
                slots
          | exception Shard_lost { shard; reason } ->
              let msg = Printf.sprintf "shard %d lost: %s" shard reason in
              if strict then raise (Store.Codec.Corrupt msg);
              List.iter (fun j -> Array.iter (fun i -> results.(i) <- Error msg) idxs.(j)) slots)
        (List.rev !wave);
      let tasks = Array.of_list (List.rev !tasks) in
      Obs.Metrics.add m_slots (Array.length tasks);
      (* Workers only read the shared class table, and each writes
         only its own slot's range of a label column. *)
      let parts =
        Pool.run ~domains:t.domains
          (fun (j, engine, local) ->
            map_seeded (Engine.Bits "")
              (fun q ->
                S.Raw.set owners.(j) (S.Raw.get owners.(j) + 1);
                Engine.query engine q)
              local)
          tasks
      in
      Array.iteri
        (fun p (j, _, _) -> Array.iteri (fun q i -> results.(i) <- Ok parts.(p).(q)) idxs.(j))
        tasks
    done;
    results

  let batch_results t qs = serve t qs ~strict:false
end

module Production = Batch (Shim.Real)

let batch_results t qs =
  let rs = Production.batch_results t qs in
  note_answered t (Array.fold_left (fun k r -> if Result.is_ok r then k + 1 else k) 0 rs);
  rs

(* A batch with a lost query leaves as one error, raised as its wave
   meets the lost shard: none of its answers is served, so none is
   counted, and the waves after it decode nothing. *)
let batch t qs =
  let az =
    map_seeded (Engine.Bits "")
      (function
        | Ok a -> a
        | Error msg -> raise (Store.Codec.Corrupt msg))
      (Production.serve t qs ~strict:true)
  in
  note_answered t (Array.length az);
  az
