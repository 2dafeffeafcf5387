(* Canonical-ball decode memo: an open-addressed string table mapping
   (radius/params/trust prefix ^ Ethlink.Canonical.ball_signature) to
   decoded labels, behind a filter of ball fingerprints.  Sits between
   the per-shard label columns and the ball decoder: a column remembers
   a *node*, and a node the column has not decoded yet still hits here
   when its ball is isomorphic (same canonical signature) to one
   decoded before — on any shard, and across shard evictions.

   The filter is what keeps a miss cheap.  A class is stored on its
   second sighting: the first only records the ball's fingerprint
   (Ethlink.Canonical.ball_fingerprint, a hash of fields the key also
   holds), and the caller decodes without building a key.  Traffic
   whose balls are all distinct classes then builds and keeps no keys
   at all, and a singleton can never take a slot from a class that
   recurs.  A fingerprint names a class only probably: a repeat
   sighting builds the key, and a hit is decided by full-key equality,
   so a shared fingerprint costs one key, never an answer byte.

   Concurrency contract (the reason this is not a Hashtbl): reads
   ([first_sighting], [find], [find_sub]) touch no mutable metadata, so
   any number of pool workers may probe a *frozen* table concurrently;
   writes ([record], [insert], [publish]) are reserved to a single
   publishing thread — the engine's single-query path, or the router's
   batch caller after its pool join.  The arrays are plain (not Atomic)
   on purpose: the publication discipline guarantees no write is ever
   concurrent with a read, which the domain-race lint and the
   Check.Sched router scenario audit at the call sites.

   The table is bounded by entry count, sized to a load factor of at
   most 1/2, and *drops* inserts at capacity instead of evicting:
   canonical-ball hits come from a tiny population of signature classes
   (see BENCH_local.json store.memo), so the first-stored class
   representatives are exactly the ones worth keeping.  The filter has
   one slot per table slot, in buckets of up to eight (one cache line);
   a full bucket overwrites one fingerprint, so a filter forgets and a
   forgotten class costs one more decode, never a wrong answer. *)

let m_hits = Obs.Metrics.counter "serve.memo.hits"
let m_misses = Obs.Metrics.counter "serve.memo.misses"
let m_probes = Obs.Metrics.counter "serve.memo.probes"
let m_bytes = Obs.Metrics.gauge "serve.memo.bytes"

type t = {
  capacity : int;  (* max stored entries; 0 = the memo is a no-op *)
  mask : int;  (* slot-index mask; slot count is a power of two *)
  keys : string array;  (* "" marks an empty slot *)
  vals : string array;
  filter : int array;  (* sighted fingerprints, one per slot; 0 = empty *)
  ways : int;  (* slots per filter bucket: a power of two, at most 8 *)
  mutable entries : int;
  mutable bytes : int;  (* resident key + value bytes *)
  mutable stores : int;  (* publishes of a new key *)
  mutable drops : int;  (* inserts refused at capacity *)
  mutable first_sightings : int;  (* fingerprints recorded *)
}

type stats = {
  s_capacity : int;
  s_entries : int;
  s_bytes : int;
  s_stores : int;
  s_drops : int;
  s_first_sightings : int;
}

type publication = Sighting of int | Store of string * string

let create ~capacity =
  if capacity < 0 then
    Format.kasprintf invalid_arg "Memo.create: negative capacity %d" capacity;
  let slots =
    if capacity = 0 then 0
    else begin
      (* Smallest power of two holding [capacity] at load factor <= 1/2,
         doubled only while it still fits an array: [2 * capacity] may
         not fit an int. *)
      let s = ref 2 in
      while !s / 2 < capacity && !s <= Sys.max_array_length / 2 do
        s := !s * 2
      done;
      if !s / 2 < capacity then
        Format.kasprintf invalid_arg
          "Memo.create: capacity %d needs more than Sys.max_array_length \
           slots"
          capacity;
      !s
    end
  in
  {
    capacity;
    mask = slots - 1;
    keys = Array.make slots "";
    vals = Array.make slots "";
    filter = Array.make slots 0;
    ways = min 8 slots;
    entries = 0;
    bytes = 0;
    stores = 0;
    drops = 0;
    first_sightings = 0;
  }

let stats t =
  {
    s_capacity = t.capacity;
    s_entries = t.entries;
    s_bytes = t.bytes;
    s_stores = t.stores;
    s_drops = t.drops;
    s_first_sightings = t.first_sightings;
  }

(* FNV-1a-style multiply-xor over the key bytes, eight at a time,
   folded into OCaml's native int range (the 64-bit offset basis
   truncated to fit the 63-bit int — only the prime multiply matters for
   mixing).  A multiply only carries bits upward, and the slot index is
   the low bits, so every word step folds the high half back down.  The
   poly-compare rule (rightly) bans Hashtbl.hash here; keys are a few
   hundred bytes, so a word at a time is several times cheaper than
   byte-wise FNV. *)
let fnv_offset = 0x3bf29ce484222325
let fnv_prime = 0x100000001b3

(* The hash of the first [n] bytes of [b]: a probe hashes the key in
   the domain's key buffer, a stored key through
   [Bytes.unsafe_of_string], and both read the same bytes alike. *)
let hash_sub (b : Bytes.t) n =
  let h = ref fnv_offset and i = ref 0 in
  while !i + 8 <= n do
    let w = Int64.to_int (Bytes.get_int64_le b !i) in
    let x = (!h lxor w) * fnv_prime in
    h := x lxor (x lsr 29);
    i := !i + 8
  done;
  while !i < n do
    h := (!h lxor Char.code (Bytes.unsafe_get b !i)) * fnv_prime;
    incr i
  done;
  (!h lxor (!h lsr 32)) land max_int

(* Whether stored key [k] is the first [n] bytes of [b], eight bytes a
   step: two words are equal exactly when their xor is zero, which the
   two overlapping 63-bit halves of it show without a boxed compare. *)
let equal_sub (k : string) (b : Bytes.t) n =
  String.length k = n
  &&
  let eq = ref true and i = ref 0 in
  while !eq && !i + 8 <= n do
    let x = Int64.logxor (String.get_int64_le k !i) (Bytes.get_int64_le b !i) in
    eq := Int64.to_int x lor Int64.to_int (Int64.shift_right_logical x 1) = 0;
    i := !i + 8
  done;
  while !eq && !i < n do
    eq := Char.code (String.unsafe_get k !i) = Char.code (Bytes.unsafe_get b !i);
    incr i
  done;
  !eq

(* Slot holding the key [b.(0 .. n-1)], or the empty slot where it
   would go.  Linear probing; with load <= 1/2 the expected probe chain
   is short, and every extra probe is counted so the obs block exposes
   clustering. *)
let slot_of t b n =
  let i = ref (hash_sub b n land t.mask) in
  let continue = ref true in
  while !continue do
    let k = Array.unsafe_get t.keys !i in
    if String.length k = 0 || equal_sub k b n then continue := false
    else begin
      Obs.Metrics.incr m_probes;
      i := (!i + 1) land t.mask
    end
  done;
  !i

let find_sub t b n =
  if t.capacity = 0 then None
  else begin
    let i = slot_of t b n in
    if String.length t.keys.(i) = 0 then begin
      Obs.Metrics.incr m_misses;
      None
    end
    else begin
      Obs.Metrics.incr m_hits;
      Some t.vals.(i)
    end
  end

let find t key = find_sub t (Bytes.unsafe_of_string key) (String.length key)

let insert t key value =
  if String.length key = 0 then
    invalid_arg "Memo.insert: the empty key is the empty-slot marker";
  if t.capacity > 0 then begin
    let i = slot_of t (Bytes.unsafe_of_string key) (String.length key) in
    if String.length t.keys.(i) = 0 then begin
      (* A full table drops the newcomer: the resident class
         representatives keep their hits, and the caller's answer is
         already computed — correctness never depends on storing. *)
      if t.entries >= t.capacity then t.drops <- t.drops + 1
      else begin
        t.keys.(i) <- key;
        t.vals.(i) <- value;
        t.entries <- t.entries + 1;
        t.bytes <- t.bytes + String.length key + String.length value;
        t.stores <- t.stores + 1;
        Obs.Metrics.gauge_max m_bytes t.bytes
      end
    end
    (* Re-publishing an existing key is a no-op: the byte-identity
       contract means the staged value equals the resident one (two
       workers staging the same canonical ball in one batch). *)
  end

(* The filter.  0 marks an empty slot, so fingerprint 0 is filed as 1;
   a fingerprint's low bits pick its bucket. *)
let[@inline] tag fp = if fp = 0 then 1 else fp
let[@inline] bucket t fp = fp land t.mask land lnot (t.ways - 1)

let sighted t fp =
  let b = bucket t fp in
  let found = ref false in
  for i = b to b + t.ways - 1 do
    if Array.unsafe_get t.filter i = fp then found := true
  done;
  !found

let first_sighting t fp =
  if t.capacity = 0 then true
  else if sighted t (tag fp) then false
  else begin
    Obs.Metrics.incr m_misses;
    true
  end

let record t fp =
  let fp = tag fp in
  if t.capacity > 0 && not (sighted t fp) then begin
    (* An empty way of the bucket, else the way the record count picks:
       spread over the ways, so no two fingerprints evict each other
       forever. *)
    let b = bucket t fp in
    let way = ref (b + (t.first_sightings land (t.ways - 1))) in
    for i = b + t.ways - 1 downto b do
      if Array.unsafe_get t.filter i = 0 then way := i
    done;
    t.filter.(!way) <- fp;
    t.first_sightings <- t.first_sightings + 1
  end

let publish t = function
  | Sighting fp -> record t fp
  | Store (key, label) -> insert t key label
