(* The ball-class table: an open-addressed string table mapping
   canonical ball keys (Ethlink.Canonical.write_ball_key's bytes) to
   decoded labels.  Sits between the per-shard label columns and the
   ball decoder: a column remembers a *node*, and a node the column has
   not decoded yet still hits here when its ball is isomorphic (same
   canonical key) to a class the pack shipped — on any shard, and
   across shard evictions.

   The classes are counted and decoded once, at pack time
   (Pack.edge_compression), and shipped as one metadata entry.  An
   engine or router loads that entry into the table once ([attach]);
   nothing writes the table after that.  So the probes ([find],
   [find_sub]) read frozen arrays, and any number of pool workers may
   probe at once: the arrays are plain (not Atomic) because every write
   happens before the first query.

   The table is bounded by entry count, sized to a load factor of at
   most 1/2, and *drops* inserts at capacity: a caller that sizes it to
   the shipped table's class count (as `advice_store serve --memo`
   does) never drops one. *)

let m_hits = Obs.Metrics.counter "serve.memo.hits"
let m_misses = Obs.Metrics.counter "serve.memo.misses"
let m_probes = Obs.Metrics.counter "serve.memo.probes"
let m_bytes = Obs.Metrics.gauge "serve.memo.bytes"

type t = {
  capacity : int;  (* max stored entries; 0 = the memo is a no-op *)
  mask : int;  (* slot-index mask; slot count is a power of two *)
  keys : string array;  (* "" marks an empty slot *)
  vals : string array;
  mutable entries : int;
  mutable bytes : int;  (* resident key + value bytes *)
}

type stats = { s_capacity : int; s_entries : int; s_bytes : int }

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
    entries = 0;
    bytes = 0;
  }

let stats t = { s_capacity = t.capacity; s_entries = t.entries; s_bytes = t.bytes }

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
  if t.entries < t.capacity then begin
    let i = slot_of t (Bytes.unsafe_of_string key) (String.length key) in
    (* Re-inserting an existing key is a no-op: a class has one label. *)
    if String.length t.keys.(i) = 0 then begin
      t.keys.(i) <- key;
      t.vals.(i) <- value;
      t.entries <- t.entries + 1;
      t.bytes <- t.bytes + String.length key + String.length value;
      Obs.Metrics.gauge_max m_bytes t.bytes
    end
  end

(* The shipped table: [classes:varint covered:varint], then
   [key:str label:str] per class, in Store.Codec's field encoding. *)

let table_key = "serve.table"

let write_table ~covered classes =
  let w = Store.Codec.writer () in
  Store.Codec.varint w (List.length classes);
  Store.Codec.varint w covered;
  List.iter
    (fun (key, label) ->
      Store.Codec.str w key;
      Store.Codec.str w label)
    classes;
  Store.Codec.contents w

let corrupt fmt = Format.kasprintf (fun s -> raise (Store.Codec.Corrupt s)) fmt

(* Walk a shipped table's bytes, handing every class to [f].  The class
   count is checked against the bytes left before anything is read (a
   class takes at least three: two lengths and one key byte), and every
   string length by the codec, so a count that lies allocates
   nothing. *)
let walk table f =
  let r = Store.Codec.reader table in
  let classes = Store.Codec.read_varint r in
  let covered = Store.Codec.read_varint r in
  if classes > Store.Codec.remaining r / 3 then
    corrupt "class table claims %d class(es) in %d byte(s)" classes
      (Store.Codec.remaining r);
  for _ = 1 to classes do
    let key = Store.Codec.read_str r in
    if String.length key = 0 then corrupt "class table holds an empty key";
    f key (Store.Codec.read_str r)
  done;
  Store.Codec.expect_end r ~what:"class table";
  (classes, covered)

let read_table table = walk table (fun _ _ -> ())

let attach t meta =
  Option.iter
    (fun table -> ignore (walk table (insert t)))
    (List.assoc_opt table_key meta);
  if t.entries > 0 then Some t else None
