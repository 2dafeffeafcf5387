(* Slots [0..capacity-1] hold the entries; [slot_of_node] is the only
   node-indexed array.  The recency list threads prev/next slot indices
   with [head] = most recently used and [tail] = next eviction victim. *)

type t = {
  cap : int;
  n : int;  (* node-id universe; kept even when cap = 0 allocates nothing *)
  slot_of_node : int array; (* node -> slot, -1 when absent *)
  node_of_slot : int array;
  value : string array;
  prev : int array;
  next : int array;
  mutable used : int;
  mutable head : int;
  mutable tail : int;
}

let create ~capacity ~n =
  if capacity < 0 then invalid_arg "Cache.create: negative capacity";
  if n < 0 then invalid_arg "Cache.create: negative node count";
  {
    cap = capacity;
    n;
    (* Capacity 0 is the documented no-op cache (the cold baseline in the
       pool benches): it must also cost nothing, so skip the node-indexed
       slot map — the only O(n) allocation — entirely. *)
    slot_of_node = (if capacity = 0 then [||] else Array.make n (-1));
    node_of_slot = Array.make capacity (-1);
    value = Array.make capacity "";
    prev = Array.make capacity (-1);
    next = Array.make capacity (-1);
    used = 0;
    head = -1;
    tail = -1;
  }

let capacity c = c.cap
let length c = c.used

let mem c v = c.cap > 0 && v >= 0 && v < c.n && c.slot_of_node.(v) >= 0

(* Detach a slot from the recency list. *)
let unlink c s =
  let p = c.prev.(s) and n = c.next.(s) in
  if p >= 0 then c.next.(p) <- n else c.head <- n;
  if n >= 0 then c.prev.(n) <- p else c.tail <- p;
  c.prev.(s) <- -1;
  c.next.(s) <- -1

(* Make a detached slot the most recently used. *)
let push_front c s =
  c.prev.(s) <- -1;
  c.next.(s) <- c.head;
  if c.head >= 0 then c.prev.(c.head) <- s else c.tail <- s;
  c.head <- s

let promote c s =
  if c.head <> s then begin
    unlink c s;
    push_front c s
  end

let find c v =
  if not (mem c v) then None
  else begin
    let s = c.slot_of_node.(v) in
    promote c s;
    Some c.value.(s)
  end

let insert c v s =
  if v < 0 || v >= c.n then invalid_arg "Cache.insert: node out of range";
  if c.cap > 0 then begin
    let slot =
      if c.slot_of_node.(v) >= 0 then begin
        let slot = c.slot_of_node.(v) in
        promote c slot;
        slot
      end
      else if c.used < c.cap then begin
        let slot = c.used in
        c.used <- c.used + 1;
        push_front c slot;
        slot
      end
      else begin
        (* Evict the LRU entry and reuse its slot. *)
        let slot = c.tail in
        c.slot_of_node.(c.node_of_slot.(slot)) <- -1;
        promote c slot;
        slot
      end
    in
    c.slot_of_node.(v) <- slot;
    c.node_of_slot.(slot) <- v;
    c.value.(slot) <- s
  end

let clear c =
  for s = 0 to c.used - 1 do
    c.slot_of_node.(c.node_of_slot.(s)) <- -1;
    c.node_of_slot.(s) <- -1;
    c.value.(s) <- "";
    c.prev.(s) <- -1;
    c.next.(s) <- -1
  done;
  c.used <- 0;
  c.head <- -1;
  c.tail <- -1
