open Netgraph

let signature (view : Localmodel.View.t) =
  let buf = Buffer.create 256 in
  let g = view.Localmodel.View.graph in
  Buffer.add_string buf (string_of_int (Graph.n g));
  Buffer.add_char buf '|';
  Buffer.add_string buf (string_of_int view.Localmodel.View.center);
  Buffer.add_char buf '|';
  Graph.iter_edges
    (fun _ (u, v) ->
      Buffer.add_string buf (Printf.sprintf "%d-%d," u v))
    g;
  Buffer.add_char buf '|';
  Array.iter
    (fun d -> Buffer.add_string buf (string_of_int d ^ ","))
    view.Localmodel.View.dist;
  Buffer.add_char buf '|';
  (* Ranks of identifiers inside the view: the order type, which is all an
     order-invariant algorithm may use. *)
  Array.iter
    (fun r -> Buffer.add_string buf (string_of_int r ^ ","))
    (Localmodel.Ids.rank view.Localmodel.View.ids);
  Buffer.add_char buf '|';
  Array.iter
    (fun s ->
      Buffer.add_string buf s;
      Buffer.add_char buf ',')
    view.Localmodel.View.advice;
  Buffer.add_char buf '|';
  Array.iter
    (fun x -> Buffer.add_string buf (string_of_int x ^ ","))
    view.Localmodel.View.input;
  Buffer.contents buf

(* The serve-stack memo key ({!Serve.Memo}): everything the C4 ball
   decoder reads, and nothing it does not.  [Serve.Engine.label_of_view]
   is a pure function of the ball's structure (in BFS-stamp order), the
   identifier *ranks* (it only compares identifiers — only the order
   type matters), the advice strings, and the center stamp.  [dist] is
   determined by (graph, center) and [input] is never read by the
   decoder, so both stay out of the key — including them would only
   shrink collision classes and cost hit rate.  Advice strings are
   length-prefixed: a byte-delimited join would let damaged advice
   containing the delimiter alias across nodes.

   The encoding is binary LEB128, not decimal: the key is built on the
   serve miss path, where it sits in front of a ball decode of the same
   asymptotic size, so constant factors are the whole game.  Each
   varint is self-delimiting and the node/edge counts come first, so
   the byte stream parses uniquely and the encoding stays injective. *)
let max_varint = 9 (* bytes of a 63-bit int *)

(* Write [x] at [pos] of [b], whose capacity the caller reserved; return
   the position after it. *)
let put_varint b pos x =
  let x = ref x and p = ref pos in
  while !x >= 0x80 do
    Bytes.unsafe_set b !p (Char.unsafe_chr (0x80 lor (!x land 0x7f)));
    x := !x lsr 7;
    incr p
  done;
  Bytes.unsafe_set b !p (Char.unsafe_chr !x);
  !p + 1

(* Most key values (stamps, ranks, advice lengths) fit one byte; the
   loop in [put_varint] keeps it from being inlined, this does not. *)
let[@inline] put b pos x =
  if x < 0x80 then begin
    Bytes.unsafe_set b pos (Char.unsafe_chr x);
    pos + 1
  end
  else put_varint b pos x

(* Stable, monomorphic merge sort of [perm.(0 .. n-1)] by
   [key.(perm.(i))], with [buf] (at least [n] long) as the second merge
   buffer: insertion-sorted runs of 8, then bottom-up merges.  The
   annotation keeps it monomorphic — generalized to ['a array] the
   comparisons would go through caml_compare.  Not a plain insertion
   sort: BFS stamp order interleaves small and large identifiers (a
   cycle ball stamps v, v-1, v+1, v-2, ...), which is insertion sort's
   quadratic case.  Stability makes ties (invalid, duplicated
   identifiers) resolve by stamp order. *)
let sort_by_key (key : int array) (perm : int array) ~(buf : int array) n =
  let run = 8 in
  let lo = ref 0 in
  while !lo < n do
    let hi = Int.min n (!lo + run) in
    for i = !lo + 1 to hi - 1 do
      let v = Array.unsafe_get perm i in
      let kv = Array.unsafe_get key v in
      let j = ref (i - 1) in
      while !j >= !lo && Array.unsafe_get key (Array.unsafe_get perm !j) > kv do
        Array.unsafe_set perm (!j + 1) (Array.unsafe_get perm !j);
        decr j
      done;
      Array.unsafe_set perm (!j + 1) v
    done;
    lo := hi
  done;
  if n > run then begin
    let src = ref perm and dst = ref buf in
    let width = ref run in
    while !width < n do
      let s = !src and d = !dst and w = !width in
      let lo = ref 0 in
      while !lo < n do
        let mid = Int.min n (!lo + w) and hi = Int.min n (!lo + (2 * w)) in
        let i = ref !lo and j = ref mid in
        for k = !lo to hi - 1 do
          if
            !j >= hi
            || !i < mid
               && Array.unsafe_get key (Array.unsafe_get s !i)
                  <= Array.unsafe_get key (Array.unsafe_get s !j)
          then begin
            Array.unsafe_set d k (Array.unsafe_get s !i);
            incr i
          end
          else begin
            Array.unsafe_set d k (Array.unsafe_get s !j);
            incr j
          end
        done;
        lo := hi
      done;
      src := d;
      dst := s;
      width := 2 * w
    done;
    if !src != perm then Array.blit !src 0 perm 0 n
  end

(* Domain-local scratch for the key encoder and the identifier order,
   every array grown to the largest ball seen: the key bytes, the ball's
   edges as parallel [src]/[dst] stamp arrays, the slot table of the
   dense-span identifier sort, and the identifier order's own arrays —
   every stamp's identifier, the stamps in identifier order, every
   stamp's rank, and the merge sort's second buffer.  A key is written
   here and read in place, so building one allocates nothing. *)
type scratch = {
  mutable bytes : Bytes.t;
  mutable src : int array;
  mutable dst : int array;
  mutable slots : int array;
  mutable ids : int array;
  mutable perm : int array;
  mutable rank : int array;
  mutable merge : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        bytes = Bytes.create 1024;
        src = Array.make 256 0;
        dst = Array.make 256 0;
        slots = Array.make 256 0;
        ids = Array.make 128 0;
        perm = Array.make 128 0;
        rank = Array.make 128 0;
        merge = Array.make 128 0;
      })

(* Identifiers of a ball are usually a dense integer range — builders
   number neighbors near each other, and a shard's local ids keep that
   order — so when their span is within a small factor of the ball size,
   one scatter into a slot table and one sweep sort them with no
   comparisons.  Returns [false] (leaving [perm] to the merge sort) on a
   wide span or a repeated identifier. *)
let dense_order sc (key : int array) (perm : int array) count =
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to count - 1 do
    let k = Array.unsafe_get key i in
    if k < !lo then lo := k;
    if k > !hi then hi := k
  done;
  let lo = !lo in
  (* [span <= 0] catches overflow on extreme identifiers. *)
  let span = !hi - lo + 1 in
  if count = 0 || span <= 0 || span > 4 * count then false
  else begin
    if Array.length sc.slots < span then sc.slots <- Array.make (2 * span) 0;
    let slots = sc.slots in
    Array.fill slots 0 span (-1);
    let distinct = ref true in
    for i = 0 to count - 1 do
      let s = Array.unsafe_get key i - lo in
      if Array.unsafe_get slots s >= 0 then distinct := false
      else Array.unsafe_set slots s i
    done;
    if !distinct then begin
      let r = ref 0 in
      for s = 0 to span - 1 do
        let i = Array.unsafe_get slots s in
        if i >= 0 then begin
          Array.unsafe_set perm !r i;
          incr r
        end
      done
    end;
    !distinct
  end

(* The identifier rank of every stamp of the ball stamped in [ws]
   ([ids] is indexed by host node, or empty for node order), into
   [sc.rank]: sort the stamps by identifier, then invert. *)
let id_ranks sc ws (ids : int array) =
  let count = Workspace.size ws in
  if Array.length sc.ids < count then begin
    let c = Int.max count (2 * Array.length sc.ids) in
    sc.ids <- Array.make c 0;
    sc.perm <- Array.make c 0;
    sc.rank <- Array.make c 0;
    sc.merge <- Array.make c 0
  end;
  let queue = ws.Workspace.queue in
  let key = sc.ids and perm = sc.perm and rank = sc.rank in
  if Array.length ids = 0 then
    for i = 0 to count - 1 do
      key.(i) <- queue.(i);
      perm.(i) <- i
    done
  else
    for i = 0 to count - 1 do
      key.(i) <- ids.(queue.(i));
      perm.(i) <- i
    done;
  if not (dense_order sc key perm count) then sort_by_key key perm ~buf:sc.merge count;
  for r = 0 to count - 1 do
    rank.(perm.(r)) <- r
  done

(* The key bytes with room for [need] more past [pos]: capacity is
   reserved once per section, so the per-byte writes stay unchecked. *)
let reserve sc pos need =
  if pos + need > Bytes.length sc.bytes then begin
    let b = Bytes.create (Int.max (pos + need) (2 * Bytes.length sc.bytes)) in
    Bytes.blit sc.bytes 0 b 0 pos;
    sc.bytes <- b
  end;
  sc.bytes

(* Entry [k] of a graph row (see {!Netgraph.Graph.get32}). *)
let[@inline] at r k = Int32.to_int (Graph.get32 r (k lsl 2))

(* The ball's edges [(i, j)], [i < j], in lexicographic stamp order, into
   [sc.src]/[sc.dst]; returns how many.  One pass over the members'
   rows: each stamp's forward neighbors are insertion-sorted in place
   (balls are degree-bounded). *)
let stamped_edges sc ws g =
  let count = Workspace.size ws in
  let queue = ws.Workspace.queue in
  (* Direct mark reads: this loop runs per neighbor, and cross-module
     calls are not inlined in every build profile.  A neighbor's stamp
     index is its mark less the base, negative when it is not in the
     ball, so one comparison keeps the members stamped after [i]. *)
  let mark = ws.Workspace.mark and base = ws.Workspace.base in
  let off = Graph.row_offsets g and nbr = Graph.row_neighbors g in
  let n = Graph.n g in
  if Bytes.length mark < 4 * n then
    invalid_arg "Canonical: the workspace's mark is shorter than the graph";
  let m = ref 0 in
  for i = 0 to count - 1 do
    let v = queue.(i) in
    if v >= n then invalid_arg "Canonical: a stamped node is not in the graph";
    let row = at off v in
    let deg = at off (v + 1) - row in
    if Array.length sc.dst < !m + deg then begin
      let grow a = Array.append a (Array.make (Array.length a + deg) 0) in
      sc.src <- grow sc.src;
      sc.dst <- grow sc.dst
    end;
    let src = sc.src and dst = sc.dst in
    let first = !m in
    for k = row to row + deg - 1 do
      let x = Int32.to_int (Workspace.get32 mark (at nbr k lsl 2)) - base in
      if x > i then begin
        let j = ref (!m - 1) in
        while !j >= first && Array.unsafe_get dst !j > x do
          Array.unsafe_set dst (!j + 1) (Array.unsafe_get dst !j);
          decr j
        done;
        Array.unsafe_set dst (!j + 1) x;
        Array.unsafe_set src !m i;
        incr m
      end
    done
  done;
  !m

(* The one encoder of the ball-key byte format, reading the ball
   stamped in [ws] over host graph [g] (ids and advice indexed by host
   node, ids empty for node order): node count, center stamp, edge
   count, the edges [(i, j)], [i < j], in lexicographic stamp order,
   the identifier rank of every stamp, then every stamp's advice,
   length-prefixed.  That is exactly
   the induced subgraph in stamp order that [View.make] would build,
   so every entry point below writes the same bytes.  The key is left
   in [sc.bytes]; returns its length. *)
let encode_stamped sc ws g ~center ~ids ~advice =
  let count = Workspace.size ws in
  let m = stamped_edges sc ws g in
  let b = reserve sc 0 (max_varint * (3 + (2 * m) + count)) in
  let pos = put b 0 count in
  let pos = put b pos center in
  let pos = ref (put b pos m) in
  let src = sc.src and dst = sc.dst in
  for e = 0 to m - 1 do
    pos := put b !pos (Array.unsafe_get src e);
    pos := put b !pos (Array.unsafe_get dst e)
  done;
  id_ranks sc ws ids;
  let rank = sc.rank in
  for i = 0 to count - 1 do
    pos := put b !pos (Array.unsafe_get rank i)
  done;
  let queue = ws.Workspace.queue in
  for i = 0 to count - 1 do
    let s = advice.(queue.(i)) in
    let len = String.length s in
    let b = reserve sc !pos (max_varint + len) in
    pos := put b !pos len;
    (* Advice strings are a few bytes: a byte loop beats a blit call. *)
    for j = 0 to len - 1 do
      Bytes.unsafe_set b (!pos + j) (String.unsafe_get s j)
    done;
    pos := !pos + len
  done;
  !pos

(* A materialized view re-stamped into the domain-local workspace in
   identity order: the view's own graph then reads as a host whose
   stamped ball is the whole view, stamp [i] = view node [i]. *)
let stamp_view (view : Localmodel.View.t) =
  let ws = Workspace.domain_local () in
  let k = Graph.n view.Localmodel.View.graph in
  Workspace.ensure ws k;
  Workspace.reset ws;
  for i = 0 to k - 1 do
    Workspace.add ws i ~dist:view.Localmodel.View.dist.(i)
  done;
  ws

let ball_signature (view : Localmodel.View.t) =
  let ws = stamp_view view in
  let sc = Domain.DLS.get scratch_key in
  let len =
    encode_stamped sc ws view.Localmodel.View.graph
      ~center:view.Localmodel.View.center ~ids:view.Localmodel.View.ids
      ~advice:view.Localmodel.View.advice
  in
  Bytes.sub_string sc.bytes 0 len

(* The BFS source is always the first stamp.  Without [ids] the
   identifiers are the host's node order. *)
let write_ball_key ?(ids = [||]) ws g ~advice =
  encode_stamped (Domain.DLS.get scratch_key) ws g ~center:0 ~ids ~advice

let key_buffer () = (Domain.DLS.get scratch_key).bytes

let ball_key ?ids ws g ~advice =
  let len = write_ball_key ?ids ws g ~advice in
  Bytes.sub_string (key_buffer ()) 0 len

type table = (string, int) Hashtbl.t

let m_table_size = Obs.Metrics.gauge "eth.table_size"
let m_hits = Obs.Metrics.counter "eth.table.hits"
let m_misses = Obs.Metrics.counter "eth.table.misses"

type build_result =
  | Table of table
  | Conflict of string * int * int

let build_table samples =
  (* One table per call, not per ball. *)
  let[@advicelint.allow "hot-alloc"] table = Hashtbl.create (List.length samples) in
  let conflict = ref None in
  List.iter
    (fun (view, output) ->
      if Option.is_none !conflict then begin
        let sig_ = signature view in
        match Hashtbl.find_opt table sig_ with
        | None -> Hashtbl.replace table sig_ output
        | Some prev ->
            if prev <> output then conflict := Some (sig_, prev, output)
      end)
    samples;
  match !conflict with
  | Some (s, a, b) -> Conflict (s, a, b)
  | None ->
      Obs.Metrics.gauge_max m_table_size (Hashtbl.length table);
      Table table

let run_with_table table ~default g ~ids ~advice ~radius =
  (* Pure per-node lookups against a frozen table: safe to fan out. *)
  Localmodel.View.map_nodes_par ~advice g ~ids ~radius (fun view ->
      match Hashtbl.find_opt table (signature view) with
      | Some output ->
          Obs.Metrics.incr m_hits;
          output
      | None ->
          Obs.Metrics.incr m_misses;
          default)

let is_order_invariant ~(decide : Localmodel.View.t -> int) ~graphs ~radius =
  let[@advicelint.allow "hot-alloc"] table = Hashtbl.create 64 in
  let ok = ref true in
  List.iter
    (fun (g, id_assignments) ->
      List.iter
        (fun ids ->
          let outputs =
            Localmodel.View.map_nodes g ~ids ~radius (fun view ->
                (signature view, decide view))
          in
          Array.iter
            (fun (sig_, output) ->
              match Hashtbl.find_opt table sig_ with
              | None -> Hashtbl.replace table sig_ output
              | Some prev -> if prev <> output then ok := false)
            outputs)
        id_assignments)
    graphs;
  !ok

let canonicalize_view (view : Localmodel.View.t) =
  let ranks = Localmodel.Ids.rank view.Localmodel.View.ids in
  { view with Localmodel.View.ids = Array.map (fun r -> r + 1) ranks }

let lift decide view = decide (canonicalize_view view)
