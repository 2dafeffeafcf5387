open Netgraph

(* Everything here works in stamp indices (a ball node's BFS order), on
   the in-ball subgraph: the fragment the former decoder built, without
   building it.  The fragment numbered nodes by identifier rank, which
   is the order "identifier, then stamp" (its stable sort's tie rule);
   [before] compares in that order, so no rank array is needed.

   One decode lists each node's in-ball neighbours in that order when it
   first needs them (a "slot" is one entry of such a list: a half-edge),
   searches trails outward from the edges the label reads, and
   classifies nodes as anchors as a search reaches them.  All of it
   lives in one domain-local scratch, sized at the start of a decode
   from the ball, so nothing grows (and no array moves) mid-decode. *)

(* Not worked out yet, in [anchor] and [dir].  [anchor] of a stamp is
   otherwise [no_anchor] or the stamp of the neighbour its anchor
   names. *)
let unknown = -2
let no_anchor = -1

type scratch = {
  (* per stamp *)
  mutable off : int array;  (* first slot of its neighbour list; -1 until listed *)
  mutable deg : int array;  (* in-ball degree, once listed *)
  mutable anchor : int array;
  mutable seen : int array;  (* = [mark]: reached by the current layer parse *)
  mutable mark : int;
  (* the current layer parse: a BFS from one candidate holder *)
  mutable queue : int array;
  mutable qdist : int array;
  mutable qhead : int;
  mutable qsize : int;
  mutable depth : int;  (* deepest layer discovered *)
  mutable ones : int array;  (* one-nodes per discovered layer *)
  mutable msg_len : int;  (* the message the last successful parse read *)
  mutable msg_val : int;
  (* per slot *)
  mutable nbr : int array;  (* the neighbour's stamp *)
  mutable dir : int array;  (* 1: its edge points away from the slot's node; 0: towards *)
  mutable vis : int array;  (* = [search]: the current search crossed the slot's edge *)
  mutable slots : int;
  mutable search : int;
  (* the last [step] *)
  mutable depart : int;  (* the slot the trail leaves by *)
  (* the current search's nearest anchor so far: its holder, or -1, and
     whether it orients the searched edge away from its first node *)
  mutable best : int;
  mutable best_away : bool;
  comp : int array;  (* a one-component being classified, up to 5 members *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        off = [||];
        deg = [||];
        anchor = [||];
        seen = [||];
        mark = 0;
        queue = [||];
        qdist = [||];
        qhead = 0;
        qsize = 0;
        depth = 0;
        ones = [||];
        msg_len = 0;
        msg_val = 0;
        nbr = [||];
        dir = [||];
        vis = [||];
        slots = 0;
        search = 0;
        depart = 0;
        best = -1;
        best_away = true;
        comp = Array.make 5 0;
      })

(* Entry [k] of a graph row (see {!Graph.get32}). *)
let[@inline] at r k = Int32.to_int (Graph.get32 r (k lsl 2))

(* Size the scratch for the ball in [ws] and clear what one decode
   reads before writing.  A ball whose host degrees sum to [d] has at
   most [d] slots. *)
let prepare sc ws g =
  let count = Workspace.size ws in
  let queue = ws.Workspace.queue in
  let off = Graph.row_offsets g in
  let n = Graph.n g in
  (* [neighbours] reads the mark unchecked at every neighbor id. *)
  if Bytes.length ws.Workspace.mark < 4 * n then
    invalid_arg "Center_decode: the workspace's mark is shorter than the graph";
  let d = ref 0 in
  for i = 0 to count - 1 do
    let v = queue.(i) in
    if v >= n then invalid_arg "Center_decode: a stamped node is not in the graph";
    d := !d + at off (v + 1) - at off v
  done;
  let per_node = count + 1 and per_slot = !d + 1 in
  if Array.length sc.off < per_node then begin
    let c = Int.max per_node (2 * Array.length sc.off) in
    sc.off <- Array.make c 0;
    sc.deg <- Array.make c 0;
    sc.anchor <- Array.make c 0;
    (* [mark] is at least 1 whenever a parse reads [seen]. *)
    sc.seen <- Array.make c 0;
    sc.queue <- Array.make c 0;
    sc.qdist <- Array.make c 0;
    sc.ones <- Array.make c 0
  end;
  if Array.length sc.nbr < per_slot then begin
    let c = Int.max per_slot (2 * Array.length sc.nbr) in
    sc.nbr <- Array.make c 0;
    sc.dir <- Array.make c 0;
    sc.vis <- Array.make c 0
  end;
  Array.fill sc.off 0 count (-1);
  Array.fill sc.anchor 0 count unknown;
  sc.slots <- 0

(* Stamp [a] comes before stamp [b] in the fragment's node order.  With
   no ids (an empty array) the identifiers are the host's node order,
   in which no two stamps tie. *)
let before ws (ids : int array) a b =
  let queue = ws.Workspace.queue in
  if Array.length ids = 0 then queue.(a) < queue.(b)
  else
    let ka = ids.(queue.(a)) and kb = ids.(queue.(b)) in
    ka < kb || (ka = kb && a < b)

(* The first slot of stamp [i]'s in-ball neighbours, listed in fragment
   order on first use (an insertion sort: host adjacency is sorted by
   node, which is usually identifier order already). *)
let neighbours sc ws g ids i =
  let o = sc.off.(i) in
  if o >= 0 then o
  else begin
    let mark = ws.Workspace.mark and base = ws.Workspace.base in
    let v = ws.Workspace.queue.(i) in
    let row = Graph.row_offsets g and hosts = Graph.row_neighbors g in
    let nbr = sc.nbr and o = sc.slots in
    let d = ref 0 in
    for k = at row v to at row (v + 1) - 1 do
      (* A non-member's stamp index is negative. *)
      let s = Int32.to_int (Workspace.get32 mark (at hosts k lsl 2)) - base in
      if s >= 0 then begin
        let j = ref (o + !d - 1) in
        while !j >= o && before ws ids s nbr.(!j) do
          nbr.(!j + 1) <- nbr.(!j);
          decr j
        done;
        nbr.(!j + 1) <- s;
        incr d
      end
    done;
    for k = o to o + !d - 1 do
      sc.dir.(k) <- unknown;
      sc.vis.(k) <- 0
    done;
    sc.slots <- o + !d;
    sc.off.(i) <- o;
    sc.deg.(i) <- !d;
    o
  end

(* The slot of [y] among [x]'s neighbours. *)
let slot_of sc ws g ids x y =
  let k = ref (neighbours sc ws g ids x) in
  while sc.nbr.(!k) <> y do
    incr k
  done;
  !k

(* A one-node: its advice starts with '1' (the orientation marker). *)
let is_one ws (advice : string array) i =
  let s = advice.(ws.Workspace.queue.(i)) in
  String.length s > 0 && String.unsafe_get s 0 = '1'

(* ------------------------------------------------------------------ *)
(* One-bit messages: [Advice.Onebit.decode]'s rules, per holder *)

(* Start a layer parse around [c]: a BFS over ball nodes only. *)
let parse_from sc ws advice c =
  if sc.mark = max_int then begin
    Array.fill sc.seen 0 (Array.length sc.seen) 0;
    sc.mark <- 0
  end;
  sc.mark <- sc.mark + 1;
  sc.seen.(c) <- sc.mark;
  sc.queue.(0) <- c;
  sc.qdist.(0) <- 0;
  sc.qhead <- 0;
  sc.qsize <- 1;
  sc.depth <- 0;
  sc.ones.(0) <- (if is_one ws advice c then 1 else 0)

(* The one-nodes at distance [j] from the parse's source: 0, 1, or 2
   for several.  The BFS grows only as far as the parse reads, and the
   parse reads layers in increasing order. *)
let layer sc ws g ids advice j =
  while sc.qhead < sc.qsize && sc.qdist.(sc.qhead) < j do
    let x = sc.queue.(sc.qhead) and dx = sc.qdist.(sc.qhead) + 1 in
    sc.qhead <- sc.qhead + 1;
    let o = neighbours sc ws g ids x in
    for k = o to o + sc.deg.(x) - 1 do
      let w = sc.nbr.(k) in
      if sc.seen.(w) <> sc.mark then begin
        sc.seen.(w) <- sc.mark;
        sc.queue.(sc.qsize) <- w;
        sc.qdist.(sc.qsize) <- dx;
        sc.qsize <- sc.qsize + 1;
        if dx > sc.depth then begin
          sc.depth <- dx;
          sc.ones.(dx) <- 0
        end;
        if is_one ws advice w then sc.ones.(dx) <- sc.ones.(dx) + 1
      end
    done
  done;
  if j > sc.depth then 0 else Int.min 2 sc.ones.(j)

(* [Advice.Onebit]'s message header, as layers with and without a
   one-node. *)
let header = "11110110"

let add_bit sc b =
  sc.msg_len <- sc.msg_len + 1;
  sc.msg_val <- (2 * sc.msg_val) + b

(* Whether the layers around [c] spell a whole message: the header,
   then chunks 110 ('0') and 1110 ('1'), then an empty layer.  The
   message lands in [msg_len]/[msg_val], big-endian as
   [Advice.Bits.decode] reads it. *)
let parse sc ws g ids advice c =
  parse_from sc ws advice c;
  let ok = ref true and j = ref 0 in
  while !ok && !j < String.length header do
    let want = if header.[!j] = '1' then 1 else 0 in
    if layer sc ws g ids advice !j <> want then ok := false;
    incr j
  done;
  sc.msg_len <- 0;
  sc.msg_val <- 0;
  let p = ref !j and fin = ref false in
  while !ok && not !fin do
    match layer sc ws g ids advice !p with
    | 0 -> fin := true
    | 1 ->
        if layer sc ws g ids advice (!p + 1) <> 1 then ok := false
        else begin
          match layer sc ws g ids advice (!p + 2) with
          | 0 ->
              add_bit sc 0;
              p := !p + 3
          | 1 when layer sc ws g ids advice (!p + 3) = 0 ->
              add_bit sc 1;
              p := !p + 4
          | _ -> ok := false
        end
    | _ -> ok := false
  done;
  !ok

(* A holder's message is an anchor when it is as wide as the in-ball
   degree needs and names an in-ball edge
   ([Balanced_orientation.decode_anchor] on the fragment). *)
let set_anchor sc e len value =
  let d = sc.deg.(e) in
  (* [Advice.Bits.width_for (max 2 d)], without its closure. *)
  let width = ref 1 in
  while 1 lsl !width < d do
    incr width
  done;
  if len = !width && value < d then
    sc.anchor.(e) <- sc.nbr.(sc.off.(e) + value)

let in_comp (comp : int array) size w =
  let found = ref false in
  for k = 0 to size - 1 do
    if comp.(k) = w then found := true
  done;
  !found

(* Classify [i] and the rest of its one-component.  A holder is an
   endpoint of a component that is a 4-node path, whose layer parse
   succeeds while the other endpoint's fails; every other node holds
   nothing.  The component search stops past 4 members. *)
let classify sc ws g ids advice i =
  if not (is_one ws advice i) then sc.anchor.(i) <- no_anchor
  else begin
    let comp = sc.comp in
    comp.(0) <- i;
    let size = ref 1 and head = ref 0 in
    while !head < !size && !size <= 4 do
      let x = comp.(!head) in
      incr head;
      let o = neighbours sc ws g ids x in
      for k = o to o + sc.deg.(x) - 1 do
        let w = sc.nbr.(k) in
        if !size <= 4 && is_one ws advice w && not (in_comp comp !size w) then begin
          comp.(!size) <- w;
          incr size
        end
      done
    done;
    let size = !size in
    for k = 0 to size - 1 do
      sc.anchor.(comp.(k)) <- no_anchor
    done;
    if size = 4 then begin
      let ends = ref 0 and mids = ref 0 and e1 = ref (-1) and e2 = ref (-1) in
      for k = 0 to 3 do
        let x = comp.(k) in
        let o = neighbours sc ws g ids x in
        let cd = ref 0 in
        for s = o to o + sc.deg.(x) - 1 do
          if in_comp comp 4 sc.nbr.(s) then incr cd
        done;
        if !cd = 1 then begin
          incr ends;
          if !e1 < 0 then e1 := x else e2 := x
        end
        else if !cd = 2 then incr mids
      done;
      if !ends = 2 && !mids = 2 then begin
        let e1 = !e1 and e2 = !e2 in
        let p1 = parse sc ws g ids advice e1 in
        let len1 = sc.msg_len and val1 = sc.msg_val in
        let p2 = parse sc ws g ids advice e2 in
        if p1 && not p2 then set_anchor sc e1 len1 val1
        else if p2 && not p1 then set_anchor sc e2 sc.msg_len sc.msg_val
      end
    end
  end

let anchor_of sc ws g ids advice i =
  if sc.anchor.(i) = unknown then classify sc ws g ids advice i;
  sc.anchor.(i)

(* ------------------------------------------------------------------ *)
(* Trails: [Orientation.euler_partition]'s pairing, searched outward *)

(* Where a trail that reaches [b] along edge {a, b} goes next: the edge
   paired with it at [b] (consecutive slots 2i and 2i+1; with an odd
   degree the last slot is unpaired), or -1 where the trail ends.  The
   slot it leaves by is left in [depart]. *)
let step sc ws g ids a b =
  let o = neighbours sc ws g ids b in
  let k = ref 0 in
  while sc.nbr.(o + !k) <> a do
    incr k
  done;
  if !k < sc.deg.(b) land lnot 1 then begin
    sc.depart <- o + (!k lxor 1);
    sc.nbr.(sc.depart)
  end
  else -1

(* Mark edge {x, y}, at [x]'s slot [h], crossed by the current search. *)
let visit sc ws g ids x h =
  sc.vis.(h) <- sc.search;
  sc.vis.(slot_of sc ws g ids sc.nbr.(h) x) <- sc.search

(* One step of a search side that reached [b] along edge {a, b}: the
   next node, its edge marked; -1 where the trail ends at [b], -2 where
   the next edge is already crossed (the trail is closed and searched
   out). *)
let advance sc ws g ids a b =
  let c = step sc ws g ids a b in
  if c < 0 then -1
  else if sc.vis.(sc.depart) = sc.search then -2
  else begin
    visit sc ws g ids b sc.depart;
    c
  end

(* An anchor at [holder] naming [named] is a candidate for the nearest:
   the first one found, or at the same distance, held by a node later in
   fragment order (the former decoder's tie rule: the earliest entry of
   a list built by prepending in node order).  [away] is the direction
   it gives the searched edge. *)
let consider sc ws g ids advice holder named ~away =
  if
    anchor_of sc ws g ids advice holder = named
    && (sc.best < 0 || before ws ids sc.best holder)
  then begin
    sc.best <- holder;
    sc.best_away <- away
  end

(* A closed trail with no anchor keeps its normalized order, which
   crosses the trail's least edge (by lower, then higher endpoint) from
   its lower endpoint.  Whether that order crosses {x, y} from [x]: walk
   the trail once, from [x] to [y]. *)
let closed_away sc ws g ids x y =
  let lo = ref x and hi = ref y and away = ref true in
  if before ws ids y x then begin
    lo := y;
    hi := x;
    away := false
  end;
  let a = ref x and b = ref y and fin = ref false in
  while not !fin do
    let c = step sc ws g ids !a !b in
    if c < 0 || (!b = x && c = y) then fin := true
    else begin
      let fwd = before ws ids !b c in
      let l = if fwd then !b else c and h = if fwd then c else !b in
      if before ws ids l !lo || (l = !lo && before ws ids h !hi) then begin
        lo := l;
        hi := h;
        away := fwd
      end;
      a := !b;
      b := c
    end
  done;
  !away

(* Whether the edge from [x] by its slot [h] points away from [x].  An
   edge has its trail's direction, which the nearest anchor on the trail
   by trail distance decides (around a closed trail, either way).  So
   search the trail outward from the edge, one edge a side at a time,
   and stop at the first distance that holds an anchor; a trail with
   none keeps its normalized order.  Side A goes on from [y], side B
   from [x]: an anchor met on side A that leaves through its edge in
   the search's direction orients the edge from [x], on side B towards
   it. *)
let search sc ws g ids advice x h =
  let y = sc.nbr.(h) in
  if sc.search = max_int then begin
    Array.fill sc.vis 0 (Array.length sc.vis) 0;
    sc.search <- 0
  end;
  sc.search <- sc.search + 1;
  visit sc ws g ids x h;
  sc.best <- -1;
  consider sc ws g ids advice x y ~away:true;
  consider sc ws g ids advice y x ~away:false;
  let a_prev = ref x and a = ref y and b_prev = ref y and b = ref x in
  let a_end = ref (-1) and b_end = ref (-1) and closed = ref false in
  while sc.best < 0 && (not !closed) && (!a_end < 0 || !b_end < 0) do
    if !a_end < 0 then begin
      match advance sc ws g ids !a_prev !a with
      | -1 -> a_end := !a
      | -2 -> closed := true
      | c ->
          consider sc ws g ids advice !a c ~away:true;
          consider sc ws g ids advice c !a ~away:false;
          a_prev := !a;
          a := c
    end;
    if !b_end < 0 && not !closed then begin
      match advance sc ws g ids !b_prev !b with
      | -1 -> b_end := !b
      | -2 -> closed := true
      | c ->
          consider sc ws g ids advice !b c ~away:false;
          consider sc ws g ids advice c !b ~away:true;
          b_prev := !b;
          b := c
    end
  done;
  if sc.best >= 0 then sc.best_away
  else if !closed then closed_away sc ws g ids x y
  else
    (* An open trail's normalized order starts at its lower end. *)
    before ws ids !b_end !a_end

(* [search], once per edge and decode. *)
let points sc ws g ids advice x h =
  if sc.dir.(h) = unknown then begin
    let away = search sc ws g ids advice x h in
    sc.dir.(h) <- (if away then 1 else 0);
    sc.dir.(slot_of sc ws g ids sc.nbr.(h) x) <- (if away then 0 else 1)
  end;
  sc.dir.(h) = 1

let label ?(ids = [||]) ws g ~advice ~center =
  let sc = Domain.DLS.get scratch_key in
  prepare sc ws g;
  let o = neighbours sc ws g ids center in
  let d = sc.deg.(center) in
  let out = Bytes.create d in
  for i = 0 to d - 1 do
    let u = sc.nbr.(o + i) in
    let away = points sc ws g ids advice center (o + i) in
    let tail = if away then center else u and head = if away then u else center in
    (* The bit's index: the tail's out-neighbours before the head, in
       fragment order; position 0 of the advice is the marker. *)
    let ot = neighbours sc ws g ids tail in
    let idx = ref 1 and k = ref ot in
    while sc.nbr.(!k) <> head do
      if points sc ws g ids advice tail !k then incr idx;
      incr k
    done;
    let s = advice.(ws.Workspace.queue.(tail)) in
    Bytes.unsafe_set out i (if !idx < String.length s then s.[!idx] else '0')
  done;
  Bytes.unsafe_to_string out
