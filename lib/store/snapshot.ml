module Graph = Netgraph.Graph

let magic = "LADV"
let version = 1
let tag_graph = 1
let tag_advice = 2
let tag_meta = 3

type t = {
  graph : Graph.t;
  advice : (string * Advice.Assignment.t) list;
  meta : (string * string) list;
}

let bytes_written = Obs.Metrics.counter "store.bytes_written"
let bytes_read = Obs.Metrics.counter "store.bytes_read"

let corrupt fmt = Format.kasprintf (fun s -> raise (Codec.Corrupt s)) fmt

(* Graph section *)

(* Entry [k] of a graph row (see {!Graph.get32}). *)
let[@inline] at r k = Int32.to_int (Graph.get32 r (k lsl 2))

let graph_payload g =
  let n = Graph.n g in
  let off = Graph.row_offsets g and nbr = Graph.row_neighbors g in
  let w = Codec.writer ~capacity:(16 + (4 * n)) () in
  Codec.varint w n;
  Codec.varint w (Graph.m g);
  for v = 0 to n - 1 do
    Codec.varint w (at off (v + 1) - at off v)
  done;
  for v = 0 to n - 1 do
    let first = at off v in
    for k = first to at off (v + 1) - 1 do
      Codec.varint w (if k = first then at nbr k else at nbr k - at nbr (k - 1))
    done
  done;
  Codec.contents w

(* The degrees become the row offsets and each node's delta list
   decodes straight into its row, 32-bit entries as the graph keeps
   them, and [Graph.of_rows] checks order, loops and symmetry and
   numbers the edges in one pass: O(n + m), three flat rows, no edge
   list, table or sort.  Counts are bounded by the bytes left, and by
   the rows' 32-bit cap, before anything is allocated: each degree and
   each neighbor costs at least one byte.  A neighbor past 32 bits is
   refused here, before its entry could wrap it into range;
   [Graph.of_rows] names any other neighbor out of range. *)
let read_graph r =
  let n = Codec.read_varint r in
  let m = Codec.read_varint r in
  if n > Codec.remaining r then
    corrupt "graph section: n=%d exceeds the %d byte(s) left" n
      (Codec.remaining r);
  if n > Graph.max_count || m > Graph.max_count / 2 then
    corrupt "graph section: n=%d, 2m=%d exceed %d, the 32-bit row cap" n (2 * m)
      Graph.max_count;
  let off = Bytes.create (4 * (n + 1)) in
  Bytes.set_int32_ne off 0 0l;
  let sum = ref 0 in
  for v = 0 to n - 1 do
    let d = Codec.read_varint r in
    if d > Codec.remaining r - !sum then
      corrupt "graph section: degree sum exceeds the %d byte(s) left"
        (Codec.remaining r);
    sum := !sum + d;
    Bytes.set_int32_ne off (4 * (v + 1)) (Int32.of_int !sum)
  done;
  if !sum <> 2 * m then
    corrupt "graph section: degree sum %d does not match 2m=%d" !sum (2 * m);
  let nbr = Bytes.create (4 * !sum) in
  let k = ref 0 in
  for v = 0 to n - 1 do
    let first = !k and stop = Int32.to_int (Bytes.get_int32_ne off (4 * (v + 1))) in
    let prev = ref 0 in
    while !k < stop do
      let delta = Codec.read_varint r in
      let u = if !k = first then delta else !prev + delta in
      if u < 0 || u > Graph.max_count then
        corrupt "graph section: node %d lists neighbor %d outside 0..%d" v u (n - 1);
      Bytes.set_int32_ne nbr (4 * !k) (Int32.of_int u);
      prev := u;
      incr k
    done
  done;
  Codec.expect_end r ~what:"graph section";
  match Graph.of_rows ~off ~nbr with
  | g -> g
  | exception Invalid_argument msg -> corrupt "graph section: %s" msg

(* Advice section *)

let advice_payload n (name, assignment) =
  let w = Codec.writer ~capacity:(16 + Array.length assignment) () in
  Codec.str w name;
  Codec.varint w n;
  Array.iter (fun s -> Codec.varint w (String.length s)) assignment;
  let packed, _nbits =
    Advice.Bits.pack (String.concat "" (Array.to_list assignment))
  in
  Codec.raw w (Bytes.unsafe_to_string packed);
  Codec.contents w

(* Two passes over the per-node lengths.  The first bounds each length,
   and the running sum, by the bits the bytes left can hold — before
   anything is unpacked, so a sum cannot wrap; the second reads each
   node's bits where they lie in the packed bytes, and a string of at
   most 8 bits is the shared copy from the table fetched once here
   ({!Advice.Bits.unpack_at}), not a new one. *)
let read_advice ~n r =
  let name = Codec.read_str r in
  let n' = Codec.read_varint r in
  if n' <> n then
    corrupt "advice section %S: %d entries for a %d-node graph" name n' n;
  let lens = Codec.fork r in
  let nbits = ref 0 in
  for v = 0 to n - 1 do
    let len = Codec.read_varint r in
    if len > (8 * Codec.remaining r) - !nbits then
      corrupt "advice section %S: node %d's %d bit(s) overrun the %d byte(s) left"
        name v len (Codec.remaining r);
    nbits := !nbits + len
  done;
  let packed = Codec.sub r ((!nbits + 7) / 8) in
  Codec.expect_end r ~what:(Printf.sprintf "advice section %S" name);
  let bytes = Codec.source packed and table = Advice.Bits.shared_strings () in
  let off = ref (8 * Codec.source_pos packed) in
  let assignment = Array.make n "" in
  for v = 0 to n - 1 do
    let len = Codec.read_varint lens in
    assignment.(v) <- Advice.Bits.unpack_at table bytes ~off:!off len;
    off := !off + len
  done;
  (name, assignment)

(* Metadata section *)

let meta_payload meta =
  let w = Codec.writer () in
  Codec.varint w (List.length meta);
  List.iter
    (fun (k, v) ->
      Codec.str w k;
      Codec.str w v)
    meta;
  Codec.contents w

let decode_meta r =
  let count = Codec.read_varint r in
  let entries =
    List.init count (fun _ ->
        let k = Codec.read_str r in
        let v = Codec.read_str r in
        (k, v))
  in
  Codec.expect_end r ~what:"metadata section";
  entries

(* Whole snapshot *)

(* What both writers ([write] and Shard.build) check before they encode
   anything: the payload codecs above trust their input. *)
let validate t =
  let fail fmt = Format.kasprintf invalid_arg ("Snapshot.validate: " ^^ fmt) in
  let n = Graph.n t.graph in
  List.iter
    (fun (name, a) ->
      if String.contains name '\000' then fail "advice name %S contains a NUL byte" name;
      if Array.length a <> n then
        fail "assignment %S has %d entries for a %d-node graph" name (Array.length a) n;
      if not (Advice.Assignment.is_wellformed a) then
        fail "assignment %S is not a bit string" name)
    t.advice;
  List.iter
    (fun (k, _) ->
      if String.contains k '\000' then fail "metadata key %S contains a NUL byte" k)
    t.meta

let write t =
  validate t;
  let w = Codec.writer ~capacity:4096 () in
  Codec.raw w magic;
  Codec.u16 w version;
  Codec.varint w (1 + List.length t.advice + 1);
  Codec.section w ~tag:tag_graph (graph_payload t.graph);
  let n = Graph.n t.graph in
  List.iter
    (fun named -> Codec.section w ~tag:tag_advice (advice_payload n named))
    t.advice;
  Codec.section w ~tag:tag_meta (meta_payload t.meta);
  let s = Codec.contents w in
  Obs.Metrics.add bytes_written (String.length s);
  s

let read_header r =
  let m = Codec.read_raw r (String.length magic) in
  if m <> magic then corrupt "bad magic %S (expected %S)" m magic;
  let v = Codec.read_u16 r in
  if v <> version then
    if v = 2 then
      corrupt
        "snapshot version 2 is a sharded container — open it with \
         Store.Shard, which reads both versions"
    else corrupt "unsupported snapshot version %d (this build reads %d)" v version;
  Codec.read_varint r

(* Every section is checked and decoded where it lies in [s]: no
   payload is copied out. *)
let read s =
  Obs.Metrics.add bytes_read (String.length s);
  let r = Codec.reader s in
  let count = read_header r in
  if count < 2 then
    corrupt "section count %d is too small (need graph + metadata)" count;
  let tag, payload = Codec.read_section r in
  if tag <> tag_graph then
    corrupt "first section has tag %d (expected graph tag %d)" tag tag_graph;
  let graph = read_graph payload in
  let n = Graph.n graph in
  let advice = ref [] in
  for _ = 1 to count - 2 do
    let tag, payload = Codec.read_section r in
    if tag <> tag_advice then
      corrupt "middle section has tag %d (expected advice tag %d)" tag
        tag_advice;
    advice := read_advice ~n payload :: !advice
  done;
  let tag, payload = Codec.read_section r in
  if tag <> tag_meta then
    corrupt "last section has tag %d (expected metadata tag %d)" tag tag_meta;
  let meta = decode_meta payload in
  Codec.expect_end r ~what:"snapshot";
  { graph; advice = List.rev !advice; meta }

let sections s =
  let r = Codec.reader s in
  let count = read_header r in
  List.init count (fun _ ->
      let offset = Codec.pos r in
      let tag, payload = Codec.read_section r in
      let length = Codec.remaining payload in
      {
        Codec.tag;
        offset;
        length;
        crc =
          Crc32.of_substring (Codec.source payload)
            ~pos:(Codec.source_pos payload) ~len:length;
      })

let advice_payload_bits t ~name =
  match List.find_opt (fun (k, _) -> String.equal k name) t.advice with
  | None -> raise Not_found
  | Some (_, a) -> Advice.Assignment.total_bits a
