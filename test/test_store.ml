(* Snapshot store + serving engine: bit-packing identity, codec and
   snapshot round-trips (byte-identical re-pack), corruption fuzz,
   bits-per-node budget vs the paper's bound, LRU semantics, and
   engine-vs-direct equivalence of every batch answer. *)

open Netgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let bitstring_gen =
  QCheck.Gen.(
    map
      (fun bits -> String.concat "" (List.map (fun b -> if b then "1" else "0") bits))
      (list_size (int_bound 300) bool))

let bitstring_arb = QCheck.make ~print:(fun s -> s) bitstring_gen

(* ------------------------------------------------------------------ *)
(* Advice.Bits.pack / unpack *)

let pack_unpack_id =
  QCheck.Test.make ~count:500 ~name:"Bits.unpack (Bits.pack s) = s"
    bitstring_arb (fun s ->
      let b, n = Advice.Bits.pack s in
      n = String.length s && Advice.Bits.unpack b n = s)

let test_pack_canonical () =
  (* Trailing pad bits are zero, so equal strings pack to equal bytes. *)
  let b, n = Advice.Bits.pack "101" in
  check_int "bit count" 3 n;
  check_int "one byte" 1 (Bytes.length b);
  check_int "padded with zeros" 0b101 (Char.code (Bytes.get b 0));
  let b8, _ = Advice.Bits.pack "10000001" in
  check_int "lsb-first" 0b10000001 (Char.code (Bytes.get b8 0));
  check_int "empty packs to empty" 0 (Bytes.length (fst (Advice.Bits.pack "")));
  (match Advice.Bits.pack "10x1" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pack accepted a non-bit character");
  match Advice.Bits.unpack (Bytes.make 1 '\255') 9 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unpack accepted an out-of-range bit count"

(* ------------------------------------------------------------------ *)
(* Codec primitives *)

(* Each varint is read with 0 to 4 bytes after it: [read_varint] reads
   one of up to three bytes in one step when three bytes are left, so
   the edges of the one-, two- and three-byte forms are drawn too. *)
let varint_values =
  QCheck.(
    oneof
      [
        int_bound 300;
        int_bound 1_000_000_000;
        always max_int;
        oneofl [ 127; 128; 16383; 16384; (1 lsl 21) - 1; 1 lsl 21 ];
      ])

let bytes_after = QCheck.string_of_size (QCheck.Gen.int_range 0 4)

let varint_roundtrip =
  QCheck.Test.make ~count:500 ~name:"varint round-trip"
    QCheck.(pair varint_values bytes_after)
    (fun (v, after) ->
      let w = Store.Codec.writer () in
      Store.Codec.varint w v;
      let r = Store.Codec.reader (Store.Codec.contents w ^ after) in
      let back = Store.Codec.read_varint r in
      back = v && Store.Codec.remaining r = String.length after)

(* Non-minimal LEB128 (a value padded with continuation groups that
   decode to nothing) must be rejected: it would survive the CRC and
   silently break the byte-identical re-pack invariant, with bytes
   after it or without. *)
let varint_non_minimal_rejected =
  QCheck.Test.make ~count:300 ~name:"non-minimal varints are rejected"
    QCheck.(
      triple
        (oneof [ int_bound 300; int_bound 1_000_000_000 ])
        (int_range 1 3) bytes_after)
    (fun (v, pad, after) ->
      let w = Store.Codec.writer () in
      Store.Codec.varint w v;
      let canonical = Store.Codec.contents w in
      (* Set the continuation bit on the final group, then append pad-1
         empty continuation groups and a zero terminator: same value,
         longer spelling. *)
      let b = Bytes.of_string canonical in
      let last = Bytes.length b - 1 in
      Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lor 0x80));
      let padded = Buffer.create 12 in
      Buffer.add_bytes padded b;
      for _ = 2 to pad do Buffer.add_char padded '\x80' done;
      Buffer.add_char padded '\x00';
      Buffer.add_string padded after;
      match Store.Codec.read_varint (Store.Codec.reader (Buffer.contents padded)) with
      | exception Store.Codec.Corrupt _ -> true
      | _ -> false)

let test_varint_canonicality () =
  (* The smallest non-minimal spelling: 0x80 0x00 for zero. *)
  (match Store.Codec.read_varint (Store.Codec.reader "\x80\x00") with
  | exception Store.Codec.Corrupt msg ->
      check "diagnostic mentions the varint" true
        (Option.is_some (String.index_opt msg 'v'))
  | _ -> Alcotest.fail "accepted the 0x80 0x00 spelling of zero");
  (* Canonical encodings still decode, including the boundary values. *)
  List.iter
    (fun v ->
      let w = Store.Codec.writer () in
      Store.Codec.varint w v;
      let r = Store.Codec.reader (Store.Codec.contents w) in
      check_int "canonical round-trip" v (Store.Codec.read_varint r);
      check "consumed" true (Store.Codec.at_end r))
    [ 0; 1; 127; 128; 16383; 16384; max_int ]

(* The IEEE CRC-32 check value, the empty string, and a checksum of a
   range that does not start at 0 (which must equal the checksum of the
   same bytes copied out, and continue through [?init]). *)
let test_crc32_known_answers () =
  check_int "check value" 0xCBF43926 (Store.Crc32.of_string "123456789");
  check_int "empty" 0 (Store.Crc32.of_string "");
  let b = Bytes.of_string "xx123456789yy" in
  check_int "offset range" 0xCBF43926 (Store.Crc32.of_subbytes b ~pos:2 ~len:9);
  check_int "empty range" 0 (Store.Crc32.of_subbytes b ~pos:5 ~len:0);
  check_int "continued" 0xCBF43926
    (Store.Crc32.of_substring "123456789" ~pos:4 ~len:5
       ~init:(Store.Crc32.of_string "1234"));
  match Store.Crc32.of_subbytes b ~pos:10 ~len:4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "of_subbytes accepted a range past the end"

(* Slicing-by-8 against the bytewise table loop it replaced, kept here
   as the reference: random strings, random ranges (so every alignment
   and every tail length from 0 to 7 occurs), and continuation through
   [?init]. *)
let crc_bytewise ?(init = 0) s ~pos ~len =
  let table =
    Array.init 256 (fun i ->
        let c = ref i in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let crc = ref (init lxor 0xFFFFFFFF land 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    crc := table.((!crc lxor Char.code s.[i]) land 0xFF) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF land 0xFFFFFFFF

let crc32_matches_bytewise =
  QCheck.Test.make ~count:2000 ~name:"crc32 = bytewise reference"
    QCheck.(triple (string_of_size Gen.(int_bound 300)) small_nat small_nat)
    (fun (s, a, b) ->
      let n = String.length s in
      let pos = if n = 0 then 0 else a mod (n + 1) in
      let len = if n - pos = 0 then 0 else b mod (n - pos + 1) in
      let init = crc_bytewise s ~pos:0 ~len:pos in
      Store.Crc32.of_substring s ~pos ~len = crc_bytewise s ~pos ~len
      && Store.Crc32.of_string s = crc_bytewise s ~pos:0 ~len:n
      && Store.Crc32.of_substring ~init s ~pos ~len
         = crc_bytewise ~init s ~pos ~len)

(* A [sub] window reads and fails exactly as a reader over the copied
   bytes would: the same values, then the same diagnostic, offsets
   counted from the window's first byte. *)
let window_matches_copy =
  QCheck.Test.make ~count:500 ~name:"sub window = reader over a copy"
    QCheck.(pair (string_of_size Gen.(int_bound 40)) small_nat)
    (fun (s, k) ->
      let skip = if s = "" then 0 else k mod (String.length s + 1) in
      let drain r =
        let rec go acc =
          match Store.Codec.read_varint r with
          | v -> go (v :: acc)
          | exception Store.Codec.Corrupt msg -> (List.rev acc, msg)
        in
        go []
      in
      let outer = Store.Codec.reader s in
      ignore (Store.Codec.read_raw outer skip);
      let rest = String.length s - skip in
      let window = Store.Codec.sub outer rest in
      let copy = Store.Codec.reader (String.sub s skip rest) in
      drain window = drain copy && Store.Codec.at_end outer)

let test_codec_sections () =
  let w = Store.Codec.writer () in
  Store.Codec.section w ~tag:7 "hello";
  Store.Codec.section w ~tag:9 "";
  let r = Store.Codec.reader (Store.Codec.contents w) in
  let t1, p1 = Store.Codec.read_section r in
  let t2, p2 = Store.Codec.read_section r in
  let contents p = Store.Codec.read_raw p (Store.Codec.remaining p) in
  check_int "tag 1" 7 t1;
  check_str "payload 1" "hello" (contents p1);
  check_int "tag 2" 9 t2;
  check_str "empty payload" "" (contents p2);
  check "consumed" true (Store.Codec.at_end r)

(* The position writers are the one spelling of each field: placed at
   an offset into a buffer sized by [varint_size]/[str_size] they give
   the appending writer's bytes, they touch nothing around the field,
   and a field that does not fit raises instead of running past the
   buffer.  A writer grown from one byte keeps every append in order. *)
let test_position_writers () =
  let module C = Store.Codec in
  let appended f =
    let w = C.writer ~capacity:1 () in
    f w;
    C.contents w
  in
  let placed size put =
    let b = Bytes.make (size + 5) '\xAA' in
    let stop = put b 3 in
    check_int "returned position" (3 + size) stop;
    check "bytes around the field untouched" true
      (Bytes.sub_string b 0 3 = "\xAA\xAA\xAA" && Bytes.sub_string b stop 2 = "\xAA\xAA");
    Bytes.sub_string b 3 size
  in
  List.iter
    (fun v ->
      check_str "varint" (appended (fun w -> C.varint w v))
        (placed (C.varint_size v) (fun b pos -> C.put_varint b pos v)))
    [ 0; 1; 127; 128; 16383; 16384; max_int ];
  List.iter
    (fun s ->
      check_str "str" (appended (fun w -> C.str w s))
        (placed (C.str_size s) (fun b pos -> C.put_str b pos s)))
    [ ""; "a"; String.make 200 'x' ];
  List.iter
    (fun v -> check_str "u8" (appended (fun w -> C.u8 w v)) (placed 1 (fun b pos -> C.put_u8 b pos v)))
    [ 0; 0x7F; 0xFF ];
  List.iter
    (fun v -> check_str "u32" (appended (fun w -> C.u32 w v)) (placed 4 (fun b pos -> C.put_u32 b pos v)))
    [ 0; 0x12345678; 0xFFFFFFFF ];
  (match C.put_varint (Bytes.create 1) 0 128 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a two-byte varint fit a one-byte buffer");
  (match C.put_varint (Bytes.create 9) 0 (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "put_varint accepted a negative value");
  let w = C.writer ~capacity:1 () in
  for i = 0 to 999 do
    C.varint w (i * 977);
    C.str w (string_of_int i)
  done;
  check_int "written" (String.length (C.contents w)) (C.written w);
  let r = C.reader (C.contents w) in
  for i = 0 to 999 do
    check_int "grown varint" (i * 977) (C.read_varint r);
    check_str "grown str" (string_of_int i) (C.read_str r)
  done;
  check "consumed" true (C.at_end r)

let test_codec_rejects () =
  let w = Store.Codec.writer () in
  Store.Codec.section w ~tag:1 "payload";
  let s = Store.Codec.contents w in
  (* truncation mid-frame *)
  for cut = 0 to String.length s - 1 do
    let r = Store.Codec.reader (String.sub s 0 cut) in
    match Store.Codec.read_section r with
    | exception Store.Codec.Corrupt _ -> ()
    | _ -> Alcotest.failf "accepted a section truncated to %d bytes" cut
  done;
  (* payload corruption vs the stored checksum *)
  let flipped = Bytes.of_string s in
  Bytes.set flipped 6 (Char.chr (Char.code (Bytes.get flipped 6) lxor 1));
  (match Store.Codec.read_section (Store.Codec.reader (Bytes.to_string flipped)) with
  | exception Store.Codec.Corrupt msg ->
      check "names the checksum" true
        (String.length msg > 0
        && Option.is_some (String.index_opt msg 'c'))
  | _ -> Alcotest.fail "accepted a corrupted payload")

(* ------------------------------------------------------------------ *)
(* Snapshot round-trip *)

(* Weighted so that, at the round-trip property's 140 draws, cycles,
   grids and even-degree graphs keep about 33 draws each, and the
   degenerate edgeless and n = 0 graphs appear only a few times. *)
let graph_gen =
  let family weight build =
    ( weight,
      QCheck.Gen.map
        (fun seed -> build (Prng.create seed))
        (QCheck.Gen.int_bound 1_000_000) )
  in
  QCheck.Gen.frequency
    [
      family 10 (fun rng -> Builders.cycle (3 + Prng.int rng 60));
      family 10 (fun rng -> Builders.grid (1 + Prng.int rng 6) (1 + Prng.int rng 6));
      family 10 (fun rng -> Builders.random_even_degree rng (4 + Prng.int rng 40) 2);
      (* Isolated nodes and mixed degrees. *)
      family 6 (fun rng -> Builders.gnp rng (1 + Prng.int rng 50) (Prng.float rng 0.3));
      (* A hub past [sort_ints]' insertion-sort cutoff of 16. *)
      family 4 (fun rng -> Builders.complete_bipartite 1 (17 + Prng.int rng 40));
      family 1 (fun rng -> Graph.of_edges ~n:(1 + Prng.int rng 20) []);
      family 1 (fun _ -> Graph.of_edges ~n:0 []);
    ]

let snapshot_gen =
  QCheck.Gen.(
    map2
      (fun g seed ->
        let rng = Prng.create seed in
        let random_assignment () =
          Array.init (Graph.n g) (fun _ ->
              String.init (Prng.int rng 9) (fun _ ->
                  if Prng.bool rng then '1' else '0'))
        in
        let advice =
          List.init (Prng.int rng 3) (fun i ->
              (Printf.sprintf "layer%d" i, random_assignment ()))
        in
        let meta =
          List.init (Prng.int rng 4) (fun i ->
              (Printf.sprintf "key%d" i, Printf.sprintf "value-%d" (Prng.int rng 100)))
        in
        { Store.Snapshot.graph = g; advice; meta })
      graph_gen (int_bound 1_000_000))

let snapshot_arb =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "snapshot n=%d m=%d advice=%d meta=%d"
        (Graph.n s.Store.Snapshot.graph)
        (Graph.m s.Store.Snapshot.graph)
        (List.length s.Store.Snapshot.advice)
        (List.length s.Store.Snapshot.meta))
    snapshot_gen

let snapshot_equal a b =
  Graph.equal a.Store.Snapshot.graph b.Store.Snapshot.graph
  && List.length a.Store.Snapshot.advice = List.length b.Store.Snapshot.advice
  && List.for_all2
       (fun (n1, a1) (n2, a2) -> String.equal n1 n2 && a1 = a2)
       a.Store.Snapshot.advice b.Store.Snapshot.advice
  && List.length a.Store.Snapshot.meta = List.length b.Store.Snapshot.meta
  && List.for_all2
       (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && String.equal v1 v2)
       a.Store.Snapshot.meta b.Store.Snapshot.meta

let snapshot_roundtrip =
  QCheck.Test.make ~count:140
    ~name:"Snapshot.read inverts write; re-pack is byte-identical"
    snapshot_arb (fun s ->
      let bytes1 = Store.Snapshot.write s in
      let back = Store.Snapshot.read bytes1 in
      let bytes2 = Store.Snapshot.write back in
      snapshot_equal s back && String.equal bytes1 bytes2)

let test_snapshot_rejects_malformed () =
  let g = Builders.cycle 6 in
  let bad_len =
    { Store.Snapshot.graph = g; advice = [ ("a", [| "1" |]) ]; meta = [] }
  in
  (match Store.Snapshot.write bad_len with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted an assignment of the wrong length");
  let bad_chars =
    {
      Store.Snapshot.graph = g;
      advice = [ ("a", Array.make 6 "10x") ];
      meta = [];
    }
  in
  match Store.Snapshot.write bad_chars with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted a non-bit assignment"

let varints vs =
  let w = Store.Codec.writer () in
  List.iter (Store.Codec.varint w) vs;
  Store.Codec.contents w

(* A checksum-valid v1 file whose adjacency is not symmetric: node 0
   lists 1 and node 3 lists 2, while 1 and 2 list nothing.  The degree
   sum 2 matches m = 1, so only the symmetry check can catch it. *)
let asymmetric_v1 () =
  let w = Store.Codec.writer () in
  Store.Codec.raw w Store.Snapshot.magic;
  Store.Codec.u16 w Store.Snapshot.version;
  Store.Codec.varint w 3;
  (* n m, the degrees, then node 0's list {1} and node 3's list {2} *)
  Store.Codec.section w ~tag:Store.Snapshot.tag_graph
    (varints [ 4; 1; 1; 0; 0; 1; 1; 2 ]);
  Store.Codec.section w ~tag:Store.Snapshot.tag_advice
    (Store.Snapshot.advice_payload 4 ("c4", [| "1"; ""; ""; "1" |]));
  Store.Codec.section w ~tag:Store.Snapshot.tag_meta (varints [ 0 ]);
  Store.Codec.contents w

let test_snapshot_rejects_asymmetric () =
  let s = asymmetric_v1 () in
  (match Store.Snapshot.read s with
  | exception Store.Codec.Corrupt msg ->
      check_str "diagnostic"
        "graph section: Graph.of_adjacency: adjacency is not symmetric at \
         edge {0, 1}"
        msg
  | _ -> Alcotest.fail "Snapshot.read accepted an asymmetric adjacency");
  match Store.Shard.open_bytes s with
  | exception Store.Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "Shard.open_bytes accepted an asymmetric adjacency"

(* Every node and every neighbor costs at least one byte, so counts that
   outrun the payload are rejected before anything is allocated. *)
let test_graph_counts_bounded () =
  List.iter
    (fun (what, payload) ->
      match Store.Snapshot.read_graph (Store.Codec.reader payload) with
      | exception Store.Codec.Corrupt _ -> ()
      | _ -> Alcotest.failf "read_graph accepted %s" what)
    [
      ("n = 2^40 with one degree", varints [ 1 lsl 40; 0; 0 ]);
      ("a degree of 2^40", varints [ 2; 1 lsl 39; 1 lsl 40; 0 ]);
      ("degrees summing past the payload", varints [ 2; 1; 3; 3; 1; 2 ]);
    ]

(* A v1 file around a hand-made graph payload and advice payload (by
   default a valid one for the 2-node path, whose graph payload is
   [2 1 1 1 1 0]). *)
let v1_file ?(advice = Store.Snapshot.advice_payload 2 ("c4", [| "1"; "1" |])) graph =
  let w = Store.Codec.writer () in
  Store.Codec.raw w Store.Snapshot.magic;
  Store.Codec.u16 w Store.Snapshot.version;
  Store.Codec.varint w 3;
  Store.Codec.section w ~tag:Store.Snapshot.tag_graph graph;
  Store.Codec.section w ~tag:Store.Snapshot.tag_advice advice;
  Store.Codec.section w ~tag:Store.Snapshot.tag_meta (varints [ 0 ]);
  Store.Codec.contents w

let path2 = varints [ 2; 1; 1; 1; 1; 0 ]
let name_c4 = varints [ 2 ] ^ "c4"

(* One crafted section for each diagnostic the v1 reader's graph and
   advice decoders raise, with the exact message: the same bytes must
   fail the same way whatever the decoder's inner loops look like.  A
   decreasing row cannot be spelled (gaps are non-negative and a sum
   past 32 bits is refused first), so a repeated neighbor stands for
   the row-order check. *)
let reader_diagnostics =
  let graph what payload msg = (what, v1_file payload, msg) in
  let advice what payload msg = (what, v1_file ~advice:payload path2, msg) in
  let ones = "\xff\xff\xff\xff\xff\xff\xff\xff" in
  [
    graph "a truncated one-byte-continued varint" (varints [ 2; 1; 1; 1; 1 ] ^ "\x80")
      "truncated input at offset 6: need 1 byte(s) for varint, have 0";
    graph "a truncated three-byte varint" (varints [ 2; 1; 1; 1; 1 ] ^ "\x81\x81")
      "truncated input at offset 7: need 1 byte(s) for varint, have 0";
    graph "a non-minimal two-byte degree" (varints [ 2; 1 ] ^ "\x81\x00" ^ varints [ 1; 1; 0 ])
      "non-minimal varint at offset 2: trailing zero group";
    graph "a non-minimal three-byte gap" (varints [ 2; 1; 1; 1 ] ^ "\x81\x80\x00" ^ varints [ 0 ])
      "non-minimal varint at offset 4: trailing zero group";
    graph "an overflowing gap" (varints [ 2; 1; 1; 1 ] ^ ones ^ "\x7f" ^ varints [ 0 ])
      "varint at offset 4 overflows the int range";
    graph "n past the bytes left" (varints [ 5; 0; 0 ])
      "graph section: n=5 exceeds the 1 byte(s) left";
    graph "2m past the row cap" (varints [ 0; 1 lsl 31 ])
      "graph section: n=0, 2m=4294967296 exceed 2147483647, the 32-bit row cap";
    graph "a degree sum past the bytes left" (varints [ 2; 1; 3; 3; 1; 2 ])
      "graph section: degree sum exceeds the 2 byte(s) left";
    graph "a degree sum that is not 2m" (varints [ 2; 2; 1; 1; 1; 0 ])
      "graph section: degree sum 2 does not match 2m=4";
    graph "a neighbor out of range" (varints [ 2; 1; 1; 1; 5; 0 ])
      "graph section: Graph.of_adjacency: node 0 lists neighbor 5 outside 0..1";
    graph "a neighbor past 32 bits" (varints [ 2; 1; 1; 1; 1 lsl 32; 0 ])
      "graph section: node 0 lists neighbor 4294967296 outside 0..1";
    graph "a repeated neighbor" (varints [ 3; 2; 2; 1; 1; 1; 0; 0; 0 ])
      "graph section: Graph.of_adjacency: node 0 lists neighbor 1 after 1";
    graph "a self-listing row" (varints [ 2; 1; 1; 1; 0; 0 ])
      "graph section: Graph.of_adjacency: node 0 lists itself";
    graph "an upper neighbor that does not list back" (varints [ 4; 1; 1; 0; 0; 1; 1; 2 ])
      "graph section: Graph.of_adjacency: adjacency is not symmetric at edge {0, 1}";
    graph "a lower neighbor that does not list back" (varints [ 4; 1; 0; 0; 1; 1; 1; 0 ])
      "graph section: Graph.of_adjacency: adjacency is not symmetric at edge {1, 2}";
    graph "balanced counts with a missing partner" (varints [ 3; 1; 1; 0; 1; 2; 1 ])
      "graph section: Graph.of_adjacency: adjacency is not symmetric at edge {0, 2}";
    graph "a trailing byte after the rows" (varints [ 2; 1; 1; 1; 1; 0; 7 ])
      "graph section: 1 trailing byte(s) at offset 6";
    advice "a truncated name" (varints [ 5 ] ^ "c4")
      "truncated input at offset 1: need 5 byte(s) for raw bytes, have 2";
    advice "an advice count that is not n" (name_c4 ^ varints [ 3; 1; 1; 1 ] ^ "\x07")
      "advice section \"c4\": 3 entries for a 2-node graph";
    advice "advice bits that overrun" (name_c4 ^ varints [ 2; 1; 9 ] ^ "\x01")
      "advice section \"c4\": node 1's 9 bit(s) overrun the 1 byte(s) left";
    advice "a truncated advice length" (name_c4 ^ varints [ 2; 1 ] ^ "\x81")
      "truncated input at offset 6: need 1 byte(s) for varint, have 0";
    advice "a non-minimal advice length" (name_c4 ^ varints [ 2 ] ^ "\x81\x00" ^ varints [ 1 ] ^ "\x03")
      "non-minimal varint at offset 4: trailing zero group";
    advice "a trailing byte after the packed bits" (name_c4 ^ varints [ 2; 1; 1 ] ^ "\x03\x00")
      "advice section \"c4\": 1 trailing byte(s) at offset 7";
  ]

let test_reader_diagnostics () =
  List.iter
    (fun (what, file, expected) ->
      (match Store.Snapshot.read file with
      | exception Store.Codec.Corrupt msg -> check_str what expected msg
      | _ -> Alcotest.failf "Snapshot.read accepted %s" what);
      match Store.Shard.open_bytes file with
      | exception Store.Codec.Corrupt msg -> check_str ("open_bytes: " ^ what) expected msg
      | _ -> Alcotest.failf "Shard.open_bytes accepted %s" what)
    reader_diagnostics;
  (* The base file itself reads. *)
  check_int "the 2-node path reads" 1
    (Graph.m (Store.Snapshot.read (v1_file path2)).Store.Snapshot.graph)

(* ------------------------------------------------------------------ *)
(* Field-mutation fuzz *)

(* A payload as its fields: a count or length varint, bytes no count
   describes, or a length-prefixed payload of its own. *)
type field = Count of int | Raw of string | Nested of field list

let rec encode fs = String.concat "" (List.map encode_field fs)

and encode_field = function
  | Count v -> varints [ v ]
  | Raw s -> s
  | Nested fs ->
      let s = encode fs in
      varints [ String.length s ] ^ s

(* Every count or length field of [fs], nested ones included, as the
   function from a value written there to the payload's bytes; a nested
   payload's own prefix follows its mutated contents. *)
let rec count_slots fs =
  List.concat
    (List.mapi
       (fun i f ->
         let wrap s =
           encode (List.filteri (fun j _ -> j < i) fs)
           ^ s
           ^ encode (List.filteri (fun j _ -> j > i) fs)
         in
         match f with
         | Count _ -> [ (fun x -> wrap (varints [ x ])) ]
         | Raw _ -> []
         | Nested inner ->
             let body = encode inner in
             (fun x -> wrap (varints [ x ] ^ body))
             :: List.map
                  (fun slot x ->
                    let s = slot x in
                    wrap (varints [ String.length s ] ^ s))
                  (count_slots inner))
       fs)

(* The fields of a graph payload: n, m and each degree are counts; the
   neighbor gaps are not. *)
let graph_fields payload =
  let r = Store.Codec.reader payload in
  let n = Store.Codec.read_varint r in
  let m = Store.Codec.read_varint r in
  let degrees = List.init n (fun _ -> Count (Store.Codec.read_varint r)) in
  (Count n :: Count m :: degrees)
  @ [ Raw (Store.Codec.read_raw r (Store.Codec.remaining r)) ]

(* An advice payload: the name's length, the node count and each bit
   length are counts; the packed bits are not. *)
let advice_fields payload =
  let r = Store.Codec.reader payload in
  let name = Store.Codec.read_str r in
  let n = Store.Codec.read_varint r in
  let lens = List.init n (fun _ -> Count (Store.Codec.read_varint r)) in
  (Nested [ Raw name ] :: Count n :: lens)
  @ [ Raw (Store.Codec.read_raw r (Store.Codec.remaining r)) ]

(* A shard body: its header counts, node ids, local graph, edge ids and
   advice sections. *)
let body_fields body =
  let r = Store.Codec.reader body in
  let header = List.init 5 (fun _ -> Store.Codec.read_varint r) in
  let local_n = List.nth header 3 and local_m = List.nth header 4 in
  let ids k =
    let r' = Store.Codec.fork r in
    for _ = 1 to k do
      ignore (Store.Codec.read_varint r)
    done;
    Raw (Store.Codec.read_raw r' (Store.Codec.pos r - Store.Codec.pos r'))
  in
  let node_ids = ids local_n in
  let graph = Nested (graph_fields (Store.Codec.read_str r)) in
  let edge_ids = ids local_m in
  let count = Store.Codec.read_varint r in
  let advice = List.init count (fun _ -> Nested (advice_fields (Store.Codec.read_str r))) in
  List.map (fun c -> Count c) header @ [ node_ids; graph; edge_ids; Count count ] @ advice

(* The values each field is set to in turn, [n] being the section's
   node count. *)
let hostile n = [ 0; 1; n + 1; 1 lsl 31; 1 lsl 40; (1 lsl 62) - 1 ]

(* A v1 file and a 4-shard container of one graph; every count and
   length field of the v1 file's graph and advice sections and of each
   shard body is set to each hostile value in turn, and each graph
   section is cut at each of its first 64 bytes, the checksums (and the
   container's manifest rows) recomputed around the change.  Opening
   each mutant and loading every shard ends in a value or
   [Codec.Corrupt], never another exception, and allocates at most a
   constant times the input plus a constant: no count is trusted before
   the bytes left bound it. *)
let test_field_mutation_fuzz () =
  let module C = Store.Codec in
  let rng = Prng.create 34 in
  let g = Builders.random_even_degree rng 40 3 in
  let n = Graph.n g in
  let advice =
    Array.init n (fun v ->
        String.init (if v = 7 then 150 else v mod 5) (fun i ->
            if (v + i) mod 3 = 0 then '1' else '0'))
  in
  let snapshot =
    { Store.Snapshot.graph = g; advice = [ ("c4", advice) ]; meta = [ ("k", "v") ] }
  in
  let mutants = ref 0 in
  let run what file =
    incr mutants;
    (* From an empty minor heap: a collection inside the measured span
       would skew the count. *)
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    (match Store.Shard.open_bytes file with
    | exception C.Corrupt _ -> ()
    | t ->
        for k = 0 to Array.length (Store.Shard.manifest t).Store.Shard.m_shards - 1 do
          match Store.Shard.load t k with exception C.Corrupt _ -> () | _ -> ()
        done
    | exception e -> Alcotest.failf "%s: %s" what (Printexc.to_string e));
    let grown = Gc.allocated_bytes () -. before in
    if grown > (32.0 *. float_of_int (String.length file)) +. 8192.0 then
      Alcotest.failf "%s: %.0f bytes allocated for a %d-byte input" what grown
        (String.length file)
  in
  let cuts payload =
    List.init (Int.min 64 (String.length payload)) (fun k -> String.sub payload 0 k)
  in
  (* The v1 file. *)
  let v1 ~graph ~advice =
    let w = C.writer () in
    C.raw w Store.Snapshot.magic;
    C.u16 w Store.Snapshot.version;
    C.varint w 3;
    C.section w ~tag:Store.Snapshot.tag_graph graph;
    C.section w ~tag:Store.Snapshot.tag_advice advice;
    C.section w ~tag:Store.Snapshot.tag_meta
      (varints [ 1; 1 ] ^ "k" ^ varints [ 1 ] ^ "v");
    C.contents w
  in
  let graph = Store.Snapshot.graph_payload g in
  let adv = Store.Snapshot.advice_payload n ("c4", advice) in
  check_str "the v1 file rebuilds byte for byte" (Store.Snapshot.write snapshot)
    (v1 ~graph:(encode (graph_fields graph)) ~advice:(encode (advice_fields adv)));
  List.iteri
    (fun i slot ->
      List.iter
        (fun x ->
          run (Printf.sprintf "v1 graph field %d = %d" i x) (v1 ~graph:(slot x) ~advice:adv))
        (hostile n))
    (count_slots (graph_fields graph));
  List.iteri
    (fun i slot ->
      List.iter
        (fun x ->
          run (Printf.sprintf "v1 advice field %d = %d" i x) (v1 ~graph ~advice:(slot x)))
        (hostile n))
    (count_slots (advice_fields adv));
  List.iteri
    (fun k cut -> run (Printf.sprintf "v1 graph cut at %d" k) (v1 ~graph:cut ~advice:adv))
    (cuts graph);
  (* The container: bodies rebuilt field by field, the manifest around
     them (its rows' local counts follow the body's header, so a body
     that lies about them reaches the body readers). *)
  let file = Store.Shard.build ~shards:4 ~halo:2 snapshot in
  let man = Store.Shard.manifest (Store.Shard.open_bytes file) in
  let shards = man.Store.Shard.m_shards in
  let frame i = String.sub file shards.(i).Store.Shard.i_offset shards.(i).i_bytes in
  let bodies =
    Array.init (Array.length shards) (fun i ->
        let f = frame i in
        String.sub f 5 (String.length f - 9))
  in
  let shard_tag = Char.code (frame 0).[0] in
  let manifest_tag = Char.code file.[String.length Store.Snapshot.magic + 2 + 1] in
  let container bodies =
    let mw = C.writer () in
    List.iter (C.varint mw) [ man.m_n; man.m_m; man.m_halo; Array.length bodies ];
    C.varint mw (List.length man.m_advice);
    List.iter (C.str mw) man.m_advice;
    C.varint mw (List.length man.m_meta);
    List.iter (fun (k, v) -> C.str mw k; C.str mw v) man.m_meta;
    let rel = ref 0 in
    Array.iteri
      (fun i body ->
        let r = C.reader body in
        let header = List.init 5 (fun _ -> C.read_varint r) in
        List.iter (C.varint mw)
          [ shards.(i).i_lo; shards.(i).i_hi; List.nth header 3; List.nth header 4; !rel;
            String.length body + 9 ];
        C.u32 mw (Store.Crc32.of_string body);
        rel := !rel + String.length body + 9)
      bodies;
    let w = C.writer () in
    C.raw w Store.Snapshot.magic;
    C.u16 w Store.Shard.version;
    C.varint w (1 + Array.length bodies);
    C.section w ~tag:manifest_tag (C.contents mw);
    Array.iter (fun body -> C.section w ~tag:shard_tag body) bodies;
    C.contents w
  in
  check_str "the container rebuilds byte for byte" file
    (container (Array.map (fun b -> encode (body_fields b)) bodies));
  Array.iteri
    (fun k body ->
      let fields = body_fields body in
      let local_n = shards.(k).i_local_n in
      let with_body b = container (Array.mapi (fun j o -> if j = k then b else o) bodies) in
      List.iteri
        (fun i slot ->
          List.iter
            (fun x ->
              run (Printf.sprintf "shard %d field %d = %d" k i x) (with_body (slot x)))
            (hostile local_n))
        (count_slots fields);
      (* Field 6 is the local graph, after the header and the node ids. *)
      let graph =
        match List.nth fields 6 with Nested inner -> encode inner | _ -> assert false
      in
      List.iteri
        (fun c cut ->
          let fields = List.mapi (fun i f -> if i = 6 then Nested [ Raw cut ] else f) fields in
          run (Printf.sprintf "shard %d graph cut at %d" k c) (with_body (encode fields)))
        (cuts graph))
    bodies;
  check "mutants ran" true (!mutants > 1000)

(* A v1 read decodes every section where it lies into the graph's three
   flat arrays (each large enough to be allocated outside the minor
   heap) and the advice strings into the shared table, so a 65,536-node
   cycle costs a fixed handful of small blocks, not a few per node (the
   per-node representation cost about 990k minor words here). *)
let test_read_allocation_budget () =
  let n = 65_536 in
  let g = Builders.cycle n in
  let advice = Array.init n (fun v -> if v mod 3 = 0 then "10" else "1") in
  let s =
    Store.Snapshot.write
      { Store.Snapshot.graph = g; advice = [ ("c4", advice) ];
        meta = [ ("serve.radius", "1") ] }
  in
  ignore (Store.Snapshot.read s);
  let before = Gc.minor_words () in
  let t = Store.Snapshot.read s in
  let words = Gc.minor_words () -. before in
  check "graph read back" true (Graph.equal g t.Store.Snapshot.graph);
  if words >= 4096.0 then
    Alcotest.failf "Snapshot.read allocated %.0f minor words (budget 4096)" words

(* Every single-byte mutation must be detected: framing damage trips a
   structural check, payload damage trips the section checksum. *)
let test_snapshot_corruption_fuzz () =
  let rng = Prng.create 1234 in
  let g = Builders.random_even_degree rng 24 2 in
  let advice =
    [ ("bits", Array.init (Graph.n g) (fun v -> if v mod 3 = 0 then "101" else "")) ]
  in
  let s =
    Store.Snapshot.write
      { Store.Snapshot.graph = g; advice; meta = [ ("k", "v") ] }
  in
  for cut = 0 to String.length s - 1 do
    match Store.Snapshot.read (String.sub s 0 cut) with
    | exception Store.Codec.Corrupt _ -> ()
    | _ -> Alcotest.failf "accepted a snapshot truncated to %d bytes" cut
  done;
  for i = 0 to String.length s - 1 do
    let mutated = Bytes.of_string s in
    Bytes.set mutated i (Char.chr (Char.code s.[i] lxor 0x20));
    match Store.Snapshot.read (Bytes.to_string mutated) with
    | exception Store.Codec.Corrupt _ -> ()
    | _ -> Alcotest.failf "accepted a snapshot with byte %d flipped" i
  done;
  (* The diagnostic carries context (an offset), not just a boolean. *)
  match Store.Snapshot.read (String.sub s 0 (String.length s - 1)) with
  | exception Store.Codec.Corrupt msg ->
      check "diagnostic mentions an offset" true
        (String.length msg > 10)
  | _ -> Alcotest.fail "accepted a truncated snapshot"

(* ------------------------------------------------------------------ *)
(* The paper's bit budget (acceptance criterion) *)

let test_bits_budget () =
  let rng = Prng.create 7 in
  List.iter
    (fun g ->
      let x = Bitset.create (Graph.m g) in
      Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
      let snapshot, _cert = Serve.Pack.edge_compression ~sample:8 g x in
      let budget =
        Graph.fold_nodes
          (fun v acc -> acc + Schemas.Edge_compression.bits_bound (Graph.degree g v))
          g 0
      in
      let payload_bits = Store.Snapshot.advice_payload_bits snapshot ~name:"c4" in
      check "payload within the paper's budget" true (payload_bits <= budget);
      (* On the wire: packed payload + varint lengths + name is O(n)
         framing on top of the bit budget. *)
      let bytes = Store.Snapshot.write snapshot in
      let advice_section =
        List.find
          (fun i -> i.Store.Codec.tag = Store.Snapshot.tag_advice)
          (Store.Snapshot.sections bytes)
      in
      check "wire size = packed bits + O(n) framing" true
        (advice_section.Store.Codec.length
        <= ((payload_bits + 7) / 8) + (3 * Graph.n g) + 32))
    (* Families the one-bit C4 encoder supports: long enough geodesics
       for the radial marker messages. *)
    [ Builders.cycle 200; Builders.cycle 333 ]

(* ------------------------------------------------------------------ *)
(* LRU cache *)

let test_cache_lru () =
  let c = Serve.Cache.create ~capacity:2 ~n:10 in
  check_int "capacity" 2 (Serve.Cache.capacity c);
  Serve.Cache.insert c 1 "a";
  Serve.Cache.insert c 2 "b";
  check "hit 1" true (Serve.Cache.find c 1 = Some "a");
  (* 1 is now most recent; inserting 3 evicts 2 *)
  Serve.Cache.insert c 3 "c";
  check "2 evicted" false (Serve.Cache.mem c 2);
  check "1 kept" true (Serve.Cache.mem c 1);
  check "3 present" true (Serve.Cache.find c 3 = Some "c");
  check_int "length" 2 (Serve.Cache.length c);
  (* replacement updates in place *)
  Serve.Cache.insert c 1 "a2";
  check "replaced" true (Serve.Cache.find c 1 = Some "a2");
  check_int "no growth on replace" 2 (Serve.Cache.length c);
  (* mem does not promote: 3 is LRU after the finds above *)
  check "mem is read-only" true (Serve.Cache.mem c 3);
  Serve.Cache.insert c 4 "d";
  check "3 evicted as LRU" false (Serve.Cache.mem c 3);
  Serve.Cache.clear c;
  check_int "cleared" 0 (Serve.Cache.length c);
  check "find after clear" true (Serve.Cache.find c 1 = None);
  (* capacity 0 disables caching *)
  let c0 = Serve.Cache.create ~capacity:0 ~n:4 in
  Serve.Cache.insert c0 1 "x";
  check "capacity-0 never stores" true (Serve.Cache.find c0 1 = None)

(* Edge cases the random model check is unlikely to pin down exactly:
   an empty node universe, capacity exceeding the universe, re-insertion
   with a new value, and clearing right after an eviction cycle. *)
let test_cache_edges () =
  (* n = 0: no valid node ids at all. *)
  let c = Serve.Cache.create ~capacity:4 ~n:0 in
  check_int "empty universe starts empty" 0 (Serve.Cache.length c);
  check "find on empty universe" true (Serve.Cache.find c 0 = None);
  check "mem on empty universe" false (Serve.Cache.mem c 0);
  (match Serve.Cache.insert c 0 "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "insert accepted a node outside an empty universe");
  Serve.Cache.clear c;
  check_int "clear of the empty universe" 0 (Serve.Cache.length c);
  (* capacity > n: everything fits, nothing is ever evicted. *)
  let c = Serve.Cache.create ~capacity:8 ~n:3 in
  Serve.Cache.insert c 0 "a";
  Serve.Cache.insert c 1 "b";
  Serve.Cache.insert c 2 "c";
  check_int "all of a small universe resident" 3 (Serve.Cache.length c);
  check "node 0 kept" true (Serve.Cache.find c 0 = Some "a");
  check "node 1 kept" true (Serve.Cache.find c 1 = Some "b");
  check "node 2 kept" true (Serve.Cache.find c 2 = Some "c");
  (* Re-insert of a cached node with a new value, across an eviction
     cycle: the binding updates in place and counts as a use. *)
  let c = Serve.Cache.create ~capacity:2 ~n:6 in
  Serve.Cache.insert c 0 "a";
  Serve.Cache.insert c 1 "b";
  Serve.Cache.insert c 2 "c" (* evicts 0 *);
  check "eviction happened" false (Serve.Cache.mem c 0);
  Serve.Cache.insert c 1 "b2";
  check "re-insert rebinds" true (Serve.Cache.find c 1 = Some "b2");
  check_int "re-insert does not grow" 2 (Serve.Cache.length c);
  Serve.Cache.insert c 3 "d" (* 1 was just used, so 2 is the victim *);
  check "LRU victim after re-insert" false (Serve.Cache.mem c 2);
  check "re-inserted entry survives" true (Serve.Cache.mem c 1);
  (* clear immediately after an eviction cycle, then reuse the arrays. *)
  Serve.Cache.clear c;
  check_int "cleared after evictions" 0 (Serve.Cache.length c);
  check "no stale binding" true (Serve.Cache.find c 1 = None);
  Serve.Cache.insert c 4 "e";
  Serve.Cache.insert c 5 "f";
  Serve.Cache.insert c 0 "g" (* a fresh eviction cycle post-clear *);
  check "post-clear eviction" false (Serve.Cache.mem c 4);
  check "post-clear entries live" true
    (Serve.Cache.find c 5 = Some "f" && Serve.Cache.find c 0 = Some "g")

let cache_matches_model =
  QCheck.Test.make ~count:200 ~name:"LRU cache matches a list model"
    QCheck.(pair (int_range 1 4) (small_list (pair (int_bound 7) (int_bound 9))))
    (fun (cap, ops) ->
      let c = Serve.Cache.create ~capacity:cap ~n:8 in
      (* model: association list, most recent first *)
      let model = ref [] in
      List.for_all
        (fun (v, tag) ->
          if tag mod 2 = 0 then begin
            let s = string_of_int tag in
            Serve.Cache.insert c v s;
            model := (v, s) :: List.remove_assoc v !model;
            if List.length !model > cap then
              model := List.filteri (fun i _ -> i < cap) !model;
            true
          end
          else begin
            let got = Serve.Cache.find c v in
            let expected = List.assoc_opt v !model in
            (match expected with
            | Some s -> model := (v, s) :: List.remove_assoc v !model
            | None -> ());
            got = expected
          end)
        ops)

(* ------------------------------------------------------------------ *)
(* Engine vs direct decoder *)

let make_packed n seed =
  let rng = Prng.create seed in
  let g = Builders.cycle n in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let snapshot, cert = Serve.Pack.edge_compression g x in
  (g, x, snapshot, cert)

let test_engine_vs_direct () =
  let g, _x, snapshot, cert = make_packed 260 42 in
  check "certified exhaustively" true cert.Serve.Pack.exhaustive;
  check "serving is local (radius < n/2)" true (cert.Serve.Pack.radius < 130);
  (* Round-trip through the wire format before serving. *)
  let snapshot = Store.Snapshot.read (Store.Snapshot.write snapshot) in
  let engine = Serve.Engine.create snapshot in
  check_int "radius from metadata" cert.Serve.Pack.radius
    (Serve.Engine.radius engine);
  let assignment =
    match snapshot.Store.Snapshot.advice with
    | [ ("c4", a) ] -> a
    | _ -> Alcotest.fail "expected one advice section named c4"
  in
  let decoded = Schemas.Edge_compression.decode g assignment in
  Graph.iter_nodes
    (fun v ->
      let expected_label =
        String.init (Graph.degree g v) (fun i ->
            let u = (Graph.neighbors g v).(i) in
            if Bitset.mem decoded (Graph.edge_id g v u) then '1' else '0')
      in
      (match Serve.Engine.query engine (Serve.Engine.Output_label v) with
      | Serve.Engine.Label s -> check_str "label = direct decode" expected_label s
      | _ -> Alcotest.fail "expected Label");
      Array.iter
        (fun e ->
          match Serve.Engine.query engine (Serve.Engine.Edge_member (v, e)) with
          | Serve.Engine.Member b ->
              check "membership = direct decode" (Bitset.mem decoded e) b
          | _ -> Alcotest.fail "expected Member")
        (Graph.incident_edges g v);
      match Serve.Engine.query engine (Serve.Engine.Advice_bits v) with
      | Serve.Engine.Bits s -> check_str "advice bits" assignment.(v) s
      | _ -> Alcotest.fail "expected Bits")
    g

let test_engine_batch_matches_queries () =
  let g, _x, snapshot, _cert = make_packed 200 7 in
  let rng = Prng.create 99 in
  let queries =
    Array.init 300 (fun _ ->
        let v = Prng.int rng (Graph.n g) in
        match Prng.int rng 3 with
        | 0 -> Serve.Engine.Output_label v
        | 1 ->
            let es = Graph.incident_edges g v in
            Serve.Engine.Edge_member (v, es.(Prng.int rng (Array.length es)))
        | _ -> Serve.Engine.Advice_bits v)
  in
  (* Cold batch on a fresh three-slot router (parallel), warm repeat, and
     per-query answers on a fresh engine must all agree. *)
  let router =
    Serve.Router.create ~domains:3 (Store.Shard.open_bytes (Store.Snapshot.write snapshot))
  in
  let cold = Serve.Router.batch router queries in
  let warm = Serve.Router.batch router queries in
  let fresh = Serve.Engine.create snapshot in
  let singles = Array.map (Serve.Engine.query fresh) queries in
  let tiny_cache =
    Serve.Router.create ~cache_capacity:2
      (Store.Shard.open_bytes (Store.Snapshot.write snapshot))
  in
  let squeezed = Serve.Router.batch tiny_cache queries in
  check "warm batch = cold batch" true (cold = warm);
  check "batch = single queries" true (cold = singles);
  check "cache pressure changes nothing" true (cold = squeezed)

let test_engine_validates () =
  let _g, _x, snapshot, cert = make_packed 24 3 in
  let engine = Serve.Engine.create snapshot in
  let must_reject what q =
    match Serve.Engine.query engine q with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "accepted %s" what
  in
  must_reject "an out-of-range node" (Serve.Engine.Output_label 99);
  must_reject "a negative node" (Serve.Engine.Advice_bits (-1));
  must_reject "an out-of-range edge" (Serve.Engine.Edge_member (0, 999));
  must_reject "a non-incident edge" (Serve.Engine.Edge_member (0, 12));
  (* A batch validates before any ball work — range checks and the
     endpoint check alike, for a v1 file and a 3-shard container: no
     query is served, no ball decoded.  Edge 5 of the 24-cycle is stored
     in node 0's shard without being incident to it. *)
  let v1 = Store.Snapshot.write snapshot in
  let routers =
    [
      ("v1, 2 slots", Serve.Router.create ~domains:2 (Store.Shard.open_bytes v1));
      ( "3 shards",
        Serve.Router.create
          (Store.Shard.open_bytes
             (Store.Shard.build ~shards:3 ~halo:(max cert.Serve.Pack.radius 1) snapshot)) );
    ]
  in
  let served () =
    List.fold_left
      (fun acc (e : Obs.Metrics.entry) ->
        match e.Obs.Metrics.value with
        | Obs.Metrics.Counter_v { total; _ }
          when String.equal e.Obs.Metrics.name "serve.queries" ->
            total
        | _ -> acc)
      0 (Obs.Metrics.snapshot ())
  in
  Obs.Sink.enable ();
  Fun.protect ~finally:Obs.Sink.disable @@ fun () ->
  List.iter
    (fun (name, router) ->
      Obs.Sink.reset ();
      List.iter
        (fun (what, bad) ->
          match Serve.Router.batch router [| Serve.Engine.Output_label 5; bad |] with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s: batch accepted %s" name what)
        [
          ("an out-of-range node", Serve.Engine.Output_label 99);
          ("a non-incident edge", Serve.Engine.Edge_member (0, 12));
          ("a non-incident edge of the owner shard", Serve.Engine.Edge_member (0, 5));
        ];
      check_int (name ^ ": rejected batches served nothing") 0 (served ());
      ignore (Serve.Router.query router (Serve.Engine.Output_label 5));
      check_int (name ^ ": a valid query is served") 1 (served ()))
    routers

(* The label column names a label of at most 8 bits by its shared slot
   and keeps a longer one, on a node of degree above 8, in a side
   column.  A hand-built graph with two hubs (degrees 12 and 9) on a
   40-cycle, under seeded advice bits (the decoder is total on any
   bits), answers every query on every node byte-identically with the
   column on and off: through [Engine.query], cold and then warm, and
   through a two-domain [Router.batch].  A warm hub label is the stored
   box itself, and reading it allocates nothing. *)
let test_long_labels_column_on_off () =
  let n = 42 in
  let edges =
    List.init 40 (fun i -> (i, (i + 1) mod 40))
    @ List.init 12 (fun i -> (40, 3 * i + 1))
    @ List.init 9 (fun i -> (41, 4 * i + 2))
  in
  let g = Graph.of_edges ~n edges in
  check_int "a hub of degree above 8" 12 (Graph.max_degree g);
  let rng = Prng.create 11 in
  let advice =
    Array.init n (fun v ->
        String.init (((Graph.degree g v + 1) / 2) + 1) (fun _ -> if Prng.bool rng then '1' else '0'))
  in
  let snapshot =
    { Store.Snapshot.graph = g; advice = [ ("c4", advice) ]; meta = [ ("serve.radius", "3") ] }
  in
  let queries =
    Array.concat
      (List.init n (fun v ->
           Array.concat
             [
               [| Serve.Engine.Output_label v; Serve.Engine.Advice_bits v |];
               Array.map (fun e -> Serve.Engine.Edge_member (v, e)) (Graph.incident_edges g v);
             ]))
  in
  let off = Serve.Engine.create ~cache_capacity:0 snapshot in
  let expected = Array.map (Serve.Engine.query off) queries in
  let hub_label =
    match Serve.Engine.query off (Serve.Engine.Output_label 40) with
    | Serve.Engine.Label s -> s
    | _ -> Alcotest.fail "expected Label"
  in
  check_int "the hub's label has a bit per incident edge" 12 (String.length hub_label);
  let on = Serve.Engine.create snapshot in
  let cold = Array.map (Serve.Engine.query on) queries in
  let warm = Array.map (Serve.Engine.query on) queries in
  let same what (a : Serve.Engine.answer array) b = check what true (a = b) in
  same "column on, cold = column off" cold expected;
  same "column on, warm = column off" warm expected;
  List.iter
    (fun hub ->
      let a = Serve.Engine.output_label on hub in
      check (Printf.sprintf "hub %d: a warm label is the stored box" hub) true
        (a == Serve.Engine.output_label on hub);
      let before = Gc.minor_words () in
      for _ = 1 to 100 do
        ignore (Serve.Engine.output_label on hub)
      done;
      let words = Gc.minor_words () -. before in
      if words > 8.0 then
        Alcotest.failf "hub %d: %.0f minor words over 100 column hits" hub words)
    [ 40; 41 ];
  let router = Serve.Router.create ~domains:2 (Store.Shard.of_snapshot snapshot) in
  check_int "two slots" 2 (Serve.Router.slot_count router);
  same "router batch, cold = column off" (Serve.Router.batch router queries) expected;
  same "router batch, warm = column off" (Serve.Router.batch router queries) expected

let () =
  Alcotest.run "store"
    [
      ( "bits",
        [
          QCheck_alcotest.to_alcotest pack_unpack_id;
          Alcotest.test_case "packing is canonical" `Quick test_pack_canonical;
        ] );
      ( "codec",
        [
          QCheck_alcotest.to_alcotest varint_roundtrip;
          QCheck_alcotest.to_alcotest varint_non_minimal_rejected;
          Alcotest.test_case "varint canonicality" `Quick
            test_varint_canonicality;
          Alcotest.test_case "section framing" `Quick test_codec_sections;
          Alcotest.test_case "rejects damage" `Quick test_codec_rejects;
          Alcotest.test_case "position writers = appending writer" `Quick
            test_position_writers;
          Alcotest.test_case "crc32 known answers" `Quick
            test_crc32_known_answers;
          QCheck_alcotest.to_alcotest crc32_matches_bytewise;
          QCheck_alcotest.to_alcotest window_matches_copy;
        ] );
      ( "snapshot",
        [
          QCheck_alcotest.to_alcotest snapshot_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick
            test_snapshot_rejects_malformed;
          Alcotest.test_case "corruption fuzz" `Quick
            test_snapshot_corruption_fuzz;
          Alcotest.test_case "advice stays within the bit budget" `Slow
            test_bits_budget;
          Alcotest.test_case "rejects asymmetric adjacency" `Quick
            test_snapshot_rejects_asymmetric;
          Alcotest.test_case "graph counts are bounded by bytes" `Quick
            test_graph_counts_bounded;
          Alcotest.test_case "every reader diagnostic, exactly" `Quick
            test_reader_diagnostics;
          Alcotest.test_case "field-mutation fuzz: a value or Corrupt" `Quick
            test_field_mutation_fuzz;
          Alcotest.test_case "a v1 read allocates O(1) minor words" `Quick
            test_read_allocation_budget;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru semantics" `Quick test_cache_lru;
          Alcotest.test_case "edge cases" `Quick test_cache_edges;
          QCheck_alcotest.to_alcotest cache_matches_model;
        ] );
      ( "engine",
        [
          Alcotest.test_case "equals the direct decoder" `Slow
            test_engine_vs_direct;
          Alcotest.test_case "batch = singles, warm = cold" `Slow
            test_engine_batch_matches_queries;
          Alcotest.test_case "validates queries" `Quick test_engine_validates;
          Alcotest.test_case "degree > 8: column on = off" `Quick
            test_long_labels_column_on_off;
        ] );
    ]
