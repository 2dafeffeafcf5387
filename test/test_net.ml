(* Wire-protocol and event-loop coverage for lib/net: QCheck frame
   round-trips in both directions, every-prefix truncation and
   every-byte-flip fuzz (a single flipped bit must never reinterpret a
   frame — the whole-frame CRC guarantees it), socketless Conn state
   machine checks, and loopback integration against a live server —
   including one serving a container with a lost shard. *)

open Netgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Fixtures *)

let make_packed n seed =
  let rng = Prng.create seed in
  let g = Builders.cycle n in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let snapshot, _cert = Serve.Pack.edge_compression g x in
  (g, snapshot)

(* A deterministic mixed workload over the snapshot graph: labels, edge
   memberships (node paired with one of its own incident edges, the
   LOCAL reading of C4), and raw advice reads. *)
let workload g count =
  let n = Graph.n g in
  Array.init count (fun i ->
      let v = (i * 7919) mod n in
      match i mod 3 with
      | 0 -> Serve.Engine.Output_label v
      | 1 ->
          let nbrs = Graph.neighbors g v in
          Serve.Engine.Edge_member (v, Graph.edge_id g v nbrs.(i mod Array.length nbrs))
      | _ -> Serve.Engine.Advice_bits v)

let query_node = function
  | Serve.Engine.Output_label v | Serve.Engine.Edge_member (v, _) | Serve.Engine.Advice_bits v -> v

(* ------------------------------------------------------------------ *)
(* QCheck generators *)

let query_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Serve.Engine.Output_label v) (int_bound 100_000);
        map2 (fun v e -> Serve.Engine.Edge_member (v, e)) (int_bound 100_000)
          (int_bound 1_000_000);
        map (fun v -> Serve.Engine.Advice_bits v) (int_bound 100_000);
      ])

let request_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Net.Protocol.Ping);
        (1, return Net.Protocol.Stats);
        (4, map (fun q -> Net.Protocol.Query q) query_gen);
        ( 4,
          map
            (fun qs -> Net.Protocol.Batch (Array.of_list qs))
            (list_size (int_bound 8) query_gen) );
      ])

(* Full byte range: string payloads must survive arbitrary bytes. *)
let raw_string_gen = QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 40))

let answer_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Serve.Engine.Label s) raw_string_gen;
        map (fun b -> Serve.Engine.Member b) bool;
        map (fun s -> Serve.Engine.Bits s) raw_string_gen;
      ])

let all_error_codes =
  Net.Protocol.
    [
      Bad_magic; Bad_version; Bad_frame; Bad_tag; Bad_request; Rejected;
      Too_large; Shutting_down;
    ]

let response_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Net.Protocol.Pong);
        ( 2,
          map
            (fun kvs -> Net.Protocol.Stats_reply kvs)
            (list_size (int_bound 6)
               (pair (string_size ~gen:printable (int_bound 24)) (int_bound 1_000_000))) );
        (3, map (fun a -> Net.Protocol.Answer a) answer_gen);
        ( 3,
          map
            (fun az -> Net.Protocol.Answers (Array.of_list az))
            (list_size (int_bound 8) answer_gen) );
        ( 2,
          map2
            (fun c m -> Net.Protocol.Error (c, m))
            (oneofl all_error_codes)
            (string_size ~gen:printable (int_bound 60)) );
      ])

let request_arb =
  QCheck.make ~print:(fun r -> Net.Protocol.request_to_string r |> String.escaped) request_gen

let response_arb =
  QCheck.make ~print:(fun r -> Net.Protocol.response_to_string r |> String.escaped) response_gen

(* ------------------------------------------------------------------ *)
(* Frame round-trips *)

let parse_full_request s =
  Net.Protocol.parse_request (Bytes.of_string s) ~pos:0 ~len:(String.length s)

let parse_full_response s =
  Net.Protocol.parse_response (Bytes.of_string s) ~pos:0 ~len:(String.length s)

let request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request frame round-trip" request_arb (fun rq ->
      let s = Net.Protocol.request_to_string rq in
      match parse_full_request s with
      | Net.Protocol.Done (rq', consumed) -> rq' = rq && consumed = String.length s
      | _ -> false)

let response_roundtrip =
  QCheck.Test.make ~count:500 ~name:"response frame round-trip" response_arb (fun rs ->
      let s = Net.Protocol.response_to_string rs in
      match parse_full_response s with
      | Net.Protocol.Done (rs', consumed) -> rs' = rs && consumed = String.length s
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Byte identity with the staged encoder *)

(* The frame encoder as it stood when every frame was staged three times
   (payload writer, frame writer, output writer), kept verbatim as the
   reference: the one-buffer encoder must emit the same bytes. *)
module Reference = struct
  module Codec = Store.Codec
  module Crc32 = Store.Crc32
  module Engine = Serve.Engine
  open Net.Protocol

  let tag_ping = 0x01
  let tag_stats = 0x02
  let tag_output_label = 0x10
  let tag_edge_member = 0x11
  let tag_advice_bits = 0x12
  let tag_batch = 0x20
  let tag_pong = 0x81
  let tag_stats_reply = 0x82
  let tag_label = 0x90
  let tag_member = 0x91
  let tag_bits = 0x92
  let tag_answers = 0xA0
  let tag_error = 0xFF

  (* The wire numbers of the error codes, written out. *)
  let error_code_to_int = function
    | Bad_magic -> 1
    | Bad_version -> 2
    | Bad_frame -> 3
    | Bad_tag -> 4
    | Bad_request -> 5
    | Rejected -> 6
    | Too_large -> 7
    | Shutting_down -> 8

  let frame w ~tag payload =
    let fw = Codec.writer ~capacity:(String.length payload + 16) () in
    Codec.u8 fw 0xC4;
    Codec.u8 fw version;
    Codec.u8 fw tag;
    Codec.varint fw (String.length payload);
    Codec.raw fw payload;
    let body = Codec.contents fw in
    Codec.raw w body;
    Codec.u32 w (Crc32.of_string body)

  let query_payload w = function
    | Engine.Output_label v ->
        Codec.u8 w tag_output_label;
        Codec.varint w v
    | Engine.Edge_member (v, e) ->
        Codec.u8 w tag_edge_member;
        Codec.varint w v;
        Codec.varint w e
    | Engine.Advice_bits v ->
        Codec.u8 w tag_advice_bits;
        Codec.varint w v

  let write_request w = function
    | Ping -> frame w ~tag:tag_ping ""
    | Stats -> frame w ~tag:tag_stats ""
    | Query q ->
        let pw = Codec.writer () in
        (match q with
        | Engine.Output_label v -> Codec.varint pw v
        | Engine.Edge_member (v, e) ->
            Codec.varint pw v;
            Codec.varint pw e
        | Engine.Advice_bits v -> Codec.varint pw v);
        let tag =
          match q with
          | Engine.Output_label _ -> tag_output_label
          | Engine.Edge_member _ -> tag_edge_member
          | Engine.Advice_bits _ -> tag_advice_bits
        in
        frame w ~tag (Codec.contents pw)
    | Batch qs ->
        let pw = Codec.writer ~capacity:(8 + (4 * Array.length qs)) () in
        Codec.varint pw (Array.length qs);
        Array.iter (query_payload pw) qs;
        frame w ~tag:tag_batch (Codec.contents pw)

  let answer_payload w = function
    | Engine.Label s ->
        Codec.u8 w tag_label;
        Codec.str w s
    | Engine.Member b ->
        Codec.u8 w tag_member;
        Codec.u8 w (if b then 1 else 0)
    | Engine.Bits s ->
        Codec.u8 w tag_bits;
        Codec.str w s

  let write_response w = function
    | Pong -> frame w ~tag:tag_pong ""
    | Stats_reply kvs ->
        let pw = Codec.writer () in
        Codec.varint pw (List.length kvs);
        List.iter
          (fun (k, v) ->
            Codec.str pw k;
            Codec.varint pw v)
          kvs;
        frame w ~tag:tag_stats_reply (Codec.contents pw)
    | Answer a ->
        let pw = Codec.writer () in
        (match a with
        | Engine.Label s -> Codec.str pw s
        | Engine.Member b -> Codec.u8 pw (if b then 1 else 0)
        | Engine.Bits s -> Codec.str pw s);
        let tag =
          match a with
          | Engine.Label _ -> tag_label
          | Engine.Member _ -> tag_member
          | Engine.Bits _ -> tag_bits
        in
        frame w ~tag (Codec.contents pw)
    | Answers az ->
        let pw = Codec.writer ~capacity:(8 + (8 * Array.length az)) () in
        Codec.varint pw (Array.length az);
        Array.iter (answer_payload pw) az;
        frame w ~tag:tag_answers (Codec.contents pw)
    | Error (code, msg) ->
        let pw = Codec.writer () in
        Codec.u8 pw (error_code_to_int code);
        Codec.str pw msg;
        frame w ~tag:tag_error (Codec.contents pw)

  let request_to_string rq =
    let w = Codec.writer () in
    write_request w rq;
    Codec.contents w

  let response_to_string rs =
    let w = Codec.writer () in
    write_response w rs;
    Codec.contents w
end

(* Wider than the round-trip generators: identifiers up to [max_int]
   (nine-byte varints), strings and batches long enough for multi-byte
   length prefixes. *)
let wide_int_gen =
  QCheck.Gen.(oneof [ int_bound 200; int_bound 100_000; map (fun x -> x land max_int) int ])

let wide_string_gen =
  QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (oneof [ int_bound 8; int_bound 400 ]))

let wide_query_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> Serve.Engine.Output_label v) wide_int_gen;
        map2 (fun v e -> Serve.Engine.Edge_member (v, e)) wide_int_gen wide_int_gen;
        map (fun v -> Serve.Engine.Advice_bits v) wide_int_gen;
      ])

let wide_request_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Net.Protocol.Ping);
        (1, return Net.Protocol.Stats);
        (3, map (fun q -> Net.Protocol.Query q) wide_query_gen);
        ( 3,
          map
            (fun qs -> Net.Protocol.Batch (Array.of_list qs))
            (list_size (oneof [ int_bound 4; int_bound 300 ]) wide_query_gen) );
      ])

let wide_answer_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Serve.Engine.Label s) wide_string_gen;
        map (fun b -> Serve.Engine.Member b) bool;
        map (fun s -> Serve.Engine.Bits s) wide_string_gen;
      ])

let wide_response_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return Net.Protocol.Pong);
        ( 2,
          map
            (fun kvs -> Net.Protocol.Stats_reply kvs)
            (list_size (oneof [ int_bound 4; int_bound 60 ]) (pair wide_string_gen wide_int_gen)) );
        (3, map (fun a -> Net.Protocol.Answer a) wide_answer_gen);
        ( 3,
          map
            (fun az -> Net.Protocol.Answers (Array.of_list az))
            (list_size (oneof [ int_bound 4; int_bound 300 ]) wide_answer_gen) );
        ( 2,
          map2
            (fun c m -> Net.Protocol.Error (c, m))
            (oneofl all_error_codes) wide_string_gen );
      ])

let request_matches_reference =
  QCheck.Test.make ~count:500 ~name:"request frame = staged encoder"
    (QCheck.make ~print:(fun r -> Reference.request_to_string r |> String.escaped) wide_request_gen)
    (fun rq -> Net.Protocol.request_to_string rq = Reference.request_to_string rq)

let response_matches_reference =
  QCheck.Test.make ~count:500 ~name:"response frame = staged encoder"
    (QCheck.make ~print:(fun r -> Reference.response_to_string r |> String.escaped) wide_response_gen)
    (fun rs -> Net.Protocol.response_to_string rs = Reference.response_to_string rs)

(* Every request and response shape, at the edges the generators reach
   only by chance: empty batches, answer arrays and stats replies, every
   error code, the largest identifiers, payloads whose length needs
   three varint bytes. *)
let every_shape_matches_reference () =
  let big = max_int in
  let long = String.init 20_000 (fun i -> Char.chr (i land 0xFF)) in
  let requests =
    Net.Protocol.
      [
        Ping; Stats;
        Query (Serve.Engine.Output_label 0); Query (Serve.Engine.Output_label 127);
        Query (Serve.Engine.Output_label 128); Query (Serve.Engine.Output_label big);
        Query (Serve.Engine.Edge_member (0, 0)); Query (Serve.Engine.Edge_member (big, 300));
        Query (Serve.Engine.Advice_bits 16384);
        Batch [||]; Batch [| Serve.Engine.Advice_bits 1 |];
        Batch (Array.init 5000 (fun i ->
                   match i mod 3 with
                   | 0 -> Serve.Engine.Output_label (i * 7919)
                   | 1 -> Serve.Engine.Edge_member (i, big - i)
                   | _ -> Serve.Engine.Advice_bits i));
      ]
  in
  let responses =
    Net.Protocol.
      [
        Pong; Stats_reply []; Stats_reply [ ("", 0); ("serve.queries", big) ];
        Stats_reply (List.init 200 (fun i -> (Printf.sprintf "metric.%d" i, i * i)));
        Answer (Serve.Engine.Label ""); Answer (Serve.Engine.Label "0110");
        Answer (Serve.Engine.Label long); Answer (Serve.Engine.Member true);
        Answer (Serve.Engine.Member false); Answer (Serve.Engine.Bits "");
        Answer (Serve.Engine.Bits (String.sub long 0 200));
        Answers [||]; Answers [| Serve.Engine.Member false |];
        Answers [| Serve.Engine.Label long; Serve.Engine.Bits "1"; Serve.Engine.Member true |];
      ]
    @ List.map (fun c -> Net.Protocol.Error (c, "diagnostic")) all_error_codes
    @ [ Net.Protocol.Error (Net.Protocol.Rejected, ""); Net.Protocol.Error (Net.Protocol.Bad_request, long) ]
  in
  List.iter
    (fun rq ->
      Alcotest.(check string) "request_to_string" (Reference.request_to_string rq)
        (Net.Protocol.request_to_string rq))
    requests;
  List.iter
    (fun rs ->
      Alcotest.(check string) "response_to_string" (Reference.response_to_string rs)
        (Net.Protocol.response_to_string rs))
    responses;
  (* A negative identifier is refused as before, not encoded. *)
  match Net.Protocol.request_to_string (Net.Protocol.Query (Serve.Engine.Output_label (-1))) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a negative node id was encoded"

(* Every code survives the wire, and a code byte outside 1..8 is an
   unknown code: a malformed payload, answered and skipped. *)
let error_code_table () =
  List.iteri
    (fun i c ->
      match parse_full_response (Net.Protocol.response_to_string (Net.Protocol.Error (c, "m"))) with
      | Net.Protocol.Done (Net.Protocol.Error (c', "m"), _) when c' = c -> ()
      | _ -> Alcotest.failf "code %d does not survive the wire" (i + 1))
    all_error_codes;
  List.iter
    (fun byte ->
      let w = Store.Codec.writer () in
      Reference.frame w ~tag:Reference.tag_error (String.make 1 (Char.chr byte) ^ "\001m");
      let s = Store.Codec.contents w in
      match parse_full_response s with
      | Net.Protocol.Fail { code = Net.Protocol.Bad_request; message; consumed }
        when message = Printf.sprintf "unknown error code %d" byte && consumed = String.length s ->
          ()
      | _ -> Alcotest.failf "code byte %d was not refused as an unknown code" byte)
    [ 0; 9 ]

(* A fixed set of frames covering every tag in both directions, for the
   exhaustive (every prefix, every byte) corruption sweeps. *)
let sample_requests =
  Net.Protocol.
    [
      Ping;
      Stats;
      Query (Serve.Engine.Output_label 3);
      Query (Serve.Engine.Edge_member (5, 9));
      Query (Serve.Engine.Advice_bits 0);
      Batch
        [|
          Serve.Engine.Output_label 1; Serve.Engine.Edge_member (2, 4);
          Serve.Engine.Advice_bits 7;
        |];
      Batch [||];
    ]

let sample_responses =
  Net.Protocol.
    [
      Pong;
      Stats_reply [ ("net.requests", 12); ("serve.degraded", 0) ];
      Answer (Serve.Engine.Label "0110");
      Answer (Serve.Engine.Member true);
      Answer (Serve.Engine.Bits "01");
      Answers [| Serve.Engine.Label ""; Serve.Engine.Member false |];
      Error (Bad_request, "edge 9 out of range");
    ]

let request_frames = List.map Net.Protocol.request_to_string sample_requests
let response_frames = List.map Net.Protocol.response_to_string sample_responses

(* Every strict prefix of a valid frame parses as Need — truncation is
   always "wait for more bytes", never an error and never a crash. *)
let prefix_truncation parse frames () =
  List.iter
    (fun s ->
      let b = Bytes.of_string s in
      for len = 0 to String.length s - 1 do
        match parse b ~pos:0 ~len with
        | Net.Protocol.Need more ->
            check
              (Printf.sprintf "Need is a positive lower bound at len %d" len)
              true
              (more > 0 && len + more <= String.length s)
        | Net.Protocol.Done _ ->
            Alcotest.failf "prefix of length %d parsed as a whole frame" len
        | Net.Protocol.Fail { message; _ } ->
            Alcotest.failf "prefix of length %d rejected: %s" len message
      done)
    frames

(* Flipping any single byte of a valid frame must never yield a parsed
   message: the whole-frame CRC catches every <=32-bit burst, so the
   outcome is an explicit Fail (answered with an error frame) or a Need
   (a grown length announcement — resolved to a clean close at EOF by
   the Conn test below), and never an exception. *)
let byte_flip_never_parses parse frames () =
  List.iter
    (fun s ->
      let n = String.length s in
      List.iter
        (fun mask ->
          for i = 0 to n - 1 do
            let b = Bytes.of_string s in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
            match parse b ~pos:0 ~len:n with
            | Net.Protocol.Done _ ->
                Alcotest.failf "flip at byte %d (mask 0x%02x) still parsed" i mask
            | Net.Protocol.Need _ | Net.Protocol.Fail _ -> ()
          done)
        [ 0x01; 0x80; 0xFF ])
    frames

(* Requests parsed on the response side (and vice versa) are Bad_tag:
   the tag ranges are disjoint, so a stream plugged into the wrong
   parser fails loudly instead of misreading. *)
let direction_confusion () =
  List.iter
    (fun rq ->
      match parse_full_response (Net.Protocol.request_to_string rq) with
      | Net.Protocol.Fail { code = Net.Protocol.Bad_tag; _ } -> ()
      | _ -> Alcotest.fail "request frame accepted by the response parser")
    sample_requests;
  List.iter
    (fun rs ->
      match parse_full_request (Net.Protocol.response_to_string rs) with
      | Net.Protocol.Fail { code = Net.Protocol.Bad_tag; _ } -> ()
      | _ -> Alcotest.fail "response frame accepted by the request parser")
    sample_responses

(* A header alone (magic, version, the output-label tag, the payload
   length) announcing a frame of [total] bytes, for [total] near the
   cap: there the length varint takes three bytes. *)
let header_announcing total =
  let len = total - 3 - 3 - 4 in
  check_int "three-byte length varint" 3 (Store.Codec.varint_size len);
  let w = Store.Codec.writer () in
  List.iter (Store.Codec.u8 w) [ 0xC4; Net.Protocol.version; 0x10 ];
  Store.Codec.varint w len;
  Store.Codec.contents w

let oversized_rejected () =
  let parse s = Net.Protocol.parse_request (Bytes.of_string s) ~pos:0 ~len:(String.length s) in
  (match parse (header_announcing (Net.Protocol.max_frame + 1)) with
  | Net.Protocol.Fail { code = Net.Protocol.Too_large; _ } -> ()
  | _ -> Alcotest.fail "oversized frame was not rejected with too-large");
  match parse (header_announcing Net.Protocol.max_frame) with
  | Net.Protocol.Need _ -> ()
  | _ -> Alcotest.fail "a frame of exactly the cap was not awaited"

(* ------------------------------------------------------------------ *)
(* Conn state machine (no sockets) *)

let drain_frames conn =
  (* Flush the write queue in awkward chunk sizes and reparse the byte
     stream as responses — exactly what a client would see. *)
  let buf = Buffer.create 256 in
  let rec flush () =
    match Net.Conn.pending conn with
    | None -> ()
    | Some (chunk, off, len) ->
        let k = min 3 len in
        Buffer.add_subbytes buf chunk off k;
        Net.Conn.wrote conn k;
        flush ()
  in
  flush ();
  let s = Buffer.contents buf in
  let b = Bytes.of_string s in
  let rec parse pos acc =
    if pos >= String.length s then List.rev acc
    else
      match Net.Protocol.parse_response b ~pos ~len:(String.length s - pos) with
      | Net.Protocol.Done (rs, consumed) -> parse (pos + consumed) (rs :: acc)
      | Net.Protocol.Need _ -> Alcotest.fail "conn queued a truncated frame"
      | Net.Protocol.Fail { message; _ } ->
          Alcotest.failf "conn queued an unparseable frame: %s" message
  in
  parse 0 []

let feed_string ?on_error conn s dispatch =
  (* Byte-at-a-time: exercises the header/body resume path of the
     parser on every boundary. *)
  String.iter
    (fun c ->
      let b = Bytes.make 1 c in
      Net.Conn.feed ?on_error conn b 1 dispatch)
    s

let echo_dispatch calls rq =
  calls := rq :: !calls;
  match rq with
  | Net.Protocol.Ping -> Net.Protocol.Pong
  | Net.Protocol.Stats -> Net.Protocol.Stats_reply []
  | Net.Protocol.Query _ -> Net.Protocol.Answer (Serve.Engine.Member true)
  | Net.Protocol.Batch qs ->
      Net.Protocol.Answers (Array.map (fun _ -> Serve.Engine.Member false) qs)

let test_conn_pipelining () =
  let conn = Net.Conn.create () in
  let calls = ref [] in
  let reqs =
    Net.Protocol.
      [ Ping; Query (Serve.Engine.Output_label 2); Batch [| Serve.Engine.Advice_bits 1 |] ]
  in
  let stream = String.concat "" (List.map Net.Protocol.request_to_string reqs) in
  feed_string conn stream (echo_dispatch calls);
  check_int "all pipelined requests dispatched" 3 (List.length !calls);
  check "dispatch order is arrival order" true (List.rev !calls = reqs);
  check "still open" true (Net.Conn.state conn = Net.Conn.Open);
  (match drain_frames conn with
  | [ Net.Protocol.Pong; Net.Protocol.Answer _; Net.Protocol.Answers _ ] -> ()
  | _ -> Alcotest.fail "responses not queued in request order");
  (* EOF with everything flushed: ready to close. *)
  Net.Conn.feed conn (Bytes.create 0) 0 (echo_dispatch calls);
  check "finished after EOF + flush" true (Net.Conn.finished conn);
  Net.Conn.close conn;
  check "closed" true (Net.Conn.state conn = Net.Conn.Closed)

let test_conn_fuzz_flipped_frames () =
  (* Any single-byte flip of any request frame: the dispatch function is
     never reached, an explicit error frame (or a clean close at EOF)
     comes back, and nothing crashes or wedges. *)
  List.iter
    (fun rq ->
      let s = Net.Protocol.request_to_string rq in
      for i = 0 to String.length s - 1 do
        let conn = Net.Conn.create () in
        let calls = ref [] in
        let errors = ref [] in
        let on_error c = errors := c :: !errors in
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x20));
        Net.Conn.feed ~on_error conn b (Bytes.length b) (echo_dispatch calls);
        Net.Conn.feed ~on_error conn (Bytes.create 0) 0 (echo_dispatch calls);
        check_int
          (Printf.sprintf "no dispatch after flip at byte %d" i)
          0 (List.length !calls);
        let frames = drain_frames conn in
        check
          (Printf.sprintf "error frame or silent close after flip at byte %d" i)
          true
          (match frames with
          | [] -> !errors = []  (* grown length: Need until EOF, clean close *)
          | [ Net.Protocol.Error (code, _) ] ->
              Net.Protocol.error_is_fatal code && !errors = [ code ]
          | _ -> false);
        check
          (Printf.sprintf "connection wound down after flip at byte %d" i)
          true (Net.Conn.finished conn)
      done)
    sample_requests

let test_conn_garbage_then_eof () =
  let conn = Net.Conn.create () in
  let calls = ref [] in
  feed_string conn "GET / HTTP/1.1\r\n\r\n" (echo_dispatch calls);
  check_int "no dispatch on garbage" 0 (List.length !calls);
  check "fatal error drains the connection" true
    (Net.Conn.state conn = Net.Conn.Draining);
  (match drain_frames conn with
  | [ Net.Protocol.Error (Net.Protocol.Bad_magic, _) ] -> ()
  | _ -> Alcotest.fail "garbage was not answered with a bad-magic frame");
  check "finished once the error frame is flushed" true (Net.Conn.finished conn)

let test_conn_backpressure () =
  let conn = Net.Conn.create ~write_budget:64 () in
  let calls = ref [] in
  let big rq =
    ignore (echo_dispatch calls rq);
    Net.Protocol.Answer (Serve.Engine.Label (String.make 200 '1'))
  in
  check "reads wanted while under budget" true (Net.Conn.wants_read conn);
  let s = Net.Protocol.request_to_string (Net.Protocol.Query (Serve.Engine.Output_label 0)) in
  Net.Conn.feed conn (Bytes.of_string s) (String.length s) big;
  check "over budget: reading pauses" false (Net.Conn.wants_read conn);
  check "over budget: writing wanted" true (Net.Conn.wants_write conn);
  ignore (drain_frames conn);
  check "under budget again: reading resumes" true (Net.Conn.wants_read conn);
  check "queue empty after drain" true (Net.Conn.pending conn = None)

(* Whatever the conn queued, concatenated: the exact bytes a client reads. *)
let drain_bytes conn =
  let buf = Buffer.create 1024 in
  let rec flush () =
    match Net.Conn.pending conn with
    | None -> ()
    | Some (chunk, off, len) ->
        Buffer.add_subbytes buf chunk off len;
        Net.Conn.wrote conn len;
        flush ()
  in
  flush ();
  Buffer.contents buf

(* A dispatch whose answer names its request, so any reordering or
   duplication shows in the response bytes. *)
let naming_dispatch = function
  | Net.Protocol.Query (Serve.Engine.Output_label v) ->
      Net.Protocol.Answer (Serve.Engine.Label (string_of_int v))
  | Net.Protocol.Query (Serve.Engine.Advice_bits v) ->
      Net.Protocol.Answer (Serve.Engine.Bits (string_of_int v))
  | Net.Protocol.Ping -> Net.Protocol.Pong
  | _ -> Net.Protocol.Answer (Serve.Engine.Member false)

let expected_stream reqs =
  String.concat ""
    (List.map (fun rq -> Net.Protocol.response_to_string (naming_dispatch rq)) reqs)

let test_conn_many_frames_one_chunk () =
  let count = 12_000 in
  let reqs =
    List.init count (fun i ->
        if i mod 2 = 0 then Net.Protocol.Query (Serve.Engine.Output_label i)
        else Net.Protocol.Query (Serve.Engine.Advice_bits i))
  in
  let stream = String.concat "" (List.map Net.Protocol.request_to_string reqs) in
  let conn = Net.Conn.create ~write_budget:(64 * 1024 * 1024) () in
  let calls = ref 0 in
  let dispatch rq =
    incr calls;
    naming_dispatch rq
  in
  Net.Conn.feed conn (Bytes.of_string stream) (String.length stream) dispatch;
  check_int "every pipelined frame dispatched" count !calls;
  (* A burst of small answers leaves as one chunk. *)
  let one = Net.Protocol.response_to_string (naming_dispatch (List.hd reqs)) in
  (match Net.Conn.pending conn with
  | Some (_, 0, len) ->
      check "first chunk merges many answers" true (len > 100 * String.length one)
  | _ -> Alcotest.fail "no untouched chunk pending");
  check "responses in order, byte-identical" true
    (drain_bytes conn = expected_stream reqs);
  check "write queue drained" true (Net.Conn.pending conn = None)

(* The warm path's allocation budget, in the shape of the test above but
   answered by a real router: a 4-shard container of a periodic-subset
   cycle, every shard resident and its label column full.  Decoding a
   frame and encoding its answer allocate nothing; what is left is what
   [Conn.feed]'s dispatch is typed in — the decoded [Query] and its
   [Engine.query] (2 + 2 words, 2 + 3 for [Edge_member]) and the
   dispatcher's [Answer] (2 words) — plus one [Some (buf, pos, len)]
   (2 + 4 words) per [Conn.pending] that has bytes.  DESIGN.md names
   each. *)
let test_conn_warm_allocation () =
  let n = 600 in
  let g = Builders.cycle n in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if e mod 4 < 2 then Bitset.add x e) g;
  let snapshot, cert = Serve.Pack.edge_compression g x in
  let router =
    Serve.Router.create ~domains:1
      (Store.Shard.open_bytes
         (Store.Shard.build ~shards:4 ~halo:(max cert.Serve.Pack.radius 1) snapshot))
  in
  let qs = workload g 12_000 in
  let answers = Array.map (Serve.Router.query router) qs in
  check_int "every shard resident" 4 (Serve.Router.resident_shards router);
  let stream = String.concat "" (Array.to_list (Array.map (fun q -> Net.Protocol.request_to_string (Net.Protocol.Query q)) qs)) in
  let want =
    String.concat "" (Array.to_list (Array.map (fun a -> Net.Protocol.response_to_string (Net.Protocol.Answer a)) answers))
  in
  let input = Bytes.of_string stream in
  let out = Bytes.create (String.length want) in
  let conn = Net.Conn.create ~write_budget:(64 * 1024 * 1024) () in
  let dispatch = function
    | Net.Protocol.Query q -> Net.Protocol.Answer (Serve.Router.query router q)
    | _ -> Alcotest.fail "not a query"
  in
  let pass () =
    Net.Conn.feed conn input (Bytes.length input) dispatch;
    let got = ref 0 in
    let flushing = ref true in
    while !flushing do
      match Net.Conn.pending conn with
      | None -> flushing := false
      | Some (buf, pos, len) ->
          Bytes.blit buf pos out !got len;
          got := !got + len;
          Net.Conn.wrote conn len
    done;
    !got
  in
  (* The first pass grows both buffers; the second runs warm. *)
  check_int "first pass: every answer drained" (String.length want) (pass ());
  let clock () = Gc.minor_words () in
  let c0 = clock () in
  let c1 = clock () in
  let w0 = clock () in
  let got = pass () in
  let w1 = clock () in
  let words = int_of_float (w1 -. w0 -. (c1 -. c0)) in
  check_int "warm pass: every answer drained" (String.length want) got;
  check "drained stream = response_to_string of the router's answers" true
    (Bytes.to_string out = want);
  let named =
    Array.fold_left
      (fun acc q ->
        acc + 2 + 2 + match q with Serve.Engine.Edge_member _ -> 3 | _ -> 2)
      (2 + 4) qs
  in
  check_int "minor words: only the named allocations" named words

(* The cold path's major-heap budget, per node: open a packed v1 file of
   a random-subset cycle (the shape of perfbench's hot-skewed file),
   route it on one slot and answer one query, as a server's start
   does, in a fresh domain so the BFS scratch starts empty too.  Its
   graph is three 32-bit rows, 2.5 words a node on a cycle: the
   edge-endpoint row is derived only for an edge-indexed reader, and
   symmetry is checked without a cursor row.  The advice column is a
   word, the 16-bit label column a quarter and the 32-bit BFS mark half
   a word, and the file, read once, about 0.75: near 5 words a node
   (4.91 here). *)
let test_cold_path_words () =
  let n = 16_384 in
  let g = Builders.cycle n in
  let rng = Prng.create 1 in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let snapshot, _ = Serve.Pack.edge_compression ~sample:1024 g x in
  let path = Filename.temp_file "cold_path" ".ladv" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Store.Io.write_file path (Store.Snapshot.write snapshot);
  let words =
    Domain.join
      (Domain.spawn (fun () ->
           Gc.full_major ();
           (* Major words count the promoted ones too. *)
           let _, _, ma0 = Gc.counters () in
           let router = Serve.Router.create ~domains:1 (Store.Shard.open_file path) in
           ignore (Serve.Router.query router (Serve.Engine.Output_label 0));
           let _, _, ma1 = Gc.counters () in
           ma1 -. ma0))
  in
  let per_node = words /. float_of_int n in
  check (Printf.sprintf "%.2f major words a node, at most 5.5" per_node) true (per_node <= 5.5)

(* Valid queries never derive a served graph's edge-endpoint row: once
   the first answer has filled what a router keeps, serving every node
   of a v1 file with all three query kinds leaves the words reachable
   from the router where they were.  A non-incident [Edge_member], whose
   refusal names the edge's endpoints, derives the row, once. *)
let test_valid_queries_keep_three_rows () =
  let n = 2048 in
  let g = Builders.cycle n in
  let rng = Prng.create 3 in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let snapshot, _ = Serve.Pack.edge_compression ~sample:64 g x in
  let router =
    Serve.Router.create ~domains:1
      (Store.Shard.open_bytes (Store.Snapshot.write snapshot))
  in
  let query q = ignore (Serve.Router.query router q) in
  let words () = Obj.reachable_words (Obj.repr router) in
  query (Serve.Engine.Output_label 0);
  let first = words () in
  for v = 0 to n - 1 do
    query (Serve.Engine.Output_label v);
    query (Serve.Engine.Advice_bits v);
    Array.iter (fun e -> query (Serve.Engine.Edge_member (v, e))) (Graph.incident_edges g v)
  done;
  check_int "words after every valid query" first (words ());
  (* Edge 1 is {0, 2047}, node 0's second edge. *)
  let refused () =
    match Serve.Router.query router (Serve.Engine.Edge_member (5, 1)) with
    | exception Invalid_argument msg -> msg
    | _ -> Alcotest.fail "answered a non-incident Edge_member"
  in
  Alcotest.(check string) "names the endpoints"
    "Engine: Edge_member node 5 is not an endpoint of edge 1 (0-2047)" (refused ());
  let derived = words () in
  check "the refusal derived the row" true (derived > first);
  ignore (refused ());
  check_int "derived once" derived (words ())

let test_conn_every_split () =
  let reqs =
    Net.Protocol.
      [
        Query (Serve.Engine.Output_label 3);
        Ping;
        Query (Serve.Engine.Advice_bits 41);
        Query (Serve.Engine.Output_label 250);
      ]
  in
  let stream = String.concat "" (List.map Net.Protocol.request_to_string reqs) in
  let want = expected_stream reqs in
  for cut = 0 to String.length stream do
    let conn = Net.Conn.create () in
    let feed off len =
      Net.Conn.feed conn (Bytes.of_string (String.sub stream off len)) len
        naming_dispatch
    in
    if cut > 0 then feed 0 cut;
    if cut < String.length stream then feed cut (String.length stream - cut);
    check
      (Printf.sprintf "split at byte %d: in-order, byte-identical answers" cut)
      true
      (drain_bytes conn = want)
  done

(* ------------------------------------------------------------------ *)
(* Loopback integration *)

(* The server answers from a router over the snapshot file [bytes], as
   the CLI opens it: one shard, one slot per domain (default: per
   effective domain). *)
let with_server ?salvage ?domains ?memo bytes f =
  let config = { Net.Server.default_config with port = 0 } in
  let server =
    Net.Server.create ~config
      (Serve.Router.create ?salvage ?domains ?memo (Store.Shard.open_bytes bytes))
  in
  let d = Domain.spawn (fun () -> Net.Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Net.Server.shutdown server;
      Domain.join d)
    (fun () -> f server (Net.Server.port server))

let with_client port f =
  let c = Net.Client.connect ~port () in
  Fun.protect ~finally:(fun () -> Net.Client.close c) (fun () -> f c)

let test_loopback_pipelined () =
  let g, snapshot = make_packed 180 23 in
  (* A second, independent engine over the same snapshot is the ground
     truth: sharing one engine across domains would race its caches. *)
  let direct = Serve.Engine.create snapshot in
  with_server (Store.Snapshot.write snapshot) @@ fun _server port ->
  with_client port @@ fun c ->
  Net.Client.ping c;
  let qs = workload g 300 in
  (* Full pipeline: every request on the wire before the first read. *)
  Array.iter (fun q -> Net.Client.send c (Net.Protocol.Query q)) qs;
  Array.iter
    (fun q ->
      let expect = Serve.Engine.query direct q in
      match Net.Client.recv c with
      | Net.Protocol.Answer a ->
          check "pipelined answer is byte-identical to the direct engine" true
            (a = expect)
      | _ -> Alcotest.fail "query answered with a non-answer frame")
    qs;
  (* Batch path: positionally identical to the direct batch. *)
  let batch_qs = workload g 97 in
  let got = Net.Client.batch c batch_qs in
  let expect = Array.map (Serve.Engine.query direct) batch_qs in
  check "batch over TCP equals direct batch" true (got = expect);
  (* A rejected request answers with an error frame and leaves the
     connection usable. *)
  (match Net.Client.query c (Serve.Engine.Output_label 10_000_000) with
  | exception Net.Client.Server_error { code = Net.Protocol.Rejected; _ } -> ()
  | _ -> Alcotest.fail "out-of-range query was not rejected");
  Net.Client.ping c;
  let stats = Net.Client.stats c in
  let stat name =
    match List.assoc_opt name stats with
    | Some v -> v
    | None -> Alcotest.failf "stats frame is missing %s" name
  in
  check_int "healthy engine" 0 (stat "engine.degraded");
  check_int "no degraded serving" 0 (stat "serve.degraded");
  check_int "engine.n matches" (Graph.n g) (stat "engine.n");
  check "requests counted" true (stat "net.requests" > 300);
  check "errors counted" true (stat "net.errors" >= 1);
  check "bytes flowed" true (stat "net.bytes_in" > 0 && stat "net.bytes_out" > 0)

let test_loopback_raw_garbage () =
  let _, snapshot = make_packed 60 5 in
  with_server (Store.Snapshot.write snapshot) @@ fun _server port ->
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let junk = "definitely not a frame" in
  ignore (Unix.write_substring fd junk 0 (String.length junk));
  (* The server answers with an explicit bad-magic error frame, then
     closes — read to EOF and parse what came back. *)
  let buf = Buffer.create 128 in
  let chunk = Bytes.create 256 in
  let rec slurp () =
    match Unix.read fd chunk 0 256 with
    | 0 -> ()
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        slurp ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> slurp ()
  in
  slurp ();
  let s = Buffer.contents buf in
  match Net.Protocol.parse_response (Bytes.of_string s) ~pos:0 ~len:(String.length s) with
  | Net.Protocol.Done (Net.Protocol.Error (Net.Protocol.Bad_magic, _), _) -> ()
  | _ -> Alcotest.fail "garbage connection did not get a bad-magic error frame"

let test_loopback_two_clients () =
  let g, snapshot = make_packed 90 41 in
  let direct = Serve.Engine.create snapshot in
  with_server (Store.Snapshot.write snapshot) @@ fun _server port ->
  with_client port @@ fun c1 ->
  with_client port @@ fun c2 ->
  (* Interleaved pipelining on two connections: per-connection FIFO
     order holds independently. *)
  let q1 = workload g 40 in
  let q2 = Array.map (fun q -> q) (workload g 40) in
  Array.iteri
    (fun i q ->
      Net.Client.send c1 (Net.Protocol.Query q);
      Net.Client.send c2 (Net.Protocol.Query q2.(i)))
    q1;
  Array.iteri
    (fun i q ->
      let a1 =
        match Net.Client.recv c1 with
        | Net.Protocol.Answer a -> a
        | _ -> Alcotest.fail "c1: non-answer"
      in
      let a2 =
        match Net.Client.recv c2 with
        | Net.Protocol.Answer a -> a
        | _ -> Alcotest.fail "c2: non-answer"
      in
      check "c1 in order" true (a1 = Serve.Engine.query direct q);
      check "c2 in order" true (a2 = Serve.Engine.query direct q2.(i)))
    q1

(* ------------------------------------------------------------------ *)
(* Degraded serving over TCP *)

(* [snapshot] as a 4-shard container with one bit flipped in the middle
   of shard 1's frame, and that shard's manifest row. *)
let lost_shard_container snapshot =
  let radius = int_of_string (List.assoc "serve.radius" snapshot.Store.Snapshot.meta) in
  let container = Store.Shard.build ~shards:4 ~halo:(max radius 1) snapshot in
  let victim =
    (Store.Shard.manifest (Store.Shard.open_bytes container)).Store.Shard.m_shards.(1)
  in
  let b = Bytes.of_string container in
  let at = victim.Store.Shard.i_offset + (victim.Store.Shard.i_bytes / 2) in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
  (Bytes.to_string b, victim)

(* A container with a lost shard, served live under salvage: the
   surviving ranges answer exactly as a direct salvaged router does, the
   lost range gets Rejected frames, and the stats say degraded. *)
let test_loopback_salvage () =
  let g, snapshot = make_packed 120 17 in
  let damaged, victim = lost_shard_container snapshot in
  let lost v = v >= victim.Store.Shard.i_lo && v < victim.Store.Shard.i_hi in
  let direct = Serve.Router.create ~salvage:true (Store.Shard.open_bytes damaged) in
  with_server ~salvage:true damaged @@ fun server port ->
  with_client port @@ fun c ->
  (* One query at every node. *)
  let qs = workload g (Graph.n g) in
  check "the workload reaches the lost range" true
    (Array.exists (fun q -> lost (query_node q)) qs);
  Array.iter (fun q -> Net.Client.send c (Net.Protocol.Query q)) qs;
  Array.iter
    (fun q ->
      let expect =
        match Serve.Router.query direct q with
        | a -> Some a
        | exception Serve.Router.Shard_lost _ -> None
      in
      match (Net.Client.recv c, expect) with
      | Net.Protocol.Answer a, Some e ->
          check "survivors' answers match the direct salvaged router" true (a = e)
      | Net.Protocol.Error (Net.Protocol.Rejected, _), None ->
          check "only the lost range is rejected" true (lost (query_node q))
      | _ -> Alcotest.fail "the degraded server and the direct router disagree")
    qs;
  check "the direct router is degraded" true (Serve.Router.degraded direct);
  let stats = Net.Client.stats c in
  check_int "stats expose engine.degraded" 1 (List.assoc "engine.degraded" stats);
  check "stats count degraded serving" true (List.assoc "serve.degraded" stats > 0);
  (* The same facts through the server's own accessor. *)
  check_int "server stats agree" 1 (List.assoc "engine.degraded" (Net.Server.stats server))

(* One definition of a degraded answer: the stats frame's
   [serve.degraded] and the Obs counter count the same answers, every
   answer served while the router is degraded.  On a 4-shard container
   with one flipped shard-body byte, the first query loses the shard;
   single and batch frames then reach the surviving shards (answered,
   each degraded) and the lost one (rejected: a batch that touches it
   serves nothing).  A healthy file counts none. *)
let test_degraded_counts_agree () =
  let g, snapshot = make_packed 120 17 in
  let lost_shard, victim = lost_shard_container snapshot in
  let counter name =
    List.fold_left
      (fun acc e ->
        match e.Obs.Metrics.value with
        | Obs.Metrics.Counter_v { total; _ } when String.equal e.Obs.Metrics.name name ->
            acc + total
        | _ -> acc)
      0 (Obs.Metrics.snapshot ())
  in
  let lost v = v >= victim.Store.Shard.i_lo && v < victim.Store.Shard.i_hi in
  let label v = Serve.Engine.Output_label v in
  (* Serve [bytes] over loopback with metrics on: one query at the
     victim's interior, every node as a single query, one batch of the
     surviving nodes and one batch of every node.  Returns the stats
     frame's count, the Obs counts and the answers received. *)
  let serve bytes =
    Obs.Metrics.set_enabled true;
    Obs.Metrics.reset ();
    Fun.protect ~finally:(fun () -> Obs.Metrics.set_enabled false) @@ fun () ->
    let nodes = List.init (Graph.n g) Fun.id in
    let surviving = List.filter (fun v -> not (lost v)) nodes in
    let requests =
      (Net.Protocol.Query (label victim.Store.Shard.i_lo)
      :: List.map (fun v -> Net.Protocol.Query (label v)) nodes)
      @ List.map
          (fun vs -> Net.Protocol.Batch (Array.of_list (List.map label vs)))
          [ surviving; nodes ]
    in
    let answered = ref 0 in
    let stats =
      with_server ~salvage:true bytes @@ fun _server port ->
      with_client port @@ fun c ->
      List.iter (Net.Client.send c) requests;
      List.iter
        (fun _ ->
          match Net.Client.recv c with
          | Net.Protocol.Answer _ -> incr answered
          | Net.Protocol.Answers az -> answered := !answered + Array.length az
          | Net.Protocol.Error (Net.Protocol.Rejected, _) -> ()
          | _ -> Alcotest.fail "unexpected frame")
        requests;
      Net.Client.stats c
    in
    (List.assoc "serve.degraded" stats, counter "serve.degraded", !answered,
     counter "serve.queries")
  in
  let n = Graph.n g in
  let survivors = n - (victim.Store.Shard.i_hi - victim.Store.Shard.i_lo) in
  (* The lost shard: every answer is degraded. *)
  let frame, obs, answered, decoded = serve lost_shard in
  check_int "v2 lost: answers are the survivors, twice" (2 * survivors) answered;
  check_int "v2 lost: stats frame counts every answer" answered frame;
  check_int "v2 lost: Obs counts every answer" answered obs;
  (* The rejected batch frame ran no engine query. *)
  check_int "v2 lost: the engines answered only what was received" answered decoded;
  (* A healthy file: nothing degraded. *)
  let frame, obs, answered, _ = serve (Store.Snapshot.write snapshot) in
  check_int "healthy: every query answered" (1 + (2 * n) + survivors) answered;
  check_int "healthy: stats frame counts none" 0 frame;
  check_int "healthy: Obs counts none" 0 obs

(* Batch frames over a two-slot router: the server's batches run on the
   router's two pool domains (honored even on one core), and every
   answer matches a direct engine. *)
let test_loopback_two_domain_batches () =
  let g, snapshot = make_packed 150 29 in
  let direct = Serve.Engine.create snapshot in
  with_server ~domains:2 (Store.Snapshot.write snapshot) @@ fun _server port ->
  with_client port @@ fun c ->
  check_int "two slots" 2 (List.assoc "engine.shards" (Net.Client.stats c));
  List.iter
    (fun count ->
      let qs = workload g count in
      check
        (Printf.sprintf "%d-query batch over two pool domains = direct engine" count)
        true
        (Net.Client.batch c qs = Array.map (Serve.Engine.query direct) qs))
    [ 2; 150; 450 ]

(* A bad config is rejected before any socket exists. *)
let test_server_rejects_config () =
  let _, snapshot = make_packed 20 1 in
  let router =
    Serve.Router.create (Store.Shard.open_bytes (Store.Snapshot.write snapshot))
  in
  List.iter
    (fun (what, config) ->
      match Net.Server.create ~config router with
      | exception Invalid_argument _ -> ()
      | server ->
          Net.Server.shutdown server;
          Alcotest.failf "Server.create accepted %s" what)
    [
      ("port = 70000", { Net.Server.default_config with port = 70000 });
      ("port = -5", { Net.Server.default_config with port = -5 });
    ]

(* The stats frame says how the served radius was certified: on every
   node, or on a sample only. *)
let test_stats_certification () =
  let g = Builders.cycle 200 in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if e mod 3 = 0 then Bitset.add x e) g;
  List.iter
    (fun (sample, want) ->
      let snapshot, _ = Serve.Pack.edge_compression ~sample g x in
      let server =
        Net.Server.create
          ~config:{ Net.Server.default_config with port = 0 }
          (Serve.Router.create (Store.Shard.open_bytes (Store.Snapshot.write snapshot)))
      in
      let got = List.assoc "engine.certified_all" (Net.Server.stats server) in
      Net.Server.shutdown server;
      check_int (Printf.sprintf "engine.certified_all with ~sample:%d" sample) want got)
    [ (64, 0); (0, 1) ]

(* The stats frame of a server with a class table carries the table's
   size.  A random-subset cycle, whose balls are all distinct classes,
   ships no table, so a --memo server on it serves memo-less and its
   frame has no memo keys; a periodic cycle's server holds exactly the
   shipped classes after a sweep of every node. *)
let test_stats_memo () =
  let sweep_stats ?memo snapshot =
    let n = Graph.n snapshot.Store.Snapshot.graph in
    with_server ?memo (Store.Snapshot.write snapshot) @@ fun _server port ->
    with_client port @@ fun c ->
    for v = 0 to n - 1 do
      Net.Client.send c (Net.Protocol.Query (Serve.Engine.Output_label v))
    done;
    for _ = 1 to n do
      match Net.Client.recv c with
      | Net.Protocol.Answer _ -> ()
      | _ -> Alcotest.fail "sweep query answered with a non-answer frame"
    done;
    Net.Client.stats c
  in
  let g = Builders.cycle 400 in
  let periodic =
    let x = Bitset.create (Graph.m g) in
    Graph.iter_edges (fun e _ -> if e mod 4 < 2 then Bitset.add x e) g;
    fst (Serve.Pack.edge_compression g x)
  in
  let _, random = make_packed 400 31 in
  let stat stats name =
    match List.assoc_opt name stats with
    | Some v -> v
    | None -> Alcotest.failf "stats frame is missing %s" name
  in
  let memo_less stats =
    List.for_all (fun (k, _) -> not (String.starts_with ~prefix:"serve.memo." k)) stats
  in
  check "random subset ships no table: a --memo frame has no memo keys" true
    (memo_less (sweep_stats ~memo:(Serve.Memo.create ~capacity:4096) random));
  let stats = sweep_stats ~memo:(Serve.Memo.create ~capacity:4096) periodic in
  let classes, _ =
    Serve.Memo.read_table (List.assoc Serve.Memo.table_key periodic.Store.Snapshot.meta)
  in
  check_int "periodic: the shipped classes" classes (stat stats "serve.memo.entries");
  check "periodic: their key bytes" true (stat stats "serve.memo.bytes" > 0);
  check_int "periodic: two memo keys, entries and bytes" 2
    (List.length (List.filter (fun (k, _) -> String.starts_with ~prefix:"serve.memo." k) stats));
  check "memo-less frame has no memo keys" true (memo_less (sweep_stats random))

let test_loopback_shutdown_drains () =
  let g, snapshot = make_packed 80 3 in
  let config = { Net.Server.default_config with port = 0 } in
  let server =
    Net.Server.create ~config
      (Serve.Router.create (Store.Shard.open_bytes (Store.Snapshot.write snapshot)))
  in
  let d = Domain.spawn (fun () -> Net.Server.run server) in
  let c = Net.Client.connect ~port:(Net.Server.port server) () in
  let qs = workload g 25 in
  Array.iter (fun q -> Net.Client.send c (Net.Protocol.Query q)) qs;
  (* Collect every answer, then shut down: requests received before the
     shutdown byte are answered, and run returns. *)
  Array.iter (fun _ -> ignore (Net.Client.recv c)) qs;
  Net.Server.shutdown server;
  Net.Server.shutdown server (* idempotent *);
  Domain.join d;
  (* The goodbye frame is on the wire; the socket then reaches EOF. *)
  (Net.Client.send c Net.Protocol.Ping;
   match Net.Client.recv c with
   | Net.Protocol.Error (Net.Protocol.Shutting_down, _) -> ()
   | exception Net.Client.Protocol_error _ -> ()
   | _ -> Alcotest.fail "draining server did not say shutting-down");
  Net.Client.close c

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "net"
    [
      ( "protocol",
        [
          QCheck_alcotest.to_alcotest request_roundtrip;
          QCheck_alcotest.to_alcotest response_roundtrip;
          QCheck_alcotest.to_alcotest request_matches_reference;
          QCheck_alcotest.to_alcotest response_matches_reference;
          Alcotest.test_case "every frame shape = staged encoder" `Quick
            every_shape_matches_reference;
          Alcotest.test_case "error code table" `Quick error_code_table;
          Alcotest.test_case "every-prefix truncation (requests)" `Quick
            (prefix_truncation (fun b ~pos ~len -> Net.Protocol.parse_request b ~pos ~len) request_frames);
          Alcotest.test_case "every-prefix truncation (responses)" `Quick
            (prefix_truncation (fun b ~pos ~len -> Net.Protocol.parse_response b ~pos ~len) response_frames);
          Alcotest.test_case "every-byte-flip never parses (requests)" `Quick
            (byte_flip_never_parses (fun b ~pos ~len -> Net.Protocol.parse_request b ~pos ~len) request_frames);
          Alcotest.test_case "every-byte-flip never parses (responses)" `Quick
            (byte_flip_never_parses (fun b ~pos ~len -> Net.Protocol.parse_response b ~pos ~len) response_frames);
          Alcotest.test_case "direction confusion is bad-tag" `Quick
            direction_confusion;
          Alcotest.test_case "oversized frames rejected" `Quick oversized_rejected;
        ] );
      ( "conn",
        [
          Alcotest.test_case "pipelined dispatch, ordered responses" `Quick
            test_conn_pipelining;
          Alcotest.test_case "byte-flip fuzz: no dispatch, clean error" `Slow
            test_conn_fuzz_flipped_frames;
          Alcotest.test_case "garbage answered with bad-magic" `Quick
            test_conn_garbage_then_eof;
          Alcotest.test_case "write budget throttles reading" `Quick
            test_conn_backpressure;
          Alcotest.test_case "12k pipelined frames in one chunk" `Quick
            test_conn_many_frames_one_chunk;
          Alcotest.test_case "warm path allocates only named values" `Quick
            test_conn_warm_allocation;
          Alcotest.test_case "cold path: five and a half words a node" `Quick
            test_cold_path_words;
          Alcotest.test_case "valid queries keep a graph's three rows" `Quick
            test_valid_queries_keep_three_rows;
          Alcotest.test_case "stream split at every byte" `Quick
            test_conn_every_split;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "pipelined queries match the direct engine" `Slow
            test_loopback_pipelined;
          Alcotest.test_case "raw garbage gets an error frame" `Quick
            test_loopback_raw_garbage;
          Alcotest.test_case "two clients, independent FIFO order" `Slow
            test_loopback_two_clients;
          Alcotest.test_case "salvaged snapshot served live" `Slow
            test_loopback_salvage;
          Alcotest.test_case "graceful shutdown drains in-flight" `Quick
            test_loopback_shutdown_drains;
          Alcotest.test_case "degraded answers counted once" `Quick
            test_degraded_counts_agree;
          Alcotest.test_case "batch frames over two pool domains" `Quick
            test_loopback_two_domain_batches;
          Alcotest.test_case "bad config rejected before the socket" `Quick
            test_server_rejects_config;
          Alcotest.test_case "stats say how the radius was certified" `Quick
            test_stats_certification;
          Alcotest.test_case "stats show the memo" `Quick test_stats_memo;
        ] );
    ]
