module Codec = Store.Codec
module Crc32 = Store.Crc32
module Engine = Serve.Engine

let version = 1
let magic = 0xC4
let max_frame = 1 lsl 20

type request =
  | Ping
  | Stats
  | Query of Engine.query
  | Batch of Engine.query array

type error_code =
  | Bad_magic
  | Bad_version
  | Bad_frame
  | Bad_tag
  | Bad_request
  | Rejected
  | Too_large
  | Shutting_down

type response =
  | Pong
  | Stats_reply of (string * int) list
  | Answer of Engine.answer
  | Answers of Engine.answer array
  | Error of error_code * string

let error_code_to_int = function
  | Bad_magic -> 1
  | Bad_version -> 2
  | Bad_frame -> 3
  | Bad_tag -> 4
  | Bad_request -> 5
  | Rejected -> 6
  | Too_large -> 7
  | Shutting_down -> 8

let error_code_of_int = function
  | 1 -> Some Bad_magic
  | 2 -> Some Bad_version
  | 3 -> Some Bad_frame
  | 4 -> Some Bad_tag
  | 5 -> Some Bad_request
  | 6 -> Some Rejected
  | 7 -> Some Too_large
  | 8 -> Some Shutting_down
  | _ -> None

(* Frame-level damage means the stream can no longer be trusted to be in
   sync (or the peer speaks another grammar entirely); request-level
   damage leaves the framing intact, so the conversation continues. *)
let error_is_fatal = function
  | Bad_magic | Bad_version | Bad_frame | Bad_tag | Too_large | Shutting_down ->
      true
  | Bad_request | Rejected -> false

(* Tag table.  Requests and responses draw from disjoint ranges so a
   frame echoed back by a confused peer is caught as Bad_tag instead of
   being misread. *)
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

(* ------------------------------------------------------------------ *)
(* Encoding, in place *)

(* Every frame is written once, where it will be sent from: the payload
   size is computed first, then the header, the payload and the CRC —
   which covers everything from the magic byte through the last payload
   byte — go straight into place with {!Store.Codec}'s position
   writers.  [response_to_string] and [request_to_string] are the same
   writers aimed at a buffer of the frame's exact size. *)

let frame_size len = 3 + Codec.varint_size len + len + 4

(* Header at [pos] for a [len]-byte payload; returns where the payload
   starts. *)
let put_header b pos ~tag len =
  Codec.put_varint b (Codec.put_u8 b (Codec.put_u8 b (Codec.put_u8 b pos magic) version) tag) len

(* The CRC over [start .. pos-1], after the payload ending at [pos]. *)
let seal b ~start pos = Codec.put_u32 b pos (Crc32.of_subbytes b ~pos:start ~len:(pos - start))

let query_tag = function
  | Engine.Output_label _ -> tag_output_label
  | Engine.Edge_member _ -> tag_edge_member
  | Engine.Advice_bits _ -> tag_advice_bits

let query_size = function
  | Engine.Output_label v | Engine.Advice_bits v -> Codec.varint_size v
  | Engine.Edge_member (v, e) -> Codec.varint_size v + Codec.varint_size e

let put_query b pos = function
  | Engine.Output_label v | Engine.Advice_bits v -> Codec.put_varint b pos v
  | Engine.Edge_member (v, e) -> Codec.put_varint b (Codec.put_varint b pos v) e

let request_payload = function
  | Ping | Stats -> 0
  | Query q -> query_size q
  | Batch qs ->
      Array.fold_left
        (fun acc q -> acc + 1 + query_size q)
        (Codec.varint_size (Array.length qs))
        qs

let put_request b start rq =
  let len = request_payload rq in
  let pos =
    match rq with
    | Ping -> put_header b start ~tag:tag_ping len
    | Stats -> put_header b start ~tag:tag_stats len
    | Query q -> put_query b (put_header b start ~tag:(query_tag q) len) q
    | Batch qs ->
        let pos = ref (Codec.put_varint b (put_header b start ~tag:tag_batch len) (Array.length qs)) in
        Array.iter (fun q -> pos := put_query b (Codec.put_u8 b !pos (query_tag q)) q) qs;
        !pos
  in
  seal b ~start pos

let answer_tag = function
  | Engine.Label _ -> tag_label
  | Engine.Member _ -> tag_member
  | Engine.Bits _ -> tag_bits

let answer_size = function
  | Engine.Label s | Engine.Bits s -> Codec.str_size s
  | Engine.Member _ -> 1

let put_answer b pos = function
  | Engine.Label s | Engine.Bits s -> Codec.put_str b pos s
  | Engine.Member m -> Codec.put_u8 b pos (if m then 1 else 0)

let response_payload = function
  | Pong -> 0
  | Stats_reply kvs ->
      List.fold_left
        (fun acc (k, v) -> acc + Codec.str_size k + Codec.varint_size v)
        (Codec.varint_size (List.length kvs))
        kvs
  | Answer a -> answer_size a
  | Answers az ->
      Array.fold_left
        (fun acc a -> acc + 1 + answer_size a)
        (Codec.varint_size (Array.length az))
        az
  | Error (_, msg) -> 1 + Codec.str_size msg

let response_size rs = frame_size (response_payload rs)

let put_response b start rs =
  let len = response_payload rs in
  let pos =
    match rs with
    | Pong -> put_header b start ~tag:tag_pong len
    | Answer a -> put_answer b (put_header b start ~tag:(answer_tag a) len) a
    | Stats_reply kvs ->
        let pos = ref (Codec.put_varint b (put_header b start ~tag:tag_stats_reply len) (List.length kvs)) in
        List.iter (fun (k, v) -> pos := Codec.put_varint b (Codec.put_str b !pos k) v) kvs;
        !pos
    | Answers az ->
        let pos = ref (Codec.put_varint b (put_header b start ~tag:tag_answers len) (Array.length az)) in
        Array.iter (fun a -> pos := put_answer b (Codec.put_u8 b !pos (answer_tag a)) a) az;
        !pos
    | Error (code, msg) ->
        Codec.put_str b (Codec.put_u8 b (put_header b start ~tag:tag_error len) (error_code_to_int code)) msg
  in
  seal b ~start pos

let to_string size put x =
  let b = Bytes.create size in
  ignore (put b 0 x);
  Bytes.unsafe_to_string b

let request_to_string rq = to_string (frame_size (request_payload rq)) put_request rq
let response_to_string rs = to_string (response_size rs) put_response rs

(* ------------------------------------------------------------------ *)
(* Decoding, in place *)

type 'a parse =
  | Need of int
  | Done of 'a * int
  | Fail of { code : error_code; message : string; consumed : int }

exception Refused of error_code * string

let refuse code fmt = Format.kasprintf (fun message -> raise (Refused (code, message))) fmt

(* Header scan and checksum on the raw byte window, allocation-free:
   garbage (wrong magic, alien version, absurd length) is rejected from
   the very first bytes, without waiting for a full frame.  The length
   varint is read here rather than by {!Codec.read_varint}, because a
   short one means "wait", not "corrupt". *)
let check_frame buf ~pos ~len =
  if len < 1 then -1
  else if Bytes.get_uint8 buf pos <> magic then
    refuse Bad_magic "frame starts with byte 0x%02x, expected magic 0x%02x"
      (Bytes.get_uint8 buf pos) magic
  else if len < 2 then -1
  else if Bytes.get_uint8 buf (pos + 1) <> version then
    refuse Bad_version "peer speaks protocol version %d; this side speaks %d"
      (Bytes.get_uint8 buf (pos + 1)) version
  else if len < 4 then -(4 - len)
  else begin
    (* length varint, starting at offset 3 *)
    let i = ref 3 and paylen = ref 0 and shift = ref 0 and header = ref 0 in
    while !header = 0 && !i < len do
      let byte = Bytes.get_uint8 buf (pos + !i) in
      let payload = byte land 0x7F in
      if !shift > 56 || (!shift = 56 && payload > 0x3F) then
        refuse Too_large "frame length varint overflows the int range";
      paylen := !paylen lor (payload lsl !shift);
      incr i;
      if byte land 0x80 <> 0 then shift := !shift + 7
      else if payload = 0 && !shift > 0 then refuse Bad_frame "non-minimal frame length varint"
      else header := !i
    done;
    if !header = 0 then -1
    else begin
      let total = !header + !paylen + 4 in
      if total > max_frame then
        refuse Too_large "announced frame of %d bytes exceeds the %d-byte cap" total max_frame
      else if len < total then -(total - len)
      else begin
        let crc = pos + total - 4 in
        let stored =
          Bytes.get_uint8 buf crc
          lor (Bytes.get_uint8 buf (crc + 1) lsl 8)
          lor (Bytes.get_uint8 buf (crc + 2) lsl 16)
          lor (Bytes.get_uint8 buf (crc + 3) lsl 24)
        in
        let actual = Crc32.of_subbytes buf ~pos ~len:(total - 4) in
        if stored <> actual then
          refuse Bad_frame "frame checksum mismatch: stored %08x, computed %08x over %d byte(s)"
            stored actual (total - 4);
        total
      end
    end
  end

(* Payload fields are read at their positions with {!Store.Codec}'s
   position readers: [base] is the frame's first byte, [limit] one past
   the payload, so every diagnostic counts offsets from the frame's
   start, word for word as a reader over a copy of the frame words
   them.  Varints are canonical, so the one at [p] spans
   [Codec.varint_size] of its value: each field's position follows from
   the values before it, and no cursor is kept. *)

let corrupt fmt = Format.kasprintf (fun s -> raise (Codec.Corrupt s)) fmt

(* A count-prefixed payload: each item needs at least two payload bytes,
   so a count beyond that bound is a lie about data that cannot be
   present — reject before allocating for it. *)
let read_count buf ~base ~limit p ~reject =
  let count = Codec.varint_at buf ~base ~limit p in
  let left = limit - (p + Codec.varint_size count) in
  if count > (left / 2) + 1 then corrupt reject count left;
  count

(* The tagged items after a count at [p]: [read] decodes one item and
   [size] re-measures it.  Returns the items and where they end. *)
let read_items buf ~base ~limit p ~count ~read ~size =
  let pos = ref (p + Codec.varint_size count) in
  let items =
    Array.init count (fun _ ->
        let item = read buf ~base ~limit ~tag:(Codec.u8_at buf ~base ~limit !pos) (!pos + 1) in
        pos := !pos + 1 + size item;
        item)
  in
  (items, !pos)

let read_query buf ~base ~limit ~tag p =
  if tag = tag_output_label then Engine.Output_label (Codec.varint_at buf ~base ~limit p)
  else if tag = tag_edge_member then begin
    let v = Codec.varint_at buf ~base ~limit p in
    Engine.Edge_member (v, Codec.varint_at buf ~base ~limit (p + Codec.varint_size v))
  end
  else if tag = tag_advice_bits then Engine.Advice_bits (Codec.varint_at buf ~base ~limit p)
  else corrupt "unknown query tag 0x%02x" tag

let read_answer buf ~base ~limit ~tag p =
  if tag = tag_label then Engine.Label (Codec.str_at buf ~base ~limit p)
  else if tag = tag_member then begin
    match Codec.u8_at buf ~base ~limit p with
    | 0 -> Engine.Member false
    | 1 -> Engine.Member true
    | b -> corrupt "member answer byte %d is not 0/1" b
  end
  else if tag = tag_bits then Engine.Bits (Codec.str_at buf ~base ~limit p)
  else corrupt "unknown answer tag 0x%02x" tag

let request_at buf ~base ~limit ~tag p =
  let fin q stop =
    Codec.expect_end_at ~base ~limit stop ~what:"request payload";
    q
  in
  if tag = tag_ping then fin Ping p
  else if tag = tag_stats then fin Stats p
  else if tag = tag_output_label || tag = tag_edge_member || tag = tag_advice_bits then begin
    let q = read_query buf ~base ~limit ~tag p in
    fin (Query q) (p + query_size q)
  end
  else if tag = tag_batch then begin
    let count =
      read_count buf ~base ~limit p
        ~reject:"batch announces %d queries but only %d payload byte(s) remain"
    in
    let qs, stop = read_items buf ~base ~limit p ~count ~read:read_query ~size:query_size in
    fin (Batch qs) stop
  end
  else refuse Bad_tag "unknown frame tag 0x%02x for this direction" tag

let response_at buf ~base ~limit ~tag p =
  let fin rs stop =
    Codec.expect_end_at ~base ~limit stop ~what:"response payload";
    rs
  in
  if tag = tag_pong then fin Pong p
  else if tag = tag_stats_reply then begin
    let count =
      read_count buf ~base ~limit p ~reject:"stats reply announces %d entries in %d byte(s)"
    in
    let pos = ref (p + Codec.varint_size count) in
    let kvs =
      List.init count (fun _ ->
          let k = Codec.str_at buf ~base ~limit !pos in
          pos := !pos + Codec.str_size k;
          let v = Codec.varint_at buf ~base ~limit !pos in
          pos := !pos + Codec.varint_size v;
          (k, v))
    in
    fin (Stats_reply kvs) !pos
  end
  else if tag = tag_label || tag = tag_member || tag = tag_bits then begin
    let a = read_answer buf ~base ~limit ~tag p in
    fin (Answer a) (p + answer_size a)
  end
  else if tag = tag_answers then begin
    let count =
      read_count buf ~base ~limit p ~reject:"answers frame announces %d answers in %d byte(s)"
    in
    let az, stop = read_items buf ~base ~limit p ~count ~read:read_answer ~size:answer_size in
    fin (Answers az) stop
  end
  else if tag = tag_error then begin
    let code_byte = Codec.u8_at buf ~base ~limit p in
    let msg = Codec.str_at buf ~base ~limit (p + 1) in
    match error_code_of_int code_byte with
    | Some code -> fin (Error (code, msg) : response) (p + 1 + Codec.str_size msg)
    | None -> corrupt "unknown error code %d" code_byte
  end
  else refuse Bad_tag "unknown frame tag 0x%02x for this direction" tag

(* Decode the checked frame [buf.[pos .. pos+len-1]] where it sits: the
   payload starts after the length varint, the tag picks the fields.  A
   payload fault is [Bad_request] (the framing held, so the
   conversation goes on); an unknown tag is [Bad_tag]. *)
let decode_at at buf ~pos ~len =
  let p = ref (pos + 3) in
  while Bytes.get_uint8 buf !p land 0x80 <> 0 do
    incr p
  done;
  match at buf ~base:pos ~limit:(pos + len - 4) ~tag:(Bytes.get_uint8 buf (pos + 2)) (!p + 1) with
  | v -> v
  | exception (Codec.Corrupt msg | Invalid_argument msg) -> raise (Refused (Bad_request, msg))

let decode_request buf ~pos ~len = decode_at request_at buf ~pos ~len

(* [Need], [Done] and [Fail] around the in-place checker and decoder. *)
let parse decode buf ~pos ~len =
  match check_frame buf ~pos ~len with
  | exception Refused (code, message) -> Fail { code; message; consumed = 0 }
  | size when size < 0 -> Need (-size)
  | size -> (
      match decode buf ~pos ~len:size with
      | v -> Done (v, size)
      | exception Refused (code, message) ->
          Fail { code; message; consumed = (if error_is_fatal code then 0 else size) })

let parse_request buf ~pos ~len = parse decode_request buf ~pos ~len
let parse_response buf ~pos ~len = parse (decode_at response_at) buf ~pos ~len
