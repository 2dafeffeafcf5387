module Codec = Store.Codec
module Crc32 = Store.Crc32
module Engine = Serve.Engine

let version = 1
let magic = 0xC4
let default_max_frame = 1 lsl 20

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

let error_code_name = function
  | Bad_magic -> "bad-magic"
  | Bad_version -> "bad-version"
  | Bad_frame -> "bad-frame"
  | Bad_tag -> "bad-tag"
  | Bad_request -> "bad-request"
  | Rejected -> "rejected"
  | Too_large -> "too-large"
  | Shutting_down -> "shutting-down"

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
(* Encoding *)

(* Every frame is written once, into one buffer of its exact size: the
   payload size is computed first, then the header, the payload and the
   CRC — which covers everything from the magic byte through the last
   payload byte — go straight into place with {!Store.Codec}'s position
   writers. *)

(* A frame buffer for a [len]-byte payload, header written; the payload
   starts at [payload_pos b len]. *)
let frame_buffer ~tag len =
  let b = Bytes.create (3 + Codec.varint_size len + len + 4) in
  let pos = Codec.put_u8 b (Codec.put_u8 b (Codec.put_u8 b 0 magic) version) tag in
  ignore (Codec.put_varint b pos len);
  b

let payload_pos b len = Bytes.length b - len - 4

let seal b =
  let body = Bytes.length b - 4 in
  ignore (Codec.put_u32 b body (Crc32.of_subbytes b ~pos:0 ~len:body));
  Bytes.unsafe_to_string b

(* Payload-free frames never change: built once. *)
let empty_frame tag = seal (frame_buffer ~tag 0)
let ping_frame = empty_frame tag_ping
let stats_frame = empty_frame tag_stats
let pong_frame = empty_frame tag_pong

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

let request_to_string = function
  | Ping -> ping_frame
  | Stats -> stats_frame
  | Query q ->
      let len = query_size q in
      let b = frame_buffer ~tag:(query_tag q) len in
      ignore (put_query b (payload_pos b len) q);
      seal b
  | Batch qs ->
      let len =
        Array.fold_left
          (fun acc q -> acc + 1 + query_size q)
          (Codec.varint_size (Array.length qs))
          qs
      in
      let b = frame_buffer ~tag:tag_batch len in
      let pos = ref (Codec.put_varint b (payload_pos b len) (Array.length qs)) in
      Array.iter (fun q -> pos := put_query b (Codec.put_u8 b !pos (query_tag q)) q) qs;
      seal b

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

let response_to_string = function
  | Pong -> pong_frame
  | Stats_reply kvs ->
      let len =
        List.fold_left
          (fun acc (k, v) -> acc + Codec.str_size k + Codec.varint_size v)
          (Codec.varint_size (List.length kvs))
          kvs
      in
      let b = frame_buffer ~tag:tag_stats_reply len in
      let pos = ref (Codec.put_varint b (payload_pos b len) (List.length kvs)) in
      List.iter (fun (k, v) -> pos := Codec.put_varint b (Codec.put_str b !pos k) v) kvs;
      seal b
  | Answer a ->
      let len = answer_size a in
      let b = frame_buffer ~tag:(answer_tag a) len in
      ignore (put_answer b (payload_pos b len) a);
      seal b
  | Answers az ->
      let len =
        Array.fold_left
          (fun acc a -> acc + 1 + answer_size a)
          (Codec.varint_size (Array.length az))
          az
      in
      let b = frame_buffer ~tag:tag_answers len in
      let pos = ref (Codec.put_varint b (payload_pos b len) (Array.length az)) in
      Array.iter (fun a -> pos := put_answer b (Codec.put_u8 b !pos (answer_tag a)) a) az;
      seal b
  | Error (code, msg) ->
      let len = 1 + Codec.str_size msg in
      let b = frame_buffer ~tag:tag_error len in
      let pos = Codec.put_u8 b (payload_pos b len) (error_code_to_int code) in
      ignore (Codec.put_str b pos msg);
      seal b

(* ------------------------------------------------------------------ *)
(* Incremental decoding *)

type 'a parse =
  | Need of int
  | Done of 'a * int
  | Fail of { code : error_code; message : string; consumed : int }

let fatal code fmt =
  Format.kasprintf (fun message -> Fail { code; message; consumed = 0 }) fmt

(* Header scan on the raw byte window: cheap, allocation-free, and able
   to reject garbage (wrong magic, alien version, absurd length) from
   the very first bytes without waiting for a full frame. *)
let scan_header ~max_frame buf ~pos ~len =
  if len < 1 then Need 1
  else
    let b i = Char.code (Bytes.get buf (pos + i)) in
    if b 0 <> magic then
      fatal Bad_magic "frame starts with byte 0x%02x, expected magic 0x%02x"
        (b 0) magic
    else if len < 2 then Need 1
    else if b 1 <> version then
      fatal Bad_version "peer speaks protocol version %d; this side speaks %d"
        (b 1) version
    else if len < 4 then Need (4 - len)
    else begin
      (* length varint, starting at offset 3 *)
      let rec varint i acc shift =
        if i >= len then `Short (i + 1)
        else
          let byte = b i in
          let payload = byte land 0x7F in
          if shift > 56 || (shift = 56 && payload > 0x3F) then `Overflow
          else if byte land 0x80 = 0 then
            if payload = 0 && shift > 0 then `Nonminimal
            else `Length (acc lor (payload lsl shift), i + 1)
          else varint (i + 1) (acc lor (payload lsl shift)) (shift + 7)
      in
      match varint 3 0 0 with
      | `Short need -> Need (need - len)
      | `Overflow -> fatal Too_large "frame length varint overflows the int range"
      | `Nonminimal -> fatal Bad_frame "non-minimal frame length varint"
      | `Length (paylen, header_len) ->
          let total = header_len + paylen + 4 in
          if total > max_frame then
            fatal Too_large "announced frame of %d bytes exceeds the %d-byte cap"
              total max_frame
          else if len < total then Need (total - len)
          else Done ((b 2, header_len, paylen), total)
    end

exception Unknown_tag of int

(* One whole frame is available: verify the whole-frame checksum and
   hand back the payload window for tag-specific decoding. *)
let parse_frame ~max_frame buf ~pos ~len ~decode =
  match scan_header ~max_frame buf ~pos ~len with
  | Need n -> Need n
  | Fail f -> Fail f
  | Done ((tag, header_len, paylen), total) ->
      let s = Bytes.sub_string buf pos total in
      let stored =
        let b i = Char.code s.[total - 4 + i] in
        b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)
      in
      let actual = Crc32.of_substring s ~pos:0 ~len:(total - 4) in
      if stored <> actual then
        fatal Bad_frame
          "frame checksum mismatch: stored %08x, computed %08x over %d byte(s)"
          stored actual (total - 4)
      else begin
        match decode ~tag (Codec.reader ~pos:header_len ~len:paylen s) with
        | v -> Done (v, total)
        | exception Unknown_tag t ->
            fatal Bad_tag "unknown frame tag 0x%02x for this direction" t
        | exception Codec.Corrupt msg ->
            Fail { code = Bad_request; message = msg; consumed = total }
        | exception Invalid_argument msg ->
            Fail { code = Bad_request; message = msg; consumed = total }
      end

(* A count-prefixed payload: each item needs at least two payload bytes,
   so a count beyond that bound is a lie about data that cannot be
   present — reject before allocating for it.  [reject] (a closed
   function, so passing it allocates nothing) words the rejection. *)
let read_count r ~reject =
  let count = Codec.read_varint r in
  if count > (Codec.remaining r / 2) + 1 then
    raise (Codec.Corrupt (reject count (Codec.remaining r)));
  count

let read_query ~tag r =
  if tag = tag_output_label then Engine.Output_label (Codec.read_varint r)
  else if tag = tag_edge_member then begin
    let v = Codec.read_varint r in
    let e = Codec.read_varint r in
    Engine.Edge_member (v, e)
  end
  else if tag = tag_advice_bits then Engine.Advice_bits (Codec.read_varint r)
  else raise (Codec.Corrupt (Printf.sprintf "unknown query tag 0x%02x" tag))

let decode_request ~tag r =
  let v =
    if tag = tag_ping then Ping
    else if tag = tag_stats then Stats
    else if tag = tag_output_label || tag = tag_edge_member
            || tag = tag_advice_bits then Query (read_query ~tag r)
    else if tag = tag_batch then begin
      let count =
        read_count r ~reject:(fun count left ->
            Printf.sprintf "batch announces %d queries but only %d payload byte(s) remain"
              count left)
      in
      Batch
        (Array.init count (fun _ ->
             let qtag = Codec.read_u8 r in
             read_query ~tag:qtag r))
    end
    else raise (Unknown_tag tag)
  in
  Codec.expect_end r ~what:"request payload";
  v

let read_answer ~tag r =
  if tag = tag_label then Engine.Label (Codec.read_str r)
  else if tag = tag_member then begin
    match Codec.read_u8 r with
    | 0 -> Engine.Member false
    | 1 -> Engine.Member true
    | b -> raise (Codec.Corrupt (Printf.sprintf "member answer byte %d is not 0/1" b))
  end
  else if tag = tag_bits then Engine.Bits (Codec.read_str r)
  else raise (Codec.Corrupt (Printf.sprintf "unknown answer tag 0x%02x" tag))

let decode_response ~tag r =
  let v =
    if tag = tag_pong then Pong
    else if tag = tag_stats_reply then begin
      let count =
        read_count r ~reject:(fun count left ->
            Printf.sprintf "stats reply announces %d entries in %d byte(s)" count left)
      in
      Stats_reply
        (List.init count (fun _ ->
             let k = Codec.read_str r in
             let v = Codec.read_varint r in
             (k, v)))
    end
    else if tag = tag_label || tag = tag_member || tag = tag_bits then
      Answer (read_answer ~tag r)
    else if tag = tag_answers then begin
      let count =
        read_count r ~reject:(fun count left ->
            Printf.sprintf "answers frame announces %d answers in %d byte(s)" count left)
      in
      Answers
        (Array.init count (fun _ ->
             let atag = Codec.read_u8 r in
             read_answer ~tag:atag r))
    end
    else if tag = tag_error then begin
      let code_byte = Codec.read_u8 r in
      let msg = Codec.read_str r in
      match error_code_of_int code_byte with
      | Some code -> Error (code, msg)
      | None ->
          raise
            (Codec.Corrupt (Printf.sprintf "unknown error code %d" code_byte))
    end
    else raise (Unknown_tag tag)
  in
  Codec.expect_end r ~what:"response payload";
  v

let parse_request ?(max_frame = default_max_frame) buf ~pos ~len =
  parse_frame ~max_frame buf ~pos ~len ~decode:decode_request

let parse_response ?(max_frame = default_max_frame) buf ~pos ~len =
  parse_frame ~max_frame buf ~pos ~len ~decode:decode_response
