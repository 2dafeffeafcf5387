exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

(* Position writers: the one spelling of every field.  Each writes at
   [pos] of a buffer the caller sized and returns the position after
   it; the appending writer below reserves room and calls them. *)

let varint_size v =
  if v < 0 then invalid_arg "Codec.varint: negative value";
  let rec go n v = if v < 0x80 then n else go (n + 1) (v lsr 7) in
  go 1 v

let str_size s = varint_size (String.length s) + String.length s

let put_u8 b pos v =
  Bytes.set_uint8 b pos v;
  pos + 1

let put_u16 b pos v =
  Bytes.set_uint16_le b pos v;
  pos + 2

let put_u32 b pos v =
  Bytes.set_int32_le b pos (Int32.of_int v);
  pos + 4

let rec put_varint b pos v =
  if v < 0 then invalid_arg "Codec.varint: negative value";
  if v < 0x80 then put_u8 b pos v
  else put_varint b (put_u8 b pos (0x80 lor (v land 0x7F))) (v lsr 7)

let put_str b pos s =
  let n = String.length s in
  let pos = put_varint b pos n in
  Bytes.blit_string s 0 b pos n;
  pos + n

(* Writer *)

type writer = { mutable buf : Bytes.t; mutable len : int }

let writer ?(capacity = 256) () = { buf = Bytes.create (Int.max capacity 1); len = 0 }
let contents w = Bytes.sub_string w.buf 0 w.len
let written w = w.len

(* Room for [k] more bytes, doubling as [Buffer] does. *)
let reserve w k =
  let need = w.len + k in
  if need > Bytes.length w.buf then begin
    let buf = Bytes.create (Int.max need (2 * Bytes.length w.buf)) in
    Bytes.blit w.buf 0 buf 0 w.len;
    w.buf <- buf
  end

let u8 w v =
  if v < 0 || v > 0xFF then invalid_arg "Codec.u8: value outside 0..255";
  reserve w 1;
  w.len <- put_u8 w.buf w.len v

let u16 w v =
  if v < 0 || v > 0xFFFF then invalid_arg "Codec.u16: value outside 0..65535";
  reserve w 2;
  w.len <- put_u16 w.buf w.len v

let u32 w v =
  if v < 0 || v > 0xFFFFFFFF then
    invalid_arg "Codec.u32: value outside unsigned 32-bit range";
  reserve w 4;
  w.len <- put_u32 w.buf w.len v

let varint w v =
  reserve w (varint_size v);
  w.len <- put_varint w.buf w.len v

let raw w s =
  let n = String.length s in
  reserve w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

let str w s =
  reserve w (str_size s);
  w.len <- put_str w.buf w.len s

let section w ~tag ?crc payload =
  u8 w tag;
  u32 w (String.length payload);
  raw w payload;
  u32 w (match crc with Some c -> c | None -> Crc32.of_string payload)

(* Position readers: the read side of the position writers.  Each reads
   the field at [p] of the window ending at [limit], and every
   diagnostic counts offsets from [base].  Varints are canonical, so a
   field's size follows from its value and no cursor is kept; the
   stream reader below moves its own cursor over them. *)

let need ~base ~limit p k what =
  if limit - p < k then
    corrupt "truncated input at offset %d: need %d byte(s) for %s, have %d" (p - base) k what
      (limit - p)

let u8_at b ~base ~limit p =
  need ~base ~limit p 1 "u8";
  Bytes.get_uint8 b p

(* A loop rather than a local recursive function, so no call allocates
   a closure. *)
let varint_at b ~base ~limit start =
  let acc = ref 0 and shift = ref 0 and p = ref start and last = ref false in
  while not !last do
    need ~base ~limit !p 1 "varint";
    let byte = Bytes.get_uint8 b !p in
    incr p;
    let payload = byte land 0x7F in
    if !shift > 56 || (!shift = 56 && payload > 0x3F) then
      corrupt "varint at offset %d overflows the int range" (start - base);
    acc := !acc lor (payload lsl !shift);
    if byte land 0x80 <> 0 then shift := !shift + 7
    else if payload = 0 && !shift > 0 then
      (* Canonical LEB128 only: a final zero group after a continuation
         (e.g. the 0x80 0x00 spelling of 0) re-encodes to fewer bytes,
         which would break the byte-identical re-pack invariant. *)
      corrupt "non-minimal varint at offset %d: trailing zero group" (start - base)
    else last := true
  done;
  !acc

let str_at b ~base ~limit p =
  let n = varint_at b ~base ~limit p in
  let p = p + varint_size n in
  need ~base ~limit p n "raw bytes";
  Bytes.sub_string b p n

let expect_end_at ~base ~limit p ~what =
  if p < limit then corrupt "%s: %d trailing byte(s) at offset %d" what (limit - p) (p - base)

(* Reader *)

(* [base] is where the window's offsets count from: 0 for a reader made
   by [reader], the window's first byte for one made by [sub], so a
   window reports what a reader over a copy of its bytes would.  The
   position readers take the string as [bytes] and only read it. *)
type reader = { data : string; mutable pos : int; limit : int; base : int }

let reader ?(pos = 0) ?len data =
  let limit =
    match len with None -> String.length data | Some l -> pos + l
  in
  if pos < 0 || limit > String.length data || pos > limit then
    invalid_arg "Codec.reader: range out of bounds";
  { data; pos; limit; base = 0 }

let pos r = r.pos - r.base
let remaining r = r.limit - r.pos
let at_end r = r.pos >= r.limit
let source r = r.data
let source_pos r = r.pos
let fork r = { r with pos = r.pos }
let bytes r = Bytes.unsafe_of_string r.data

let read_u8 r =
  let v = u8_at (bytes r) ~base:r.base ~limit:r.limit r.pos in
  r.pos <- r.pos + 1;
  v

let read_u16 r =
  need ~base:r.base ~limit:r.limit r.pos 2 "u16";
  let b i = Char.code (String.unsafe_get r.data (r.pos + i)) in
  let v = b 0 lor (b 1 lsl 8) in
  r.pos <- r.pos + 2;
  v

let read_u32 r =
  need ~base:r.base ~limit:r.limit r.pos 4 "u32";
  let b i = Char.code (String.unsafe_get r.data (r.pos + i)) in
  let v = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
  r.pos <- r.pos + 4;
  v

let read_varint_loop r =
  let v = varint_at (bytes r) ~base:r.base ~limit:r.limit r.pos in
  r.pos <- r.pos + varint_size v;
  v

(* Every degree, neighbor gap and advice length of a snapshot below 2^21
   is a varint of at most three bytes: with three bytes left, such a
   varint is read with that one bounds check and without entering the
   loop.  A longer one, a non-minimal one (a zero final group) and one
   nearer the limit go through the loop, which checks and names them. *)
let read_varint r =
  let p = r.pos and s = r.data in
  if r.limit - p >= 3 then begin
    let b0 = Char.code (String.unsafe_get s p) in
    if b0 < 0x80 then begin
      r.pos <- p + 1;
      b0
    end
    else
      let b1 = Char.code (String.unsafe_get s (p + 1)) in
      if b1 > 0 && b1 < 0x80 then begin
        r.pos <- p + 2;
        (b0 land 0x7F) lor (b1 lsl 7)
      end
      else
        let b2 = Char.code (String.unsafe_get s (p + 2)) in
        if b1 >= 0x80 && b2 > 0 && b2 < 0x80 then begin
          r.pos <- p + 3;
          (b0 land 0x7F) lor ((b1 land 0x7F) lsl 7) lor (b2 lsl 14)
        end
        else read_varint_loop r
  end
  else read_varint_loop r

let sub r k =
  if k < 0 then corrupt "negative length %d at offset %d" k (pos r);
  need ~base:r.base ~limit:r.limit r.pos k "raw bytes";
  let w = { data = r.data; pos = r.pos; limit = r.pos + k; base = r.pos } in
  r.pos <- r.pos + k;
  w

let read_raw r k =
  let w = sub r k in
  String.sub w.data w.pos k

let sub_str r =
  let len = read_varint r in
  sub r len

let read_str r =
  let s = str_at (bytes r) ~base:r.base ~limit:r.limit r.pos in
  r.pos <- r.pos + str_size s;
  s

let expect_end r ~what = expect_end_at ~base:r.base ~limit:r.limit r.pos ~what

let read_section r =
  let offset = pos r in
  let tag = read_u8 r in
  let len = read_u32 r in
  if remaining r < len + 4 then
    corrupt
      "truncated section (tag %d) at offset %d: header announces %d payload \
       byte(s) plus a 4-byte checksum (%d in all) but only %d byte(s) remain"
      tag offset len (len + 4) (remaining r);
  let payload = sub r len in
  let stored = read_u32 r in
  let actual = Crc32.of_substring r.data ~pos:payload.pos ~len in
  if stored <> actual then
    corrupt
      "checksum mismatch in section (tag %d) at offset %d: stored %08x, \
       computed %08x"
      tag offset stored actual;
  (tag, payload)

type section_info = { tag : int; offset : int; length : int; crc : int }
