(** Low-level wire codec for snapshot files.

    All multi-byte integers are little-endian; unbounded non-negative
    integers use LEB128 varints (7 payload bits per byte, high bit is the
    continuation flag).  Strings are varint-length-prefixed.  Sections are
    framed as [tag:u8, length:u32, payload, crc32:u32] where the checksum
    covers the payload bytes only — see {!Snapshot} for the file layout
    built on top.

    Readers never trust lengths: every access is bounds-checked against
    the enclosing buffer and failures raise {!Corrupt} with a diagnostic
    naming the offset and the field being parsed. *)

exception Corrupt of string
(** Raised by all reader functions on malformed input: truncation, varint
    overflow, checksum mismatch, or trailing garbage.  The payload is a
    human-readable diagnostic including the byte offset. *)

(** {1 Position writers}

    The field encodings themselves, over a [bytes] buffer the caller
    sized with {!varint_size}/{!str_size} — for an encoder that sizes a
    whole frame first and writes it in place.  The appending {!writer}
    below is built on them.  Each [put_*] writes at [pos] and returns
    the position after the field.  @raise Invalid_argument when the
    field does not fit the buffer. *)

val varint_size : int -> int
(** Bytes of the LEB128 encoding.  @raise Invalid_argument on negative
    values. *)

val str_size : string -> int
(** Bytes of the varint-length-prefixed encoding. *)

val put_u8 : bytes -> int -> int -> int
(** The low 8 bits of the value. *)

val put_u32 : bytes -> int -> int -> int
(** Little-endian, the low 32 bits of the value. *)

val put_varint : bytes -> int -> int -> int
(** LEB128.  @raise Invalid_argument on negative values. *)

val put_str : bytes -> int -> string -> int
(** Varint length followed by the raw bytes. *)

(** {1 Position readers}

    The read side of the position writers, over a [bytes] window that
    ends at [limit]: each [*_at] reads the field at a position and
    leaves no cursor behind (a canonical varint's size is
    {!varint_size} of its value, so the next field's position follows
    from the values read).  Diagnostics count offsets from [base], word
    for word as a {!reader} over a copy of the window reports them: the
    {!reader} below is built on these functions.  The wire decoder
    reads frames in place with them.  @raise Corrupt on truncation, as
    every reader does. *)

val u8_at : bytes -> base:int -> limit:int -> int -> int
(** One byte. *)

val varint_at : bytes -> base:int -> limit:int -> int -> int
(** A canonical LEB128 varint, checked as {!read_varint} checks it. *)

val str_at : bytes -> base:int -> limit:int -> int -> string
(** A varint-length-prefixed string, copied out. *)

val expect_end_at : base:int -> limit:int -> int -> what:string -> unit
(** @raise Corrupt when the position is short of [limit]: trailing
    bytes after a complete parse. *)

(** {1 Writer} *)

type writer
(** Append-only output buffer. *)

val writer : ?capacity:int -> unit -> writer
(** A fresh empty writer ([capacity] is the initial buffer hint). *)

val contents : writer -> string
(** Everything appended so far, as one string. *)

val written : writer -> int
(** Bytes appended so far. *)

val u8 : writer -> int -> unit
(** @raise Invalid_argument when the value is outside [0..255]. *)

val u16 : writer -> int -> unit
(** Little-endian u16.  @raise Invalid_argument outside [0..0xFFFF]. *)

val u32 : writer -> int -> unit
(** @raise Invalid_argument when the value is outside the unsigned range. *)

val varint : writer -> int -> unit
(** LEB128.  @raise Invalid_argument on negative values. *)

val str : writer -> string -> unit
(** Varint length followed by the raw bytes. *)

val raw : writer -> string -> unit
(** Raw bytes, no framing. *)

val section : writer -> tag:int -> ?crc:int -> string -> unit
(** [section w ~tag payload] frames and appends one section:
    [tag:u8, length:u32, payload, crc32(payload):u32].  [?crc] lets a
    caller that already computed [Crc32.of_string payload] (e.g. for a
    manifest copy) supply it instead of paying for a second pass — it
    is written verbatim, so it must be that exact value. *)

(** {1 Reader} *)

type reader
(** Cursor over an immutable input string. *)

val reader : ?pos:int -> ?len:int -> string -> reader
(** A cursor over [len] bytes of the string starting at [pos] (defaults:
    the whole string).  @raise Invalid_argument on an impossible window. *)

val pos : reader -> int
(** Current byte offset: absolute in the string for a {!reader}, counted
    from the window's first byte for a {!sub} window.  Every diagnostic
    reports offsets the same way. *)

val remaining : reader -> int
(** Bytes left before the window's limit. *)

val at_end : reader -> bool
(** Whether the cursor has consumed its whole window. *)

val fork : reader -> reader
(** An independent cursor at the same position over the same window:
    reading one does not move the other. *)

val source : reader -> string
(** The string the reader walks, shared: for decoders that address the
    bytes ahead in place (packed bits).  Never copied. *)

val source_pos : reader -> int
(** The absolute index in {!source} of the reader's current position. *)

val sub : reader -> int -> reader
(** [sub r n] consumes [n] bytes as {!read_raw} does, with the same
    diagnostics, but copies nothing: it returns a window over those
    bytes of the same string.  The window's offsets count from its first
    byte, so decoding it reports exactly what decoding the copy
    would. *)

val sub_str : reader -> reader
(** {!read_str} as a {!sub} window: the length-prefixed bytes, in
    place. *)

val read_u8 : reader -> int
(** One byte.  @raise Corrupt on truncation (as all readers below). *)

val read_u16 : reader -> int
(** Little-endian u16. *)

val read_u32 : reader -> int
(** Little-endian u32. *)

val read_varint : reader -> int
(** A varint of up to three bytes (a value below 2^21, as every degree,
    neighbor gap and advice length of a snapshot is) is read with one
    bounds check when three bytes are left; longer ones go through the
    checked loop {!varint_at} runs.
    @raise Corrupt on truncation, when the value exceeds [max_int], or
    when the encoding is non-minimal (a trailing zero group, e.g.
    [0x80 0x00] for zero): only canonical LEB128 — what {!varint}
    writes — is accepted, preserving the byte-identical re-pack
    invariant. *)

val read_str : reader -> string
(** A varint-length-prefixed string. *)

val read_raw : reader -> int -> string
(** [read_raw r n] consumes exactly [n] raw bytes. *)

val expect_end : reader -> what:string -> unit
(** @raise Corrupt when bytes remain after a complete parse. *)

val read_section : reader -> int * reader
(** Reads one framed section, verifies its checksum and returns
    [(tag, payload)], in place: the checksum is computed over the bytes
    where they lie, and the payload is a {!sub} window, so no payload
    byte is copied.  @raise Corrupt on truncation or CRC mismatch. *)

type section_info = {
  tag : int;
  offset : int;  (** Byte offset of the section's tag byte. *)
  length : int;  (** Payload length in bytes. *)
  crc : int;  (** Stored checksum (already verified against the payload). *)
}
(** Shallow description of a framed section, as reported by
    {!Snapshot.sections} for [inspect]-style tooling. *)
