(** Versioned binary wire protocol for long-lived [advice_store]
    serving.  DESIGN.md, "Wire protocol & event loop", has the tag table
    and the design.

    Every message travelling in either direction is one {e frame}:

    {v
    magic:u8 (0xC4)  version:u8  tag:u8  length:varint  payload  crc32:u32
    v}

    in {!Store.Codec}'s field encodings.  The checksum covers the
    {e whole frame}, from the magic byte through the last payload byte,
    so a single corrupted byte anywhere in a frame, header included, is
    always caught.

    Requests carry ball-local questions (the paper's C4 decompression
    queries) or service control (ping, stats); responses carry the
    positionally matching answers, or an explicit {e error frame} — a
    malformed request is answered, never ignored.

    {b Version policy.}  The version byte is checked before anything
    else in the payload is trusted.  A server speaks exactly
    {!version}; a frame carrying any other version is answered with a
    {!Bad_version} error frame whose message names the supported
    version, and the connection is closed.  The version is bumped on any
    change to the frame layout, the tag table, or a payload encoding; an
    unknown tag is {!Bad_tag}, a fatal error, so a version number fully
    determines the wire grammar. *)

val version : int
(** The protocol version this build speaks (and the only one it
    accepts): 1. *)

val max_frame : int
(** The cap on a frame's total encoded size (1 MiB), in both directions.
    Parsers reject larger announcements with {!Too_large} before
    buffering them, so a corrupted length cannot make a peer allocate
    unboundedly. *)

(** {1 Messages} *)

(** One client request. *)
type request =
  | Ping  (** liveness probe; answered with {!Pong} *)
  | Stats  (** server counters; answered with {!Stats_reply} *)
  | Query of Serve.Engine.query  (** one ball-local question *)
  | Batch of Serve.Engine.query array
      (** many questions in one frame, answered positionally in one
          {!Answers} frame and dispatched through the sharded parallel
          batch path *)

(** Why a frame or request was rejected.  On the wire each is one byte,
    1 to 8 in the order listed. *)
type error_code =
  | Bad_magic  (** first byte was not the magic 0xC4: stream desync *)
  | Bad_version  (** peer speaks a different protocol version *)
  | Bad_frame  (** checksum mismatch or malformed frame structure *)
  | Bad_tag  (** unknown frame tag for this direction *)
  | Bad_request  (** well-framed but malformed payload *)
  | Rejected  (** valid request refused by the engine (bad node id...) *)
  | Too_large  (** announced frame size exceeds the parser's cap *)
  | Shutting_down  (** server is draining; no new requests accepted *)

(** One server response. *)
type response =
  | Pong
  | Stats_reply of (string * int) list
      (** counter name/value pairs, sorted by name; includes
          [serve.degraded] so a client can see it is being answered
          from a damaged snapshot *)
  | Answer of Serve.Engine.answer
  | Answers of Serve.Engine.answer array
  | Error of error_code * string
      (** explicit error frame: code plus a human-readable diagnostic *)

(** Whether an error ends the connection.  Frame-level damage
    ({!Bad_magic}, {!Bad_version}, {!Bad_frame}, {!Bad_tag},
    {!Too_large}) is fatal: the byte stream can no longer be trusted to
    be in sync, so the server sends the error frame and closes.
    Request-level damage ({!Bad_request}, {!Rejected}) is answered and
    the connection continues — the framing was intact, only the
    question was bad. *)
val error_is_fatal : error_code -> bool

(** {1 Encoding}

    One encoder per direction writes a frame in place: the header, the
    payload, then the CRC over that range, with {!Store.Codec}'s
    position writers.  The [_to_string] forms aim it at a buffer of the
    frame's exact size. *)

val response_size : response -> int
(** The encoded size of one response frame, header and CRC included. *)

val put_response : Bytes.t -> int -> response -> int
(** [put_response buf pos rs] writes [rs]'s frame into
    [buf.[pos .. pos + response_size rs - 1]] and returns the position
    after it.  This is how a connection encodes an answer into its
    output buffer. *)

val request_to_string : request -> string
(** One request as a standalone frame. *)

val response_to_string : response -> string
(** One response as a standalone frame: {!put_response} into a fresh
    buffer of {!response_size} bytes. *)

(** {1 Incremental decoding}

    Parsers consume frames from the front of a caller-owned buffer
    window and never raise on wire input: every outcome, including
    corruption, is a constructor.  They wrap the in-place checker and
    decoders below, which the server's connections call directly. *)

(** Outcome of trying to parse one frame from a buffer window. *)
type 'a parse =
  | Need of int
      (** incomplete: at least this many more bytes are required (a
          lower bound — re-parse after the next read) *)
  | Done of 'a * int
      (** one whole message parsed, consuming this many bytes *)
  | Fail of { code : error_code; message : string; consumed : int }
      (** rejected: answer with an error frame.  When
          [error_is_fatal code], [consumed] is meaningless (close the
          connection); otherwise skip [consumed] bytes and continue
          parsing at the next frame boundary. *)

val parse_request : Bytes.t -> pos:int -> len:int -> request parse
(** [parse_request buf ~pos ~len] tries to decode one request frame
    from [buf.[pos .. pos+len-1]]: {!check_frame}, then
    {!decode_request}, their outcomes as a constructor. *)

val parse_response : Bytes.t -> pos:int -> len:int -> response parse
(** Same, for the client side of the connection. *)

(** {1 In place}

    The checker and decoder {!parse_request} wraps, for a caller that
    owns the buffer and wants no result box: a frame is checked and
    decoded where it sits, with no copy and no {!Store.Codec.reader}. *)

exception Refused of error_code * string
(** A frame or request rejected with this code and diagnostic — the
    same pair {!parse_request} reports in [Fail]. *)

val check_frame : Bytes.t -> pos:int -> len:int -> int
(** [check_frame buf ~pos ~len] checks the frame at the
    front of the window [buf.[pos .. pos+len-1]]: magic, version, the
    canonical length varint and the {!max_frame} cap as soon as their
    bytes arrive, then, once the window holds the whole frame, its CRC.
    Returns the frame's size when it is whole and verified, or [-k]
    when at least [k] more bytes are needed.  Allocates nothing unless
    it refuses.  @raise Refused on frame-level damage (always fatal). *)

val decode_request : Bytes.t -> pos:int -> len:int -> request
(** [decode_request buf ~pos ~len] decodes the frame of size [len] at
    [pos] that {!check_frame} accepted, reading its fields at their
    positions.  @raise Refused with {!Bad_tag} on a tag that is not a
    request's, or {!Bad_request} on a malformed payload (skip [len]
    bytes and go on). *)
