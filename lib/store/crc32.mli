(** CRC-32 (IEEE 802.3, polynomial [0xEDB88320]) over strings and bytes.

    Checksums are returned as non-negative ints masked to 32 bits, so they
    are portable across 63-bit OCaml ints and safe to serialize as [u32].
    Used by {!Codec} to frame every snapshot section. *)

val of_string : ?init:int -> string -> int
(** [of_string s] is the CRC-32 of the whole string.  [init] continues a
    running checksum (default is the empty-prefix state). *)

val of_substring : ?init:int -> string -> pos:int -> len:int -> int
(** Checksum of [len] bytes of [s] starting at [pos].
    @raise Invalid_argument when the range is out of bounds. *)

val of_subbytes : ?init:int -> bytes -> pos:int -> len:int -> int
(** {!of_substring} over a [bytes] value, e.g. a frame being written.
    @raise Invalid_argument when the range is out of bounds. *)
