(** Fixed-width binary codecs for advice payloads. *)

val width_for : int -> int
(** [width_for k] is the number of bits needed to represent values
    [0 .. k-1]; at least 1. *)

val encode : width:int -> int -> string
(** Big-endian fixed-width binary.  @raise Invalid_argument when the value
    does not fit. *)

val decode : string -> int
(** @raise Invalid_argument on the empty string or non-bit characters. *)

val encode_int : int -> string
(** Minimal-width encoding of a non-negative integer. *)

val pack : string -> bytes * int
(** [pack s] packs a ['0']/['1'] bit string into bytes, LSB-first within
    each byte (bit [i] of [s] lands in byte [i/8] at position [i mod 8]),
    returning the buffer and the bit count.  Unused high bits of the last
    byte are zero, so packing is canonical: equal bit strings pack to
    equal buffers.  This is the packed representation used by the snapshot
    store ({!Store.Snapshot}), where a node's advice occupies its actual
    bit budget rather than a byte per bit.
    @raise Invalid_argument on non-bit characters. *)

val unpack : ?off:int -> bytes -> int -> string
(** [unpack b nbits] inverts {!pack}: the first [nbits] bits of [b],
    LSB-first, as a ['0']/['1'] string.  [unpack (fst (pack s))
    (snd (pack s)) = s] for every well-formed bit string.  [off]
    (default [0]) starts at that bit instead, so one packed buffer
    yields each node's string in place.  A string of at most 8 bits is
    the {!shared} copy: unpacking it allocates nothing.
    @raise Invalid_argument when the bits run past the buffer. *)

(** {1 Shared short strings}

    Every ['0']/['1'] string of at most 8 characters — 511 of them,
    counting the empty one — exists once, built on first use and never
    written after.  The table is domain-local, and a spawned domain
    inherits its parent's, so every domain reads the same strings.  A C4 label or advice string of a node of degree at most 8
    is one of them, so readers and the serve path keep a slot instead
    of a copy, and key tables of per-string values by it. *)

val shared_slots : int
(** Number of shared strings: 511. *)

val shared : int -> string
(** [shared slot] is the shared string at [slot] in
    [0 .. shared_slots - 1]; slot [2^len - 1 + v] holds the [len]-bit
    string whose character [j] is bit [j] of [v].
    @raise Invalid_argument on a slot out of range. *)

val shared_strings : unit -> string array
(** This domain's table of the {!shared} strings, indexed by slot.  Read
    only: a decoder that unpacks many strings fetches it once and hands
    it to {!unpack_at}. *)

val unpack_at : string array -> string -> off:int -> int -> string
(** [unpack_at table s ~off nbits] is {!unpack} over the bytes of [s],
    starting at bit [off], with [table] = {!shared_strings} [()]: the
    shared strings come from the table the caller fetched, so the call
    makes no domain-local lookup, and a packed buffer can be read where
    it lies inside a larger string.
    @raise Invalid_argument as {!unpack}. *)

val shared_slot : string -> int
(** [shared_slot s] is the slot of the shared string equal to [s], or
    [-1] when [s] is longer than 8 characters or not a bit string.
    [shared (shared_slot s) = s] whenever the slot is not [-1]. *)
