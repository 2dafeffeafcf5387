let poly = 0xEDB88320

(* The bytewise table: the register after one byte.  This and the
   seven below are built once at module initialisation and never
   written again. *)
let t0 =
  Array.init 256 (fun i ->
      let c = ref i in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* [tk.(b)] is the register after byte [b] and then [k] zero bytes, so
   eight bytes fold into the register with eight lookups
   (slicing-by-8). *)
let then_zero t = Array.map (fun c -> (c lsr 8) lxor t0.(c land 0xFF)) t
let t1 = then_zero t0
let t2 = then_zero t1
let t3 = then_zero t2
let t4 = then_zero t3
let t5 = then_zero t4
let t6 = then_zero t5
let t7 = then_zero t6
let mask = 0xFFFFFFFF

let finish crc = crc lxor mask land mask

let start init =
  match init with None -> mask | Some c -> c lxor mask land mask

(* The compiler's own load, not [Bytes.get_int32_le]: a primitive is
   compiled in place, unboxed, whatever the build profile inlines. *)
external get32 : bytes -> int -> int32 = "%caml_bytes_get32u"

(* Eight bytes per step, as two little-endian u32 words: the first is
   folded into the register, and each of the eight bytes indexes the
   table for the zero bytes that follow it.  A byte loop takes the tail
   (and everything, on a big-endian host).  The range is checked once
   up front and every table index is below 256, so the loads are
   unchecked; the table loads are written out, since a local helper
   is a call per load when it is not inlined. *)
let of_subbytes ?init b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32: range out of bounds";
  let crc = ref (start init) in
  let i = ref pos in
  let stop8 = if Sys.big_endian then pos else pos + (len land lnot 7) in
  while !i < stop8 do
    let lo = !crc lxor (Int32.to_int (get32 b !i) land mask) in
    let hi = Int32.to_int (get32 b (!i + 4)) land mask in
    crc :=
      Array.unsafe_get t7 (lo land 0xFF)
      lxor Array.unsafe_get t6 ((lo lsr 8) land 0xFF)
      lxor Array.unsafe_get t5 ((lo lsr 16) land 0xFF)
      lxor Array.unsafe_get t4 (lo lsr 24)
      lxor Array.unsafe_get t3 (hi land 0xFF)
      lxor Array.unsafe_get t2 ((hi lsr 8) land 0xFF)
      lxor Array.unsafe_get t1 ((hi lsr 16) land 0xFF)
      lxor Array.unsafe_get t0 (hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to pos + len - 1 do
    crc :=
      Array.unsafe_get t0 ((!crc lxor Char.code (Bytes.unsafe_get b j)) land 0xFF)
      lxor (!crc lsr 8)
  done;
  finish !crc

(* Read-only, so viewing the string as bytes is safe. *)
let of_substring ?init s ~pos ~len =
  of_subbytes ?init (Bytes.unsafe_of_string s) ~pos ~len

let of_string ?init s = of_substring ?init s ~pos:0 ~len:(String.length s)
