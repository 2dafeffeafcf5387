let width_for k =
  let rec go w cap = if cap >= k then w else go (w + 1) (cap * 2) in
  go 1 2

let encode ~width value =
  if value < 0 || (width < 63 && value >= 1 lsl width) then
    invalid_arg "Bits.encode: value does not fit";
  String.init width (fun i ->
      if value land (1 lsl (width - 1 - i)) <> 0 then '1' else '0')

let decode s =
  if s = "" then invalid_arg "Bits.decode: empty";
  String.fold_left
    (fun acc c ->
      match c with
      | '0' -> 2 * acc
      | '1' -> (2 * acc) + 1
      | _ -> invalid_arg "Bits.decode: not a bit string")
    0 s

let encode_int value =
  if value < 0 then invalid_arg "Bits.encode_int";
  encode ~width:(width_for (value + 1)) value

let pack s =
  let nbits = String.length s in
  let out = Bytes.make ((nbits + 7) / 8) '\000' in
  for i = 0 to nbits - 1 do
    match String.unsafe_get s i with
    | '0' -> ()
    | '1' ->
        let j = i lsr 3 in
        Bytes.unsafe_set out j
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get out j) lor (1 lsl (i land 7))))
    | _ -> invalid_arg "Bits.pack: not a bit string"
  done;
  (out, nbits)

(* Every bit string of length <= 8, the empty one included, at slot
   [2^len - 1 + v] where bit [j] of [v] is character [j]: 511 strings,
   built once and never written after.  The table is domain-local, and a
   spawned domain inherits its parent's, so every domain reads the one
   table the main domain built: a string is shared everywhere. *)
let shared_max = 8
let shared_slots = (2 lsl shared_max) - 1

let shared_table =
  Domain.DLS.new_key ~split_from_parent:Fun.id (fun () ->
      Array.init shared_slots (fun slot ->
          let len = ref 0 in
          while 2 lsl !len <= slot + 1 do
            incr len
          done;
          let v = slot + 1 - (1 lsl !len) in
          String.init !len (fun j -> if v land (1 lsl j) <> 0 then '1' else '0')))

let shared_strings () = Domain.DLS.get shared_table

let shared slot =
  if slot < 0 || slot >= shared_slots then invalid_arg "Bits.shared: slot out of range";
  (shared_strings ()).(slot)

let shared_slot s =
  let len = String.length s in
  if len > shared_max then -1
  else begin
    let v = ref 0 and ok = ref true in
    for j = 0 to len - 1 do
      match String.unsafe_get s j with
      | '0' -> ()
      | '1' -> v := !v lor (1 lsl j)
      | _ -> ok := false
    done;
    if !ok then (1 lsl len) - 1 + !v else -1
  end

(* A string of at most 8 bits spans at most two bytes: one or two byte
   loads and a shift give its slot, and the bits past the buffer are
   never read. *)
let unpack_at table s ~off nbits =
  if off < 0 || nbits < 0 || nbits > (8 * String.length s) - off then
    invalid_arg "Bits.unpack: bit count exceeds buffer";
  if nbits = 0 then table.(0)
  else if nbits <= shared_max then begin
    let i = off lsr 3 and sh = off land 7 in
    let word =
      if sh + nbits > 8 then
        Char.code (String.unsafe_get s i)
        lor (Char.code (String.unsafe_get s (i + 1)) lsl 8)
      else Char.code (String.unsafe_get s i)
    in
    table.((1 lsl nbits) - 1 + ((word lsr sh) land ((1 lsl nbits) - 1)))
  end
  else
    String.init nbits (fun j ->
        let i = off + j in
        if Char.code (String.unsafe_get s (i lsr 3)) land (1 lsl (i land 7)) <> 0
        then '1'
        else '0')

let unpack ?(off = 0) b nbits =
  unpack_at (shared_strings ()) (Bytes.unsafe_to_string b) ~off nbits
