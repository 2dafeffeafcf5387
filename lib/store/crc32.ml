let poly = 0xEDB88320

(* Built once at module initialisation and never written again. *)
let table =
  Array.init 256 (fun i ->
      let c = ref i in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then poly lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let mask = 0xFFFFFFFF

let update_char crc c =
  table.((crc lxor Char.code c) land 0xFF) lxor (crc lsr 8)

let finish crc = crc lxor mask land mask

let start init =
  match init with None -> mask | Some c -> c lxor mask land mask

let of_subbytes ?init b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Crc32: range out of bounds";
  let crc = ref (start init) in
  for i = pos to pos + len - 1 do
    crc := update_char !crc (Bytes.unsafe_get b i)
  done;
  finish !crc

(* Read-only, so viewing the string as bytes is safe. *)
let of_substring ?init s ~pos ~len =
  of_subbytes ?init (Bytes.unsafe_of_string s) ~pos ~len

let of_string ?init s = of_substring ?init s ~pos:0 ~len:(String.length s)
let of_bytes ?init b = of_subbytes ?init b ~pos:0 ~len:(Bytes.length b)
