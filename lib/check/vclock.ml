(* Fixed-width vector clocks for the happens-before tracker.

   The scheduler caps fibers at [width], so a clock is a flat int array —
   no resizing, no allocation on merge beyond the copy primitives.
   Component [i] counts the
   synchronization-relevant operations fiber [i] has performed. *)

let width = 16

type t = int array

let make () = Array.make width 0

let copy (c : t) : t = Array.copy c

let get (c : t) i = c.(i)

let tick (c : t) i = c.(i) <- c.(i) + 1

let merge (dst : t) (src : t) =
  for i = 0 to width - 1 do
    if src.(i) > dst.(i) then dst.(i) <- src.(i)
  done

let to_string (c : t) =
  let last = ref (-1) in
  Array.iteri (fun i v -> if v <> 0 then last := i) c;
  if !last < 0 then "[]"
  else begin
    let b = Buffer.create 32 in
    Buffer.add_char b '[';
    for i = 0 to !last do
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int c.(i))
    done;
    Buffer.add_char b ']';
    Buffer.contents b
  end
