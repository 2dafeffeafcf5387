type t = {
  mutable mark : Bytes.t;
  mutable base : int;
  mutable size : int;
  mutable queue : int array;
  mutable dist : int array;
}

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let max_mark = 0x7FFF_FFFF

(* Every byte 0xff: every entry reads -1, below any base. *)
let unmarked n = Bytes.make (n lsl 2) '\xff'

let create ?(capacity = 0) () =
  { mark = unmarked capacity; base = 0; size = 0; queue = [||]; dist = [||] }

let mark_length ws = Bytes.length ws.mark lsr 2

(* A graph of [n] nodes cost O(n) to build, so growing to exactly [n]
   costs no more than that, and a process that serves one graph holds
   one mark per node, not up to two. *)
let ensure ws n =
  if n > mark_length ws then begin
    ws.mark <- unmarked n;
    ws.base <- 0;
    ws.size <- 0
  end

let reserve ws k =
  let c = Array.length ws.queue in
  if k > c then begin
    let c = Int.max k (2 * c) in
    let grow a =
      let b = Array.make c 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    ws.queue <- grow ws.queue;
    ws.dist <- grow ws.dist
  end

(* Every mark of the set ends below [base + size], so moving [base]
   there forgets the set.  A base whose next set (at most one mark per
   node) could pass [max_mark] starts again from 0 over a refilled mark:
   amortized over ~2^31 stamps, still O(1) for any graph much smaller
   than that. *)
let reset ws =
  let next = ws.base + ws.size in
  if next > max_mark - mark_length ws then begin
    Bytes.fill ws.mark 0 (Bytes.length ws.mark) '\xff';
    ws.base <- 0
  end
  else ws.base <- next;
  ws.size <- 0

(* Entry [v] of the mark, checked as an array read is: a node outside
   it raises [Invalid_argument]. *)
let entry ws v =
  if v < 0 || v >= mark_length ws then invalid_arg "Workspace: node outside the mark";
  v lsl 2

let mark_of ws v = Int32.to_int (get32 ws.mark (entry ws v))
let mem ws v = mark_of ws v >= ws.base

let add ws v ~dist =
  let i = ws.size in
  if i = Array.length ws.queue then reserve ws (i + 1);
  set32 ws.mark (entry ws v) (Int32.of_int (ws.base + i));
  ws.queue.(i) <- v;
  ws.dist.(i) <- dist;
  ws.size <- i + 1

let size ws = ws.size
let sub_index ws v = mark_of ws v - ws.base
let dist ws v = ws.dist.(sub_index ws v)
let node_at ws i = ws.queue.(i)

let key = Domain.DLS.new_key (fun () -> create ())
let domain_local () = Domain.DLS.get key
