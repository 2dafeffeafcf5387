type t = {
  mutable mark : int array;
  mutable base : int;
  mutable size : int;
  mutable queue : int array;
  mutable dist : int array;
}

let create ?(capacity = 0) () =
  { mark = Array.make capacity (-1); base = 0; size = 0; queue = [||]; dist = [||] }

(* A graph of [n] nodes cost O(n) to build, so growing to exactly [n]
   costs no more than that, and a process that serves one graph holds
   one mark per node, not up to two. *)
let ensure ws n =
  if n > Array.length ws.mark then begin
    ws.mark <- Array.make n (-1);
    ws.base <- 0;
    ws.size <- 0
  end

let reserve ws k =
  let c = Array.length ws.queue in
  if k > c then begin
    let c = max k (2 * c) in
    let grow a =
      let b = Array.make c 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    ws.queue <- grow ws.queue;
    ws.dist <- grow ws.dist
  end

(* Every mark of the set ends below [base + size], so moving [base]
   there forgets the set.  A base that could overflow within the next
   set (at most one mark per node) starts again from 0 over a refilled
   mark array: amortized over ~max_int stamps, still O(1). *)
let reset ws =
  let next = ws.base + ws.size in
  if next > max_int - Array.length ws.mark then begin
    Array.fill ws.mark 0 (Array.length ws.mark) (-1);
    ws.base <- 0
  end
  else ws.base <- next;
  ws.size <- 0

let mem ws v = ws.mark.(v) >= ws.base

let add ws v ~dist =
  let i = ws.size in
  if i = Array.length ws.queue then reserve ws (i + 1);
  ws.mark.(v) <- ws.base + i;
  ws.queue.(i) <- v;
  ws.dist.(i) <- dist;
  ws.size <- i + 1

let size ws = ws.size
let sub_index ws v = ws.mark.(v) - ws.base
let dist ws v = ws.dist.(sub_index ws v)
let node_at ws i = ws.queue.(i)

let key = Domain.DLS.new_key (fun () -> create ())
let domain_local () = Domain.DLS.get key
