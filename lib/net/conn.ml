type state = Open | Draining | Closed

type t = {
  max_frame : int;
  write_budget : int;
  mutable st : state;
  (* Read side: one growable buffer, [rlen] valid bytes starting at 0.
     A feed parses its frames with a cursor and compacts the consumed
     prefix away once at the end, so the buffer never holds more than
     one incomplete frame plus one read chunk. *)
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  (* Write side: FIFO of encoded frames; [woff] is the send offset into
     the head.  [wbytes] tracks the queued total for backpressure.
     {!pending} merges queued frames into one chunk, so a burst of
     pipelined answers leaves in one write. *)
  writes : string Queue.t;
  mutable woff : int;
  mutable wbytes : int;
}

let create ?(max_frame = Protocol.default_max_frame) ?(write_budget = 256 * 1024)
    () =
  if max_frame <= 0 then invalid_arg "Conn.create: max_frame must be positive";
  if write_budget <= 0 then
    invalid_arg "Conn.create: write_budget must be positive";
  {
    max_frame;
    write_budget;
    st = Open;
    rbuf = Bytes.create 4096;
    rlen = 0;
    writes = Queue.create ();
    woff = 0;
    wbytes = 0;
  }

let state t = t.st
let queued_bytes t = t.wbytes
let wants_read t = t.st = Open && t.wbytes <= t.write_budget
let wants_write t = t.st <> Closed && t.wbytes > 0

let enqueue t frame =
  if t.st <> Closed && String.length frame > 0 then begin
    Queue.add frame t.writes;
    t.wbytes <- t.wbytes + String.length frame
  end

(* Largest chunk [pending] builds by merging frames; a frame longer
   than this is sent as it is. *)
let coalesce_limit = 64 * 1024

(* Merge the frames behind an untouched head into it, up to
   [coalesce_limit] bytes.  Every byte is copied at most once: a merged
   head that is then partly written is not merged again until sent. *)
let coalesce t =
  if t.woff = 0 && Queue.length t.writes > 1 then begin
    let head = Queue.pop t.writes in
    let size = ref (String.length head) in
    let parts = ref [ head ] in
    while
      (not (Queue.is_empty t.writes))
      && !size + String.length (Queue.peek t.writes) <= coalesce_limit
    do
      let s = Queue.pop t.writes in
      size := !size + String.length s;
      parts := s :: !parts
    done;
    let merged = String.concat "" (List.rev !parts) in
    (* Put the merged chunk back in front of whatever did not fit. *)
    let rest = Queue.create () in
    Queue.transfer t.writes rest;
    Queue.add merged t.writes;
    Queue.transfer rest t.writes
  end

let pending t =
  coalesce t;
  match Queue.peek_opt t.writes with
  | None -> None
  | Some head -> Some (head, t.woff)

let wrote t k =
  match Queue.peek_opt t.writes with
  | None -> invalid_arg "Conn.wrote: write queue is empty"
  | Some head ->
      let left = String.length head - t.woff in
      if k < 0 || k > left then
        invalid_arg "Conn.wrote: progress overruns the pending chunk";
      t.wbytes <- t.wbytes - k;
      if k = left then begin
        ignore (Queue.pop t.writes);
        t.woff <- 0
      end
      else t.woff <- t.woff + k

let drain t = if t.st = Open then t.st <- Draining

let close t =
  t.st <- Closed;
  t.rlen <- 0;
  t.rbuf <- Bytes.create 0;
  Queue.clear t.writes;
  t.woff <- 0;
  t.wbytes <- 0

let finished t =
  match t.st with
  | Closed -> true
  | Draining -> t.wbytes = 0
  | Open -> false

let ensure_capacity t extra =
  let need = t.rlen + extra in
  if Bytes.length t.rbuf < need then begin
    let cap = ref (max 4096 (Bytes.length t.rbuf)) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit t.rbuf 0 nb 0 t.rlen;
    t.rbuf <- nb
  end

(* Parse-and-dispatch until the buffer holds no complete frame.  Each
   parsed request is answered immediately and in order, so several
   requests arriving in one read (pipelining) produce their responses
   back-to-back in one write queue.  Frames are parsed at a cursor and
   the consumed prefix is compacted away once, after the loop: k frames
   in one read cost O(bytes), not O(k * bytes). *)
let pump t on_error dispatch =
  let pos = ref 0 in
  let continue = ref true in
  while !continue && t.st = Open && !pos < t.rlen do
    match
      Protocol.parse_request ~max_frame:t.max_frame t.rbuf ~pos:!pos
        ~len:(t.rlen - !pos)
    with
    | Protocol.Need _ -> continue := false
    | Protocol.Done (rq, consumed) ->
        let rs = dispatch rq in
        enqueue t (Protocol.response_to_string rs);
        pos := !pos + consumed
    | Protocol.Fail { code; message; consumed } ->
        enqueue t (Protocol.response_to_string (Protocol.Error (code, message)));
        on_error code;
        if Protocol.error_is_fatal code then begin
          (* The stream is out of sync: answer, flush, hang up. *)
          t.rlen <- 0;
          pos := 0;
          t.st <- Draining
        end
        else pos := !pos + consumed
  done;
  if !pos > 0 then begin
    Bytes.blit t.rbuf !pos t.rbuf 0 (t.rlen - !pos);
    t.rlen <- t.rlen - !pos
  end

let feed ?(on_error = fun _ -> ()) t buf n dispatch =
  if t.st = Open then
    if n = 0 then begin
      (* EOF: whatever was complete has been dispatched on earlier
         feeds; a trailing partial frame is abandoned silently (there
         is nobody left to answer). *)
      t.rlen <- 0;
      t.st <- Draining
    end
    else begin
      ensure_capacity t n;
      Bytes.blit buf 0 t.rbuf t.rlen n;
      t.rlen <- t.rlen + n;
      pump t on_error dispatch
    end
