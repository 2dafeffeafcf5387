type state = Open | Draining | Closed

type t = {
  write_budget : int;
  mutable st : state;
  (* Read side: one growable buffer, [rlen] valid bytes starting at 0.
     A feed checks and decodes its frames where they sit, at a cursor,
     and compacts the consumed prefix away once at the end, so the
     buffer never holds more than one incomplete frame plus one read
     chunk. *)
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  (* Write side: one growable buffer; the bytes still to send are
     [wbuf.[wpos .. wend-1]].  Answers are encoded straight onto its
     end, so a burst of pipelined answers is already one chunk. *)
  mutable wbuf : Bytes.t;
  mutable wpos : int;
  mutable wend : int;
}

let create ?(write_budget = 256 * 1024) () =
  if write_budget <= 0 then
    invalid_arg "Conn.create: write_budget must be positive";
  {
    write_budget;
    st = Open;
    rbuf = Bytes.create 4096;
    rlen = 0;
    wbuf = Bytes.create 4096;
    wpos = 0;
    wend = 0;
  }

let state t = t.st
let queued_bytes t = t.wend - t.wpos
let wants_read t = t.st = Open && queued_bytes t <= t.write_budget
let wants_write t = t.st <> Closed && queued_bytes t > 0

(* Room for [k] more bytes at the write end: the sent prefix is dropped
   first, and the buffer doubles only when that is not enough. *)
let reserve t k =
  let queued = queued_bytes t in
  if t.wend + k > Bytes.length t.wbuf then begin
    let dst =
      if queued + k <= Bytes.length t.wbuf then t.wbuf
      else begin
        let cap = ref (max 4096 (Bytes.length t.wbuf)) in
        while !cap < queued + k do
          cap := !cap * 2
        done;
        Bytes.create !cap
      end
    in
    Bytes.blit t.wbuf t.wpos dst 0 queued;
    t.wbuf <- dst;
    t.wpos <- 0;
    t.wend <- queued
  end

(* One answer, encoded in place at the write end. *)
let respond t rs =
  reserve t (Protocol.response_size rs);
  t.wend <- Protocol.put_response t.wbuf t.wend rs

let pending t = if t.wend > t.wpos then Some (t.wbuf, t.wpos, t.wend - t.wpos) else None

let wrote t k =
  if k < 0 || k > queued_bytes t then
    invalid_arg "Conn.wrote: progress overruns the pending bytes";
  t.wpos <- t.wpos + k;
  if t.wpos = t.wend then begin
    t.wpos <- 0;
    t.wend <- 0
  end

let drain t = if t.st = Open then t.st <- Draining

let close t =
  t.st <- Closed;
  t.rlen <- 0;
  t.rbuf <- Bytes.create 0;
  t.wbuf <- Bytes.create 0;
  t.wpos <- 0;
  t.wend <- 0

let finished t =
  match t.st with
  | Closed -> true
  | Draining -> queued_bytes t = 0
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

(* Answer a refused frame with its error frame; a fatal refusal means
   the stream is out of sync: answer, flush, hang up.  Returns whether
   it was fatal. *)
let refused t on_error code message =
  respond t (Protocol.Error (code, message));
  on_error code;
  let fatal = Protocol.error_is_fatal code in
  if fatal then begin
    t.rlen <- 0;
    t.st <- Draining
  end;
  fatal

(* Check-decode-dispatch-encode until the buffer holds no complete
   frame.  Each request is answered immediately and in order, so
   several requests arriving in one read (pipelining) produce their
   answers back-to-back in the write buffer.  Frames are decoded at a
   cursor and the consumed prefix is compacted away once, after the
   loop: k frames in one read cost O(bytes), not O(k * bytes).  The
   loop itself allocates nothing. *)
let pump t on_error dispatch =
  let pos = ref 0 in
  let continue = ref true in
  while !continue && t.st = Open && !pos < t.rlen do
    match Protocol.check_frame t.rbuf ~pos:!pos ~len:(t.rlen - !pos) with
    | exception Protocol.Refused (code, message) ->
        ignore (refused t on_error code message);
        pos := 0
    | size when size < 0 -> continue := false
    | size -> (
        match Protocol.decode_request t.rbuf ~pos:!pos ~len:size with
        | exception Protocol.Refused (code, message) ->
            pos := if refused t on_error code message then 0 else !pos + size
        | rq ->
            respond t (dispatch rq);
            pos := !pos + size)
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
