exception Protocol_error of { code : Protocol.error_code; message : string }
exception Server_error of { code : Protocol.error_code; message : string }

type t = {
  fd : Unix.file_descr;
  clock : unit -> int64;
  mutable rbuf : Bytes.t;
  mutable rlen : int;
  (* Send timestamps of in-flight requests, FIFO: the head stamps the
     next response. *)
  sent_at : int64 Queue.t;
  mutable closed : bool;
}

let connect ?(host = "127.0.0.1") ?(clock = fun () -> 0L) ~port () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  {
    fd;
    clock;
    rbuf = Bytes.create 65536;
    rlen = 0;
    sent_at = Queue.create ();
    closed = false;
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    match Unix.write_substring fd s !off (len - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let send t rq =
  Queue.add (t.clock ()) t.sent_at;
  write_all t.fd (Protocol.request_to_string rq)

let proto_error code fmt =
  Format.kasprintf
    (fun message -> raise (Protocol_error { code; message }))
    fmt

let ensure_capacity t extra =
  let need = t.rlen + extra in
  if Bytes.length t.rbuf < need then begin
    let cap = ref (Bytes.length t.rbuf) in
    while !cap < need do
      cap := !cap * 2
    done;
    let nb = Bytes.create !cap in
    Bytes.blit t.rbuf 0 nb 0 t.rlen;
    t.rbuf <- nb
  end

let recv ?(on_latency = fun _ -> ()) t =
  if Queue.is_empty t.sent_at then
    invalid_arg "Client.recv: no request in flight";
  let rec parse () =
    match Protocol.parse_response t.rbuf ~pos:0 ~len:t.rlen with
    | Protocol.Done (rs, consumed) ->
        Bytes.blit t.rbuf consumed t.rbuf 0 (t.rlen - consumed);
        t.rlen <- t.rlen - consumed;
        let sent = Queue.pop t.sent_at in
        on_latency (Int64.sub (t.clock ()) sent);
        rs
    | Protocol.Fail { code; message; _ } ->
        proto_error code "unparseable response: %s" message
    | Protocol.Need n ->
        ensure_capacity t (max n 65536);
        let k =
          match
            Unix.read t.fd t.rbuf t.rlen (Bytes.length t.rbuf - t.rlen)
          with
          | k -> k
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> -1
        in
        if k = 0 then
          proto_error Protocol.Bad_frame
            "connection closed mid-frame with %d request(s) unanswered"
            (Queue.length t.sent_at)
        else begin
          if k > 0 then t.rlen <- t.rlen + k;
          parse ()
        end
  in
  parse ()

let roundtrip t rq =
  send t rq;
  match recv t with
  | Protocol.Error (code, message) -> raise (Server_error { code; message })
  | rs -> rs

let ping t =
  match roundtrip t Protocol.Ping with
  | Protocol.Pong -> ()
  | _ -> proto_error Protocol.Bad_tag "ping was not answered with pong"

let stats t =
  match roundtrip t Protocol.Stats with
  | Protocol.Stats_reply kvs -> kvs
  | _ -> proto_error Protocol.Bad_tag "stats was not answered with a stats frame"

let query t q =
  match roundtrip t (Protocol.Query q) with
  | Protocol.Answer a -> a
  | _ -> proto_error Protocol.Bad_tag "query was not answered with an answer"

let batch t qs =
  match roundtrip t (Protocol.Batch qs) with
  | Protocol.Answers az -> az
  | _ -> proto_error Protocol.Bad_tag "batch was not answered with answers"
