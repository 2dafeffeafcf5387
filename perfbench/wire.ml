(* One loopback connection driven by a select loop over Net.Protocol's
   frame encoder and incremental response parser.  Net.Client.recv
   blocks, which an open loop cannot afford: it must keep sending on
   schedule while answers are still in flight. *)

module Engine = Serve.Engine
module P = Net.Protocol

type conn = {
  fd : Unix.file_descr;
  mutable obuf : Bytes.t;
  mutable olen : int;
  mutable opos : int;
  mutable ibuf : Bytes.t;
  mutable ilen : int;
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.TCP_NODELAY true;
     Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with e ->
     Unix.close fd;
     raise e);
  Unix.set_nonblock fd;
  {
    fd;
    obuf = Bytes.create 65_536;
    olen = 0;
    opos = 0;
    ibuf = Bytes.create 65_536;
    ilen = 0;
  }

let close c = Unix.close c.fd

let grow buf need =
  if need <= Bytes.length buf then buf
  else begin
    let b = Bytes.create (max need (2 * Bytes.length buf)) in
    Bytes.blit buf 0 b 0 (Bytes.length buf);
    b
  end

let enqueue c req =
  let frame = P.request_to_string req in
  let len = String.length frame in
  c.obuf <- grow c.obuf (c.olen + len);
  Bytes.blit_string frame 0 c.obuf c.olen len;
  c.olen <- c.olen + len

let retry = function
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
  | _ -> false

let write_some c =
  match Unix.write c.fd c.obuf c.opos (c.olen - c.opos) with
  | k ->
      c.opos <- c.opos + k;
      if c.opos = c.olen then begin
        c.opos <- 0;
        c.olen <- 0
      end
  | exception e when retry e -> ()

(* Read what the socket holds and hand every complete response frame to
   [on_response]; a partial frame waits in the buffer for the next
   read. *)
let read_some c ~on_response =
  c.ibuf <- grow c.ibuf (c.ilen + 65_536);
  match Unix.read c.fd c.ibuf c.ilen (Bytes.length c.ibuf - c.ilen) with
  | 0 -> failwith "the server closed the connection"
  | k ->
      c.ilen <- c.ilen + k;
      let pos = ref 0 and more = ref true in
      while !more do
        match P.parse_response c.ibuf ~pos:!pos ~len:(c.ilen - !pos) with
        | P.Done (resp, used) ->
            pos := !pos + used;
            on_response resp
        | P.Need _ -> more := false
        | P.Fail { message; _ } -> failwith ("unparseable response frame: " ^ message)
      done;
      Bytes.blit c.ibuf !pos c.ibuf 0 (c.ilen - !pos);
      c.ilen <- c.ilen - !pos
  | exception e when retry e -> ()

let pump c ~timeout ~on_response =
  let writes = if c.olen > c.opos then [ c.fd ] else [] in
  match Unix.select [ c.fd ] writes [] timeout with
  | r, w, _ ->
      if w <> [] then write_some c;
      if r <> [] then read_some c ~on_response
  | exception e when retry e -> ()

(* One request, one response: idle round trips (ping, stats, the setup
   probe). *)
let round_trip c req =
  enqueue c req;
  let got = ref None in
  while Option.is_none !got do
    pump c ~timeout:1.0 ~on_response:(fun r -> got := Some r)
  done;
  Option.get !got

(* ------------------------------------------------------------------ *)
(* Verification and tallies *)

type tally = {
  mutable attempted : int;  (** queries sent *)
  mutable failed : int;  (** wrong answers, error frames and refusals *)
}

let tally () = { attempted = 0; failed = 0 }

(* Every answer is compared with the oracle; an error frame fails every
   query it answers. *)
let check ~expected tally qs resp =
  tally.attempted <- tally.attempted + Array.length qs;
  let wrong =
    match resp with
    | P.Answer a when Array.length qs = 1 -> if a = expected qs.(0) then 0 else 1
    | P.Answers arr when Array.length arr = Array.length qs ->
        let k = ref 0 in
        Array.iteri (fun i a -> if a <> expected qs.(i) then incr k) arr;
        !k
    | _ -> Array.length qs
  in
  tally.failed <- tally.failed + wrong

(* ------------------------------------------------------------------ *)
(* Closed loop: [window] request frames in flight until [frames] have
   been sent or [seconds] have passed, then drain.  Returns (queries
   answered, nanoseconds from the first send to the last answer). *)
let closed_loop ?(frames = max_int) c ~next_frame ~window ~seconds ~verify =
  let inflight = Queue.create () in
  let answered = ref 0 and sent = ref 0 in
  let t0 = Timing.now_ns () in
  let deadline = t0 + int_of_float (seconds *. 1e9) in
  let last = ref t0 in
  let on_response resp =
    let qs = Queue.pop inflight in
    verify qs resp;
    answered := !answered + Array.length qs;
    last := Timing.now_ns ()
  in
  let sending () = !sent < frames && Timing.now_ns () < deadline in
  while sending () || not (Queue.is_empty inflight) do
    while Queue.length inflight < window && sending () do
      let qs = next_frame () in
      enqueue c (Workload.request qs);
      Queue.push qs inflight;
      incr sent
    done;
    pump c ~timeout:0.05 ~on_response
  done;
  (!answered, !last - t0)

(* Open loop at [rate] frames per second for [seconds]: frame [i] is due
   at [Timing.due_ns ~start ~rate i] and is timed from then.  Returns the
   per-frame latencies and send lags in nanoseconds. *)
let open_loop c ~next_frame ~rate ~seconds ~verify =
  let count = max 1 (int_of_float (rate *. seconds)) in
  let latency = Array.make count 0 and lag = Array.make count 0 in
  let inflight = Queue.create () in
  let start = Timing.now_ns () + 1_000_000 in
  let due i = Timing.due_ns ~start ~rate i in
  let sent = ref 0 and received = ref 0 in
  let on_response resp =
    let i, qs = Queue.pop inflight in
    latency.(i) <- Timing.latency_ns ~due:(due i) ~received:(Timing.now_ns ());
    verify qs resp;
    incr received
  in
  while !received < count do
    let now = Timing.now_ns () in
    while !sent < count && due !sent <= now do
      let qs = next_frame () in
      enqueue c (Workload.request qs);
      lag.(!sent) <- Timing.lag_ns ~due:(due !sent) ~sent:now;
      Queue.push (!sent, qs) inflight;
      incr sent
    done;
    let timeout =
      if !sent < count then Timing.seconds (max 0 (due !sent - Timing.now_ns ()))
      else 0.05
    in
    pump c ~timeout ~on_response
  done;
  (latency, lag)

(* Idle Ping round trips: the select loop plus loopback socket floor. *)
let ping_rtts c k =
  Array.init k (fun _ ->
      let (_ : P.response), ns = Timing.timed (fun () -> round_trip c P.Ping) in
      ns)

let stats c =
  match round_trip c P.Stats with
  | P.Stats_reply kvs -> kvs
  | _ -> failwith "the server did not answer Stats with a stats frame"
