module Router = Serve.Router

let m_accepted = Obs.Metrics.counter "net.accepted"
let m_closed = Obs.Metrics.counter "net.closed"
let m_requests = Obs.Metrics.counter "net.requests"
let m_queries = Obs.Metrics.counter "net.queries"
let m_batches = Obs.Metrics.counter "net.batches"
let m_errors = Obs.Metrics.counter "net.errors"
let m_bytes_in = Obs.Metrics.counter "net.bytes_in"
let m_bytes_out = Obs.Metrics.counter "net.bytes_out"

let m_batch_size =
  Obs.Metrics.histogram "net.batch_size"
    ~buckets:[| 1; 4; 16; 64; 256; 1024; 4096; 16384 |]

type config = { host : string; port : int }

let default_config = { host = "127.0.0.1"; port = 0 }

(* The listen backlog, the connection cap above which the listener
   stops accepting (further connects wait in that backlog), and each
   connection's write budget: the queued-response bytes above which it
   stops being read. *)
let backlog = 64
let max_conns = 1024
let write_budget = 256 * 1024

(* Cumulative loop counters.  The loop is single-threaded, so plain
   mutable ints are exact; they are mirrored into Obs counters so a
   --metrics run exports them too. *)
type counters = {
  mutable accepted : int;
  mutable closed : int;
  mutable requests : int;
  mutable queries : int;
  mutable batches : int;
  mutable pings : int;
  mutable stats_reqs : int;
  mutable errors : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

type t = {
  router : Router.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  (* Self-pipe: shutdown () writes one byte from any domain or signal
     handler; the loop selects the read end. *)
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  mutable conns : (Unix.file_descr * Conn.t) list;
  mutable shutting : bool;
  mutable state : [ `Created | `Running | `Finished ];
  c : counters;
}

let check_config c =
  if c.port < 0 || c.port > 65535 then
    invalid_arg (Printf.sprintf "Server.create: port %d is outside 0..65535" c.port)

let create ?(config = default_config) router =
  check_config config;
  (* A peer that disappears mid-write must surface as EPIPE on the
     write call, not as a process-killing signal. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string config.host, config.port));
     Unix.listen fd backlog;
     Unix.set_nonblock fd
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> config.port
  in
  let pipe_r, pipe_w = Unix.pipe () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  {
    router;
    listen_fd = fd;
    bound_port;
    pipe_r;
    pipe_w;
    conns = [];
    shutting = false;
    state = `Created;
    c =
      {
        accepted = 0;
        closed = 0;
        requests = 0;
        queries = 0;
        batches = 0;
        pings = 0;
        stats_reqs = 0;
        errors = 0;
        bytes_in = 0;
        bytes_out = 0;
      };
  }

let port t = t.bound_port

let shutdown t =
  (* Async-signal-safe: one nonblocking write, no allocation beyond the
     buffer.  A full pipe means a wakeup is already pending. *)
  try ignore (Unix.write t.pipe_w (Bytes.make 1 '\001') 0 1)
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EBADF), _, _) ->
    ()

let stats t =
  let r = t.router in
  let flag b = if b then 1 else 0 in
  (* Only a server with a memo reports it, so a memo-less stats frame
     keeps its exact keys. *)
  let memo =
    match Router.memo_stats r with
    | None -> []
    | Some s ->
        [
          ("serve.memo.entries", s.Serve.Memo.s_entries);
          ("serve.memo.bytes", s.Serve.Memo.s_bytes);
        ]
  in
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.rev_append memo
    [
      ("engine.certified_all", flag (Router.certified_all r));
      ("engine.degraded", flag (Router.degraded r));
      ("engine.n", Router.n r);
      ("engine.m", Router.m r);
      ("engine.radius", Router.radius r);
      ("engine.shards", Router.slot_count r);
      ("store.shard.resident", Router.resident_shards r);
      ("store.shard.resident_bytes", Router.resident_bytes r);
      ("store.shard.loads", Router.loads r);
      ("store.shard.evictions", Router.evictions r);
      ("store.shard.lost", List.length (Router.lost_shards r));
      ("net.accepted", t.c.accepted);
      ("net.active", List.length t.conns);
      ("net.closed", t.c.closed);
      ("net.requests", t.c.requests);
      ("net.queries", t.c.queries);
      ("net.batches", t.c.batches);
      ("net.pings", t.c.pings);
      ("net.stats", t.c.stats_reqs);
      ("net.errors", t.c.errors);
      ("net.bytes_in", t.c.bytes_in);
      ("net.bytes_out", t.c.bytes_out);
      ("serve.degraded", Router.degraded_answers r);
    ])

let note_answered t count =
  t.c.queries <- t.c.queries + count;
  Obs.Metrics.add m_queries count

(* A failed answer becomes a non-fatal Rejected frame, so no router
   exception can kill the select loop; anything else is a bug and
   propagates. *)
let reject t e =
  let msg =
    match e with
    | Invalid_argument msg | Store.Codec.Corrupt msg | Sys_error msg -> msg
    | Router.Shard_lost { shard; reason } ->
        Printf.sprintf "shard %d lost: %s" shard reason
    | e -> raise e
  in
  t.c.errors <- t.c.errors + 1;
  Obs.Metrics.incr m_errors;
  Protocol.Error (Protocol.Rejected, msg)

let dispatch t rq =
  t.c.requests <- t.c.requests + 1;
  Obs.Metrics.incr m_requests;
  match rq with
  | Protocol.Ping ->
      t.c.pings <- t.c.pings + 1;
      Protocol.Pong
  | Protocol.Stats ->
      t.c.stats_reqs <- t.c.stats_reqs + 1;
      Protocol.Stats_reply (stats t)
  | Protocol.Query q -> (
      match Router.query t.router q with
      | a ->
          note_answered t 1;
          Protocol.Answer a
      | exception e -> reject t e)
  | Protocol.Batch qs -> (
      t.c.batches <- t.c.batches + 1;
      Obs.Metrics.incr m_batches;
      if Obs.Metrics.enabled () then
        Obs.Metrics.observe m_batch_size (Array.length qs);
      match Router.batch t.router qs with
      | az ->
          note_answered t (Array.length az);
          Protocol.Answers az
      | exception e -> reject t e)

let close_conn t fd conn =
  Conn.close conn;
  (try Unix.close fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun (f, _) -> f != fd) t.conns;
  t.c.closed <- t.c.closed + 1;
  Obs.Metrics.incr m_closed

let accept_ready t =
  let continue = ref true in
  while !continue && not t.shutting && List.length t.conns < max_conns do
    match Unix.accept t.listen_fd with
    | fd, _addr ->
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let conn = Conn.create ~write_budget () in
        t.conns <- (fd, conn) :: t.conns;
        t.c.accepted <- t.c.accepted + 1;
        Obs.Metrics.incr m_accepted
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) -> ()
  done

let read_ready t chunk fd conn =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | n ->
      t.c.bytes_in <- t.c.bytes_in + n;
      Obs.Metrics.add m_bytes_in n;
      Conn.feed conn chunk n
        ~on_error:(fun _code ->
          t.c.errors <- t.c.errors + 1;
          Obs.Metrics.incr m_errors)
        (dispatch t)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error (_, _, _) -> close_conn t fd conn

(* Send the queued bytes until none are left or the socket pushes back:
   a short write or EAGAIN means the kernel buffer is full, and the next
   select reports when it has room.  [Conn.pending] is every queued
   byte in one range of the connection's output buffer, so a burst of
   pipelined answers costs one write, not one select round each. *)
let write_ready t fd conn =
  let continue = ref true in
  while !continue do
    match Conn.pending conn with
    | None -> continue := false
    | Some (buf, pos, len) -> (
        match Unix.write fd buf pos len with
        | k ->
            t.c.bytes_out <- t.c.bytes_out + k;
            Obs.Metrics.add m_bytes_out k;
            Conn.wrote conn k;
            if k < len then continue := false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            continue := false
        | exception Unix.Unix_error (_, _, _) ->
            close_conn t fd conn;
            continue := false)
  done

let begin_shutdown t =
  if not t.shutting then begin
    t.shutting <- true;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    let goodbye =
      Protocol.Error (Protocol.Shutting_down, "server is draining; no further requests")
    in
    List.iter
      (fun (_, conn) ->
        if Conn.state conn = Conn.Open then begin
          (* Ordered after every queued answer, so a pipelining client
             can tell exactly which of its requests made the cut. *)
          Conn.respond conn goodbye;
          Conn.drain conn
        end)
      t.conns
  end

(* Shutdown drain bound: once shutting, each select uses a short timeout
   and this many empty-progress rounds force-close the stragglers, so a
   peer that never drains its socket cannot pin the process (roughly
   [drain_rounds * drain_timeout] seconds of grace). *)
let drain_rounds = 100
let drain_timeout = 0.1

let run t =
  (match t.state with
  | `Created -> t.state <- `Running
  | `Running -> invalid_arg "Server.run: already running"
  | `Finished -> invalid_arg "Server.run: server was already shut down");
  let chunk = Bytes.create 65536 in
  let stubborn = ref 0 in
  let finished = ref false in
  while not !finished do
    let reads =
      t.pipe_r
      :: (if (not t.shutting) && List.length t.conns < max_conns then
            [ t.listen_fd ]
          else [])
      @ List.filter_map
          (fun (fd, c) -> if Conn.wants_read c then Some fd else None)
          t.conns
    in
    let writes =
      List.filter_map
        (fun (fd, c) -> if Conn.wants_write c then Some fd else None)
        t.conns
    in
    let timeout = if t.shutting then drain_timeout else -1.0 in
    match Unix.select reads writes [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | rready, wready, _ ->
        if List.memq t.pipe_r rready then begin
          let drain = Bytes.create 16 in
          (try
             while Unix.read t.pipe_r drain 0 16 > 0 do
               ()
             done
           with Unix.Unix_error _ -> ());
          begin_shutdown t
        end;
        if (not t.shutting) && List.memq t.listen_fd rready then accept_ready t;
        (* Answers produced by a read go out in the same round: the
           socket is almost always writable, and waiting for the next
           select to say so would cost a select per burst. *)
        List.iter
          (fun (fd, conn) ->
            if List.memq fd rready then read_ready t chunk fd conn;
            if
              Conn.state conn <> Conn.Closed
              && (List.memq fd wready || Conn.wants_write conn)
            then write_ready t fd conn)
          t.conns;
        (* Sweep: EOF'd/errored conns whose queues drained, plus — when
           the drain grace is exhausted — everyone still lingering. *)
        let sweep = List.filter (fun (_, c) -> Conn.finished c) t.conns in
        List.iter (fun (fd, c) -> close_conn t fd c) sweep;
        if t.shutting then begin
          incr stubborn;
          if !stubborn > drain_rounds then
            List.iter (fun (fd, c) -> close_conn t fd c) t.conns;
          if t.conns = [] then finished := true
        end
  done;
  t.state <- `Finished;
  (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
  try Unix.close t.pipe_w with Unix.Unix_error _ -> ()
