(** Single-threaded [Unix.select] event loop serving {!Serve.Router}
    queries over TCP — the long-lived form of [advice_store serve].

    One loop iteration selects over the listening socket, a self-pipe
    (the cross-domain shutdown signal), and every connection that wants
    IO per its {!Conn} state machine; then accepts, reads and parses
    pipelined request frames, dispatches them (batches through the
    router's parallel {!Serve.Router.batch} slot fan-out, on the domain
    count the router was created with), and flushes write queues.
    Dispatch is synchronous on the loop thread: one enormous batch
    delays other connections rather than racing them, which is the
    deliberate trade — the router's domain pool is where parallelism
    lives, and the loop stays free of locks entirely.  The router
    ({!Serve.Router.create}) serves either snapshot version; a
    router exception (a malformed query, a lost shard) becomes a
    non-fatal {!Protocol.Rejected} frame and the server keeps serving.

    {b Backpressure} is per connection ({!Conn}): a peer whose response
    queue exceeds the write budget stops being read until the queue
    drains, so slow readers throttle themselves through TCP flow control
    instead of growing server memory.  When {!config.max_conns} peers
    are connected the listener stops accepting; further connects wait in
    the kernel backlog.

    {b Graceful shutdown.}  {!shutdown} may be called from any domain or
    from a signal handler: it writes one byte to the self-pipe.  The
    loop then stops accepting, closes the listener (freeing the port),
    appends a {!Protocol.Shutting_down} error frame to every open
    connection (ordered {e after} all queued answers, so a pipelining
    client can tell exactly which requests made the cut), drains every
    write queue, closes the sockets, and returns from {!run}.  Requests
    fully received before the shutdown byte are answered; bytes arriving
    after it are never parsed.

    {b Degraded serving} needs no special handling here: a router over a
    salvaged version-1 file or a container with a lost shard answers
    like any other, and the stats frame exposes [engine.degraded] /
    [serve.degraded] so clients can see they are being served
    best-effort from a damaged snapshot.

    Obs: [net.accepted], [net.closed], [net.requests], [net.queries],
    [net.batches], [net.errors], [net.bytes_in], [net.bytes_out]
    counters and the [net.batch_size] histogram. *)

(** Loop parameters; {!default_config} is the baseline. *)
type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** TCP port; [0] asks the kernel for an ephemeral one *)
  backlog : int;  (** listen backlog, default 64 *)
  max_conns : int;  (** accepted-connection cap, default 1024 *)
  max_frame : int;  (** per-frame byte cap, {!Protocol.default_max_frame} *)
  write_budget : int;
      (** per-connection queued-response bound (bytes) above which the
          connection stops being read, default 256 KiB *)
}

val default_config : config
(** Loopback host, ephemeral port, and the defaults listed above. *)

type t
(** A bound, listening server (not yet running its loop). *)

val create : ?config:config -> Serve.Router.t -> t
(** [create router] opens, binds and listens the socket immediately, so
    {!port} is known before {!run} is entered — a test can bind port 0,
    read the assigned port, and only then start the loop in another
    domain.  The loop then owns [router]: no other thread may query it
    while the server runs.  @raise Invalid_argument before any socket
    is created when [port] is outside 0..65535, or [backlog],
    [max_conns], [max_frame] or [write_budget] is below 1; @raise
    Unix.Unix_error when binding fails (address in use, permission). *)

val port : t -> int
(** The actually bound TCP port (resolves port [0] requests). *)

val run : t -> unit
(** Run the event loop until {!shutdown} completes its drain.  Must be
    called at most once.  @raise Invalid_argument on a second call or on
    a server that was already shut down. *)

val shutdown : t -> unit
(** Request graceful shutdown: async-signal-safe and callable from any
    domain (it writes the self-pipe and returns without waiting).
    Idempotent.  {!run} returns once every connection has drained. *)

val stats : t -> (string * int) list
(** The counter pairs a {!Protocol.Stats} request is answered with,
    sorted by name: router facts ([engine.n], [engine.m],
    [engine.radius], [engine.shards] (the slot count),
    [engine.degraded], [engine.trusted] and [engine.certified_all]
    ({!Serve.Router.certified_all}) as 0/1 flags and sizes), slot
    residency ([store.shard.resident], [store.shard.resident_bytes],
    [store.shard.loads], [store.shard.evictions], [store.shard.lost]),
    loop counters
    ([net.accepted], [net.active], [net.closed], [net.requests],
    [net.queries], [net.batches], [net.errors], [net.pings],
    [net.stats], [net.bytes_in], [net.bytes_out]) and
    [serve.degraded] — the count of queries answered while the router
    was degraded, 0 on a healthy one.  A router with a memo adds its
    counters ({!Serve.Router.memo_stats}): [serve.memo.entries],
    [serve.memo.bytes], [serve.memo.stores], [serve.memo.drops] and
    [serve.memo.first_sightings]; without one the list has none of
    them. *)
