(** Single-threaded [Unix.select] event loop serving {!Serve.Router}
    queries over TCP — the long-lived form of [advice_store serve].
    DESIGN.md, "Wire protocol & event loop", has the design.

    Each loop round accepts, reads and parses pipelined request frames,
    dispatches them, and flushes write queues.  Dispatch is synchronous
    on the loop thread, so one enormous batch delays other connections
    rather than racing them: batches run through the router's
    {!Serve.Router.batch} on the domain count the router was created
    with, and the loop takes no locks.  A router exception (a malformed
    query, a lost shard) becomes a non-fatal {!Protocol.Rejected} frame
    and the server keeps serving.

    {b Backpressure} is per connection ({!Conn}): a connection stops
    being read while more than 256 KiB of its responses are queued.
    When 1024 peers are connected the listener stops accepting; further
    connects wait in the kernel's listen backlog of 64.

    {b Graceful shutdown.}  {!shutdown} may be called from any domain or
    from a signal handler.  The loop then stops accepting, closes the
    listener (freeing the port), appends a {!Protocol.Shutting_down}
    error frame to every open connection (ordered {e after} all queued
    answers, so a pipelining client can tell exactly which requests made
    the cut), drains every write queue, closes the sockets, and returns
    from {!run}.  Requests fully received before the shutdown are
    answered; bytes arriving after it are never parsed.

    {b Degraded serving} needs no special handling: a router over a
    container with a lost shard answers the surviving node ranges like
    any other and the lost one with an error frame, and the stats frame
    reports the router's own [engine.degraded] / [serve.degraded].

    Obs: [net.accepted], [net.closed], [net.requests], [net.queries],
    [net.batches], [net.errors], [net.bytes_in], [net.bytes_out]
    counters and the [net.batch_size] histogram. *)

(** Where to listen; {!default_config} is the baseline.  A frame is
    capped at {!Protocol.max_frame}. *)
type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** TCP port; [0] asks the kernel for an ephemeral one *)
}

val default_config : config
(** Loopback host, ephemeral port. *)

type t
(** A bound, listening server (not yet running its loop). *)

val create : ?config:config -> Serve.Router.t -> t
(** [create router] opens, binds and listens the socket immediately, so
    {!port} is known before {!run} is entered — a test can bind port 0,
    read the assigned port, and only then start the loop in another
    domain.  The loop then owns [router]: no other thread may query it
    while the server runs.  @raise Invalid_argument before any socket
    is created when [port] is outside 0..65535; @raise
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
    [engine.degraded] and [engine.certified_all]
    ({!Serve.Router.certified_all}) as 0/1 flags and sizes), slot
    residency ([store.shard.resident], [store.shard.resident_bytes],
    [store.shard.loads], [store.shard.evictions], [store.shard.lost]),
    loop counters
    ([net.accepted], [net.active], [net.closed], [net.requests],
    [net.queries], [net.batches], [net.errors], [net.pings],
    [net.stats], [net.bytes_in], [net.bytes_out]) and
    [serve.degraded] ({!Serve.Router.degraded_answers}: the answers
    served while the router was degraded, 0 on a healthy one).  A
    router serving a class table adds its size
    ({!Serve.Router.memo_stats}): [serve.memo.entries] and
    [serve.memo.bytes]; without one the list has neither. *)
