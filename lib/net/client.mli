(** Blocking TCP client for the {!Protocol} wire format — the load
    generator's engine and the loopback tests' harness.

    The client separates {!send} (buffered, flushed per call) from
    {!recv} (block until the next complete response frame), so callers
    control the pipelining discipline themselves: [send] k requests,
    then interleave further sends with receives to hold a fixed window
    in flight.  Responses arrive in request order — the protocol has no
    request ids precisely because the server guarantees ordered
    answers per connection.

    Timing is injected, never read ambiently: {!connect} takes an
    optional monotonic [clock] (any [unit -> int64] the caller trusts,
    e.g. nanoseconds) and {!recv} reports each response's wall interval
    since its {!send} through the [on_latency] callback — keeping this
    module free of wall-clock reads per the repository's determinism
    contract (timing belongs to bench/, which supplies the clock). *)

exception Protocol_error of { code : Protocol.error_code; message : string }
(** The peer's byte stream failed to parse ([code] from the parser), or
    the peer hung up mid-frame ({!Protocol.Bad_frame} with an
    end-of-file message). *)

exception Server_error of { code : Protocol.error_code; message : string }
(** The server answered with an explicit error frame.  Raised by the
    convenience wrappers ({!query}, {!batch}, {!ping}, {!stats});
    {!recv} returns error frames as values instead. *)

type t
(** One open connection. *)

val connect : ?host:string -> ?clock:(unit -> int64) -> port:int -> unit -> t
(** Connect to [host:port] (default host ["127.0.0.1"]).  [clock]
    (default: the constant [0L]) timestamps sends for {!recv}'s latency
    reporting.  A response frame is capped at {!Protocol.max_frame}.
    @raise Unix.Unix_error on refusal. *)

val close : t -> unit
(** Close the socket.  Idempotent. *)

val send : t -> Protocol.request -> unit
(** Encode, stamp with the clock, and write one request frame (blocking
    until the kernel accepts all its bytes).  @raise Unix.Unix_error on
    a broken connection. *)

val recv : ?on_latency:(int64 -> unit) -> t -> Protocol.response
(** Block until the next response frame is complete and return it
    (error frames included — matching them to requests is positional).
    [on_latency] receives [clock () - clock-at-send] for the request
    this response answers.  @raise Protocol_error when the stream is
    unparseable or ends mid-frame; @raise Invalid_argument when nothing
    is in flight. *)

(** {1 Convenience wrappers}

    One request, one response, {!Server_error} on an error frame and
    {!Protocol_error} on a mangled reply (e.g. a [Pong] to a query). *)

val ping : t -> unit
(** Round-trip a {!Protocol.Ping}. *)

val stats : t -> (string * int) list
(** Fetch the server's stats frame. *)

val query : t -> Serve.Engine.query -> Serve.Engine.answer
(** Round-trip one ball-local query. *)

val batch : t -> Serve.Engine.query array -> Serve.Engine.answer array
(** Round-trip one batch frame. *)
