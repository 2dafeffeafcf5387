(** Per-connection state machine: buffered frame reading, one ordered
    output buffer, and the backpressure contract between them.  DESIGN.md,
    "Wire protocol & event loop", has the design.

    A connection moves [Open → Draining → Closed]: it drains on end of
    file, on a fatal protocol error (after queueing its error frame) or
    on server shutdown, and still flushes every queued response.  Each
    request frame is checked and decoded where it sits in the read
    buffer ({!Protocol.check_frame}, {!Protocol.decode_request}), and
    each response encoded in place onto the end of the output buffer
    ({!respond}).

    {b Backpressure.}  While the queued output exceeds the write budget,
    {!wants_read} is false and the event loop stops reading the socket,
    so a client that pipelines faster than it drains responses is
    throttled by TCP flow control; reading resumes once the queued bytes
    drop back under budget.

    This module performs no socket IO itself — the event loop feeds
    {!feed} with bytes it read and sends what {!pending} exposes — which
    is what lets the protocol fuzz tests drive the exact production
    state machine without a socket. *)

(** Connection lifecycle state. *)
type state =
  | Open  (** reading requests, writing responses *)
  | Draining  (** flushing queued responses; reads ignored *)
  | Closed  (** finished; the owner may drop the record *)

type t
(** One connection's state: read buffer and output buffer. *)

val create : ?write_budget:int -> unit -> t
(** A fresh connection in state {!Open}.  [write_budget] is the
    queued-response byte bound above which reading pauses (default
    256 KiB); a frame is capped at {!Protocol.max_frame}.
    @raise Invalid_argument when [write_budget] is not positive. *)

val state : t -> state
(** Current lifecycle state. *)

val wants_read : t -> bool
(** Whether the event loop should select this connection for reading:
    [Open] and under the write budget. *)

val wants_write : t -> bool
(** Whether queued response bytes are waiting to be sent. *)

val feed :
  ?on_error:(Protocol.error_code -> unit) ->
  t -> bytes -> int -> (Protocol.request -> Protocol.response) -> unit
(** [feed t buf n dispatch] appends the first [n] bytes just read from
    the socket and parses as many complete frames as they complete,
    calling [dispatch] on each request in arrival order and queuing each
    response — request pipelining is this loop.  A request frame is
    decoded where it sits in the read buffer, and its response encoded
    where it will be sent from: besides the values [dispatch] takes and
    returns, a feed allocates nothing per frame.  Malformed input queues
    an explicit error frame; a fatal one ({!Protocol.error_is_fatal})
    also moves the connection to {!Draining}; [on_error] (default: do
    nothing) observes each queued error frame's code, which is how the
    server's error counters see parse-level failures.  [n = 0] (end of file)
    moves to {!Draining} — any complete, already-buffered requests were
    dispatched first, so a client may close its write side and still
    collect every answer.  No-op when not {!Open}. *)

val respond : t -> Protocol.response -> unit
(** Encode one response in place at the end of the output, after every
    response already queued: how {!feed} answers each request, and how
    a server appends an unsolicited frame (the {!Protocol.Shutting_down}
    goodbye) to an {!Open} connection. *)

val pending : t -> (bytes * int * int) option
(** The bytes to send next, as [(buf, pos, len)]: every queued byte, in
    order, is [buf.[pos .. pos+len-1]] — a burst of pipelined answers
    goes out in one write.  Send any prefix and report progress with
    {!wrote}; the range is valid until then.  [None] when nothing is
    queued. *)

val wrote : t -> int -> unit
(** [wrote t k] records that the first [k] bytes of the {!pending}
    range reached the socket.  @raise Invalid_argument when [k]
    overruns it. *)

val drain : t -> unit
(** Ask the connection to stop accepting requests (server shutdown):
    moves {!Open} to {!Draining}, keeping queued responses flushable. *)

val finished : t -> bool
(** [true] once the connection is {!Draining} with nothing queued
    (or already {!Closed}) — the loop should close the socket. *)

val close : t -> unit
(** Move to {!Closed} and drop buffered state. *)
