(** Per-connection state machine: buffered frame reading, one ordered
    output buffer, and the backpressure contract between them.

    A connection moves through three states:

    {v
    Open ──(EOF / fatal error / server drain)──▶ Draining ──▶ Closed
    v}

    - {b Open}: bytes are read into a growable buffer, where each frame
      is checked and decoded in place ({!Protocol.check_frame},
      {!Protocol.decode_request}); each response is encoded in place
      onto the end of the output buffer ({!Protocol.put_response}).
      Within the
      state, the loop alternates {e reading header → reading body →
      writing response} per frame — the phase is implicit in how many
      buffered bytes the parser asked for ({!Protocol.Need}).
    - {b Draining}: no more requests will be accepted (the peer hung up,
      a fatal protocol error was answered, or the server is shutting
      down); already-queued responses are still flushed.
    - {b Closed}: the socket is gone.

    {b Backpressure.}  The queued output is bounded by a byte budget: once
    the queued bytes exceed it, {!wants_read} turns false and the event
    loop stops selecting the socket for reading, so a client that
    pipelines faster than it drains responses is throttled by TCP flow
    control instead of ballooning server memory.  Reading resumes as
    soon as the queued bytes drop back under budget.

    This module performs no socket IO itself — the event loop feeds
    {!feed} with bytes it read and sends what {!pending} exposes —
    which is what lets the protocol fuzz tests drive the exact
    production state machine without a socket. *)

(** Connection lifecycle state. *)
type state =
  | Open  (** reading requests, writing responses *)
  | Draining  (** flushing queued responses; reads ignored *)
  | Closed  (** finished; the owner may drop the record *)

type t
(** One connection's state: read buffer and output buffer. *)

val create : ?max_frame:int -> ?write_budget:int -> unit -> t
(** A fresh connection in state {!Open}.  [max_frame] caps one frame's
    encoded size (default {!Protocol.default_max_frame}); [write_budget]
    is the queued-response byte bound above which reading pauses
    (default 256 KiB).  @raise Invalid_argument when either is not
    positive. *)

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

val enqueue : t -> string -> unit
(** Append an already-encoded frame to the output (used for
    unsolicited error frames, e.g. {!Protocol.Shutting_down}), after
    every answer already queued.  No-op when {!Closed}. *)

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

val queued_bytes : t -> int
(** Bytes queued and not yet sent (the backpressure quantity). *)

val drain : t -> unit
(** Ask the connection to stop accepting requests (server shutdown):
    moves {!Open} to {!Draining}, keeping queued responses flushable. *)

val finished : t -> bool
(** [true] once the connection is {!Draining} with nothing queued
    (or already {!Closed}) — the loop should close the socket. *)

val close : t -> unit
(** Move to {!Closed} and drop buffered state. *)
