(** Crash-consistent file IO with deterministic fault injection — the
    single choke point through which every snapshot byte enters or
    leaves the process.

    {b Writes} are atomic at the file level: {!write_file} stages the
    data in a temporary file in the {e same directory} as the
    destination (so the final rename cannot cross a filesystem), flushes
    it, fsyncs it best-effort, then publishes it with an atomic
    [Sys.rename].  A crash at any byte boundary therefore leaves the
    destination either untouched (the previous file, or nothing) or
    fully replaced — never torn.  [close_out] failures are reported, not
    swallowed, and a failed attempt unlinks its partial temp file.

    {b Reads} ({!read_file}, {!read_to_eof}) loop to end-of-file on a
    binary channel instead of trusting [in_channel_length], so pipes and
    process substitutions work.

    {b Faults} ({!Faults}) is a deterministic fault-injection harness
    for tests and experiments: it can force a short write failing with
    [EIO]/[ENOSPC] at byte [k], a simulated crash that abandons the temp
    file after [k] bytes, and read-side truncation or bit flips.
    Randomized fault plans draw from {!Netgraph.Prng}, so runs are a
    pure function of the seed (the determinism lint stays clean).  When
    no plan is armed the hot paths pay a single reference load.

    Transient faults are retried with bounded backoff inside
    {!write_file}; [EIO]/[ENOSPC] and crashes are not retried.

    Obs: [io.files_written], [io.bytes_written], [io.files_read],
    [io.bytes_read], [io.fsyncs], [io.renames] counters;
    [fault.injected.write], [fault.injected.read], [fault.injected.crash],
    [io.retries] counters and the [io.retry.attempts] histogram (attempts
    consumed by each successful write). *)

(** Classification of injected (and injectable) write errors. *)
type error_kind =
  | Eio  (** device-level read/write error; not retryable *)
  | Enospc  (** no space on device; not retryable *)
  | Transient  (** retryable blip (e.g. interrupted syscall) *)

exception
  Fault of { op : string; path : string; kind : error_kind; at_byte : int }
(** An injected IO error: operation [op] on [path] failed with [kind]
    after [at_byte] bytes had been written.  {!write_file} retries the
    [Transient] kind internally; the other kinds (and a [Transient] that
    exhausts its retry budget) propagate to the caller. *)

exception Crashed of { path : string; persisted : int }
(** An injected crash: the process "died" while staging [path]'s temp
    file, [persisted] bytes into the data.  The temp file is deliberately
    left behind — exactly what a real crash leaves — and the destination
    is untouched.  Only the fault harness raises this. *)

(** Deterministic fault injection.  Arm a {!plan}; the next matching IO
    operations misbehave accordingly; disarm (or let the plan exhaust
    itself) to restore normal service.  Not domain-safe: arm and perform
    the faulted IO from the same domain, as the tests do. *)
module Faults : sig
  (** What to do to the next write. *)
  type write_fault =
    | Write_error of { at_byte : int; kind : error_kind; times : int }
        (** Fail the next [times] staging attempts with {!Fault} after
            [at_byte] bytes (clamped to the data length) reach the temp
            file; the partial temp file is unlinked, as on a real error. *)
    | Crash_at of int
        (** Abandon staging after [k] bytes and raise {!Crashed},
            leaving the partial temp file behind and the destination
            untouched. *)

  (** What to do to the next read. *)
  type read_fault =
    | Truncate_at of int
        (** Return only the first [k] bytes of the file. *)
    | Flip_byte of { at_byte : int; mask : int }
        (** XOR the byte at [at_byte mod length] with [mask land 0xFF]
            after reading. *)

  (** A fault plan: at most one write-side and one read-side fault,
      applied to every matching operation while armed. *)
  type plan = { write : write_fault option; read : read_fault option }

  val none : plan
  (** The empty plan (arming it is equivalent to {!disarm}). *)

  val arm : plan -> unit
  (** Install [plan].  Replaces any previously armed plan and resets the
      [times] budget of its write fault. *)

  val disarm : unit -> unit
  (** Restore fault-free IO. *)

  val enabled : unit -> bool
  (** Whether a plan is currently armed — the single check the IO fast
      path performs. *)

  val random_plan : seed:int -> len:int -> plan
  (** A deterministic pseudo-random plan for fuzzing IO over a [len]-byte
      payload: drawn from {!Netgraph.Prng} seeded with [seed], it picks
      independently (each with positive probability) a write fault
      (error kind, byte position, crash) and a read fault (truncation
      position, flipped byte and mask).  Equal seeds give equal plans. *)
end

val write_file : ?retries:int -> ?backoff:(int -> unit) -> string -> string -> unit
(** [write_file path data] atomically replaces [path] with [data]:
    stage to [path ^ ".tmp"], flush, fsync (best-effort), report
    [close_out] failures, rename over [path], then fsync the directory
    best-effort so the rename itself is durable.  Injected [Transient]
    faults are retried up to [retries] (default 4) times, calling
    [backoff] with the attempt's exponential delay weight (1, 2, 4, …)
    before each retry — the default [backoff] does nothing, keeping
    tests deterministic and instant; callers wanting real pacing can
    sleep in the hook.
    @raise Fault when an injected non-transient fault fires or the retry
    budget is exhausted (the partial temp file has been unlinked).
    @raise Crashed when an injected crash fires (the temp file remains).
    @raise Sys_error when the OS itself fails the write, close or
    rename. *)

val read_file : string -> string
(** [read_file path] reads all of [path] on a binary channel with a
    read-to-EOF loop — correct for pipes and process substitutions,
    where [in_channel_length] lies.  An armed read fault is applied to
    the returned bytes (the file itself is never modified).
    @raise Sys_error when the file cannot be opened or read. *)

val read_to_eof : in_channel -> string
(** Drain an already-open channel to end-of-file.  The channel should be
    in binary mode; the caller closes it.  No fault is applied — faults
    attach to whole-file reads ({!read_file}), not raw channels. *)

val file_size : string -> int
(** Size of [path] in bytes ([Unix.stat]).  @raise Sys_error when the
    file cannot be stat'ed. *)

val read_range : string -> pos:int -> len:int -> string
(** [read_range path ~pos ~len] reads the byte window
    [\[pos, pos + len)] of [path] without materializing the rest of the
    file — the primitive under lazy shard loading: one seek and read on
    a descriptor opened for the call.  A window extending
    past end-of-file reads short (like {!read_to_eof}, truncation is the
    codec's diagnosis to make, not an error here); [len = 0] or a [pos]
    at/past EOF reads empty.  An armed read fault is applied in {e file}
    coordinates, so lazy and eager readers observe the same injured
    file: [Truncate_at k] cuts the file at absolute byte [k], and
    [Flip_byte] damages byte [at_byte mod file_size] for whichever
    window covers it.  Counted by [io.range_reads] / [io.range_bytes].
    @raise Invalid_argument on a negative [pos] or [len].
    @raise Sys_error when the file cannot be opened or read. *)
