(** One JSON emitter for the whole repository.

    The benchmark reports ([BENCH_local.json]), the {!Sink} snapshots and
    the [--metrics] output of the CLIs all serialize through this module,
    so escaping and number formatting agree everywhere.  The printer is
    deliberately tiny — a value type and a deterministic pretty-printer —
    because the repository has a zero-dependency policy for [lib/]. *)

(** A JSON value; [Obj] preserves field order as given. *)
type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** NaN and infinities render as [null] *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Render with two-space indentation; scalar-only lists stay on one
    line.  The output carries no trailing newline. *)

val to_channel : out_channel -> t -> unit
(** {!to_string} plus a final newline. *)

val write_file : string -> t -> unit
(** Create (or truncate) a file holding the rendered value. *)
