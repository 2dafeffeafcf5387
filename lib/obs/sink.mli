(** Snapshot export as JSON (through {!Jsonout}).

    The sink is pull-based — it reads whatever {!Metrics.snapshot} and
    {!Trace.summary} return at call time; nothing is recorded here, so a
    disabled ("no-op") observability stack exports empty collections. *)

val enable : unit -> unit
(** Turn on both {!Metrics} and {!Trace} recording. *)

val disable : unit -> unit
(** Turn off both {!Metrics} and {!Trace} recording. *)

val reset : unit -> unit
(** Zero all metric shards and drop all trace state. *)

val json : ?per_domain:bool -> ?events:int -> unit -> Jsonout.t
(** Merged snapshot as a JSON object with fields [counters], [gauges],
    [histograms] and [trace].  [per_domain] (default [true]) includes
    each counter's unmerged per-domain totals — pass [false] when
    comparing runs with different domain counts.  [events] (default [0])
    appends the last [events] entries of the merged ring-buffer log under
    [trace.events]. *)

val write_json : ?per_domain:bool -> ?events:int -> string -> unit
(** [write_json path] renders {!json} into [path]. *)
