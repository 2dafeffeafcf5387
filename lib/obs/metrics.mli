(** Domain-sharded counters, gauges and histograms.

    Each handle keeps one private cell per OCaml domain, reached through
    [Domain.DLS] — the same isolation contract as
    [Netgraph.Workspace.domain_local], so instrumented code stays safe
    inside [Localmodel.View.map_nodes_par] closures.  {!snapshot} merges
    the shards; counters additionally expose the unmerged per-domain
    totals, which is how the benchmark reports per-domain utilization.

    All recording operations are no-ops (a single atomic load) while the
    subsystem is disabled, which is the default.  Handles are interned by
    name: calling a constructor twice with the same name returns the same
    handle, and reusing a name with a different kind raises
    [Invalid_argument]. *)

(** {1 Enabling} *)

val enabled : unit -> bool
(** Whether recording is currently on. *)

val set_enabled : bool -> unit
(** Turn recording on or off.  Affects every handle at once. *)

(** {1 Handles} *)

type counter
(** A monotonically increasing sum, sharded per domain. *)

type gauge
(** A high-water mark: {!gauge_max} keeps the maximum observed value. *)

type histogram
(** Fixed-bucket histogram of non-negative integers. *)

val counter : string -> counter
(** [counter name] interns and returns the counter called [name]. *)

val gauge : string -> gauge
(** [gauge name] interns and returns the gauge called [name]. *)

val histogram : string -> buckets:int array -> histogram
(** [histogram name ~buckets] interns a histogram whose buckets are the
    strictly increasing inclusive upper bounds [buckets]; observations
    above the last bound land in an overflow slot.  Raises
    [Invalid_argument] if [buckets] is empty or not strictly
    increasing. *)

(** {1 Recording} *)

val incr : counter -> unit
(** Add 1 to the calling domain's shard. *)

val add : counter -> int -> unit
(** [add c k] adds [k] to the calling domain's shard. *)

val gauge_max : gauge -> int -> unit
(** [gauge_max g v] raises [g]'s shard to [v] if [v] is larger. *)

val observe : histogram -> int -> unit
(** [observe h v] records [v] into the matching bucket and updates the
    shard's count, sum and max. *)

(** {1 Snapshots} *)

type histogram_view = {
  bounds : int array;  (** inclusive upper bounds, as registered *)
  counts : int array;  (** merged per-bucket counts, same length *)
  overflow : int;  (** observations above the last bound *)
  count : int;  (** total observations *)
  sum : int;  (** sum of observed values *)
  vmax : int;  (** largest observed value *)
}
(** Merged view of one histogram. *)

(** Merged value of one metric.  [per_domain] lists each shard's total in
    descending order — shard identity is not stable across runs, only the
    multiset of loads is. *)
type value =
  | Counter_v of { total : int; per_domain : int list }
  | Gauge_v of { peak : int }
  | Histogram_v of histogram_view

type entry = { name : string; value : value }
(** One named metric in a snapshot. *)

val snapshot : unit -> entry list
(** All registered metrics, merged across domains, sorted by name.  Exact
    when no domain is concurrently recording (the simulator joins its
    domains before returning, so snapshots between top-level calls are
    exact). *)

val reset : unit -> unit
(** Zero every shard of every metric.  Registration (names, buckets) is
    kept.  Call only while no other domain is recording. *)

(** {1 Model-checking seam} *)

module Cellpush (A : Shim.ATOMIC) : sig
  val push : 'a list A.t -> 'a -> unit
  (** [push cells cell] prepends [cell] to the shared list by
      compare-and-set retry: the publishing step a fresh domain's
      private cell takes into its handle's cell list.  Linearizable —
      concurrent pushes each land exactly once. *)
end
(** The per-domain shard-publishing loop, functorized over the atomic
    shim.  [Cellpush (Shim.Real.Atomic)] is what every handle uses in
    production; the checker instantiates the same code with its
    instrumented atomics to verify no concurrent first-touch can lose a
    cell (see DESIGN.md, "Concurrency model checking"). *)
