(** Simple undirected graphs with dense node ids.

    Nodes are [0..n-1].  Edges are undirected, without self-loops or
    parallel edges, and carry dense edge ids [0..m-1]; the endpoints of an
    edge are normalized so that the first is the smaller node id.  Neighbor
    arrays are sorted, which gives every algorithm in the library a
    canonical, ID-based local ordering — the same ordering a LOCAL-model
    node would derive from the unique identifiers of its neighbors.

    A graph is stored as compressed sparse rows: three flat {!rows} (row
    offsets, neighbors, incident edge ids), whatever its size, plus an
    edge-endpoint row derived from them on the first {!edge_endpoints}
    or {!edge_other_endpoint} call.  Each row is a [Bytes] of signed
    32-bit native-endian entries: four bytes per entry instead of an int
    array's eight, in a block the GC never scans.  So a graph holds at most {!max_count} nodes and at
    most {!max_count} neighbor entries ([2m]); every builder checks both
    counts before it allocates and raises [Invalid_argument "Graph.<fn>:
    node count <k> exceeds 2147483647, the 32-bit row cap"] (or [degree
    sum] for [2m]).  The per-node accessors ({!neighbors},
    {!incident_edges}) copy a row out and check their node like an array
    read; per-neighbor loops read the shared rows through
    {!row_offsets}, {!row_neighbors} and {!row_edges} and {!get32}
    instead. *)

type t

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on [n] nodes.  Self-loops are
    rejected; duplicate edges (in either orientation) are collapsed.
    Degrees are counted, each listed pair is bucketed into both
    endpoints' rows, and each row is then sorted, deduplicated and
    compacted in place — no hash table and no sort of the whole edge
    list.
    @raise Invalid_argument on a negative [n], an [n] or degree sum
    past {!max_count} (before anything is allocated), an endpoint
    outside [0..n-1] or a self-loop. *)

val of_adjacency : int array array -> t
(** [of_adjacency adj] is the graph on [Array.length adj] nodes whose
    sorted neighbor arrays are [adj] (copied into rows; [adj] is not
    kept).  It checks, in one O(n + m) pass and without a hash table or
    a sort, that every [adj.(v)] is strictly increasing, lies in
    [0..n-1] and omits [v], and that the adjacency is symmetric ([u]
    lists [v] iff [v] lists [u]).  The result equals {!of_edges} over
    the same edges: same neighbor arrays, the same lexicographic edge
    ids and the same incident arrays.
    @raise Invalid_argument ["Graph.of_adjacency: …"] naming the first
    offending node or edge, or a count past {!max_count}. *)

val of_rows : off:Bytes.t -> nbr:Bytes.t -> t
(** [of_rows ~off ~nbr] is {!of_adjacency} over rows already laid out
    flat, as 32-bit native-endian entries ([Bytes.set_int32_ne] at byte
    [4k] writes entry [k]): node [v]'s sorted neighbors are entries
    [off.(v)] to [off.(v + 1) - 1] of [nbr], for [n = length off / 4 -
    1] nodes.  Both become the graph's own rows ({!row_offsets},
    {!row_neighbors}), so the caller must not mutate them afterwards.
    The rows get exactly {!of_adjacency}'s checks, diagnostics and edge
    numbering, in one pass with no scratch row: each lower slot finds its
    partner by binary search in the neighbor's row, and rows that fail
    are walked again with a cursor row to name the first fault.
    @raise Invalid_argument when a length is not a multiple of 4,
    [off] is empty, a count exceeds {!max_count}, or [off] does not
    start at 0, decreases or does not end at [nbr]'s entry count;
    otherwise as {!of_adjacency}. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of edges. *)

val degree : t -> int -> int
val neighbors : t -> int -> int array
(** Sorted array of neighbors, freshly copied out of the node's row:
    O(degree) words per call.  Per-neighbor loops read
    {!row_neighbors} instead. *)

val max_degree : t -> int
val is_edge : t -> int -> int -> bool

val edge_id : t -> int -> int -> int
(** Dense id of edge [{u,v}].  @raise Not_found if absent. *)

val edge_endpoints : t -> int -> int * int
(** Endpoints [(u, v)] with [u < v], as a fresh pair.  The first call
    on a graph (of this or {!edge_other_endpoint}) derives the
    edge-endpoint row from the stored rows: O(m) time and [2m] 32-bit
    entries, once; later calls read it.  Domains that race to derive it
    publish one row through [Atomic.compare_and_set].
    @raise Invalid_argument when [e] is not in [0..m-1]. *)

val incident_edges : t -> int -> int array
(** Edge ids incident to a node, ordered by the sorted neighbor array;
    a fresh copy of the node's row of {!row_edges}. *)

(** {2 Zero-copy rows}

    The graph's own rows, handed out without a copy for loops that run
    per neighbor.  They are shared by every reader of the graph and
    cannot be written from outside this module. *)

type rows
(** A row of signed 32-bit entries.  Entry [k] is
    [Int32.to_int (get32 r (4 * k))]. *)

external get32 : rows -> int -> int32 = "%caml_bytes_get32u"
(** [get32 r (4 * k)] is entry [k] of [r], unchecked: [k] must lie in
    the row ([0 <= k <] its entry count), which holds for every
    position a row's own offsets name.  A primitive, so a loop in any
    module reads a row with one load and no call, even where modules
    are compiled without cross-module inlining; wrapped as
    [Int32.to_int (get32 r (k lsl 2))] it allocates nothing. *)

val max_count : int
(** [2^31 - 1], the largest node count and the largest neighbor-entry
    count ([2m]) a graph holds: every entry of its rows is a signed
    32-bit integer. *)

val row_offsets : t -> rows
(** [n + 1] entries, entry [0] is [0]: node [v]'s row is positions
    [off v] to [off (v + 1) - 1] of {!row_neighbors} and {!row_edges},
    so [degree v] is the difference of the two. *)

val row_neighbors : t -> rows
(** [2m] entries: every node's neighbors, row after row, strictly
    increasing within a row.  Position [k] of [v]'s row holds the same
    neighbor as [(neighbors g v).(k - off v)]. *)

val row_edges : t -> rows
(** [2m] entries, parallel to {!row_neighbors}: position [k] holds the
    id of the edge between the row's node and the neighbor at [k]. *)

val edge_other_endpoint : t -> int -> int -> int
(** [edge_other_endpoint g e v] is the endpoint of edge [e] distinct from
    [v].  Reads the edge-endpoint row, derived on first use as for
    {!edge_endpoints}. *)

val iter_edges : (int -> int * int -> unit) -> t -> unit
(** Iterate [f edge_id (u, v)] over all edges in id order, each pair
    fresh.  Walks the neighbor rows (each node's neighbors above it, in
    node order), not the edge-endpoint row. *)

val fold_edges : (int -> int * int -> 'a -> 'a) -> t -> 'a -> 'a

val iter_nodes : (int -> unit) -> t -> unit
val fold_nodes : (int -> 'a -> 'a) -> t -> 'a -> 'a

val edges : t -> (int * int) array
(** Array of endpoints indexed by edge id, built afresh: O(m) per
    call. *)

val induced : t -> int list -> t * int array * int array
(** [induced g nodes] is the subgraph induced by [nodes] (duplicates
    ignored): [(h, to_sub, to_orig)] where [to_sub.(v)] is the id of [v] in
    [h] (or [-1] if [v] was not selected) and [to_orig.(i)] is the original
    id of subgraph node [i].  Cost is O(n) for the [to_sub] array plus the
    selected nodes' own adjacency lists — the rest of the graph is never
    scanned. *)

val induced_ball : t -> Workspace.t -> t * int array
(** [induced_ball g ws] is the subgraph induced by the node set currently
    stamped in [ws] (typically filled by {!Traversal.bfs_limited_into}),
    numbering sub nodes by stamp order: [(h, to_orig)] where [to_orig.(i)]
    is the original id of subgraph node [i]; the inverse map is
    [Workspace.sub_index ws].  Scans only the members' rows, so
    the cost is O(ball nodes + ball edges) — independent of [Graph.n] and
    [Graph.m].  The result satisfies the same canonical invariants as
    {!of_edges} (sorted neighbors, lexicographically sorted dense edge
    ids) and coincides with {!induced} applied to the stamped nodes in
    stamp order.
    @raise Invalid_argument when [ws] holds a node outside [g] (a set
    stamped over another graph). *)

val induced_sorted : t -> int array -> t
(** [induced_sorted g ids] is the subgraph induced by the strictly
    increasing node-id array [ids], numbering sub node [i] as
    [ids.(i)] — the translation table {e is} the input, so none is
    returned.  Because the numbering is monotone, sorted neighbor
    arrays and the lexicographic edge order carry over without
    re-sorting, and global→local translation is an O(1) lookup in a
    rank array spanning [ids.(0) .. ids.(count-1)] — scratch
    proportional to the ids' {e span} (≈ [count] for an interval-plus-
    halo set, ≤ [n] always) rather than to the host graph.
    Coincides with {!induced} on [Array.to_list ids].  This is the
    reference semantics for the sharded snapshot packer
    ({!Store.Shard}), whose fused serializer emits the same subgraph
    without materializing it — the two are property-tested against each
    other.  @raise Invalid_argument when [ids] is not strictly
    increasing or an id is out of range. *)

val remove_nodes : t -> Bitset.t -> t * int array * int array
(** Subgraph induced by the complement of the given node set; same mapping
    convention as {!induced}. *)

val power : t -> int -> t
(** [power g k] connects every pair at distance between 1 and [k]. *)

val line_graph : t -> t
(** Nodes of the result are the edge ids of [g]; two are adjacent when the
    edges share an endpoint. *)

val is_connected : t -> bool

val equal : t -> t -> bool
(** Structural equality (same node count and edge set). *)

val pp : Format.formatter -> t -> unit
