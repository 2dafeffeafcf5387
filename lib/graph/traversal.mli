(** Breadth-first traversals, distances, balls and connected components.

    These are the primitives a LOCAL-model node uses implicitly when it
    "gathers its radius-r neighborhood", and the primitives encoders use to
    build clusterings. *)

val bfs_distances : Graph.t -> int -> int array
(** [bfs_distances g s] maps every node to its distance from [s], [-1] when
    unreachable. *)

val bfs_distances_multi : Graph.t -> int list -> int array
(** Distance to the nearest of several sources. *)

val bfs_limited : Graph.t -> int -> int -> (int * int) list
(** [bfs_limited g s r] lists [(node, dist)] for all nodes within distance
    [r] of [s], in BFS order (so distances are non-decreasing and ties are
    broken by node id).  Thin wrapper over {!bfs_limited_into} using the
    domain-local workspace. *)

val bfs_limited_into : Workspace.t -> Graph.t -> int -> int -> int
(** [bfs_limited_into ws g s r] runs the same radius-limited BFS into the
    workspace and returns the ball size [k]: afterwards
    [Workspace.node_at ws i] for [i < k] lists the ball in BFS order,
    [Workspace.dist ws v] is the distance of a member from [s], and
    [Workspace.sub_index ws v] its BFS-order rank.  The workspace is reset
    (O(1)) on entry, its mark grown to [Graph.n g] and its stamp-indexed
    arrays to the ball if needed; apart from that growth the call
    allocates nothing and costs O(ball nodes + ball edges).
    @raise Invalid_argument when [s] is not a node of [g]. *)

val ball : Graph.t -> int -> int -> int list
(** Nodes within distance [r] of [s], in BFS order. *)

val sphere : Graph.t -> int -> int -> int list
(** Nodes at distance exactly [r] from [s]. *)

val distance : Graph.t -> int -> int -> int
(** Pairwise distance, [-1] when disconnected. *)

val shortest_path : Graph.t -> int -> int -> int list
(** The lexicographically least shortest path from [s] to [t] (list of
    nodes, [s] first).  "Lexicographically least" compares the node-id
    sequences of shortest paths; it is canonical given the graph, so
    encoder and decoder derive the same path independently.
    @raise Not_found when disconnected. *)

val eccentricity : Graph.t -> int -> int
(** Largest distance from the node within its component. *)

val diameter : Graph.t -> int
(** Largest eccentricity over all nodes; [-1] for the empty graph.
    Disconnected graphs report the largest intra-component diameter. *)

val components : Graph.t -> int array * int
(** [(comp, k)]: component index of every node and the number [k] of
    components.  Components are numbered by smallest contained node id. *)

val component_members : Graph.t -> int list array
(** Nodes of each component, ascending. *)

val growth : Graph.t -> int -> int -> int
(** [growth g v r] is [|ball g v r|]; the quantity bounded by
    sub-exponential growth. *)

val is_bipartite : Graph.t -> bool

val bipartition : Graph.t -> int array option
(** Two-coloring with colors 0/1 when the graph is bipartite, assigning 0
    to the least node of every component. *)
