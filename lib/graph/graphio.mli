(** Plain-text graph interchange.

    The edge-list format is one header line ["n <nodes>"] followed by one
    ["u v"] pair per line; ['#'] starts a comment.  DOT export is provided
    for visual inspection of small instances (advice bits can be rendered
    as node fill). *)

val to_edge_list : Graph.t -> string

val of_edge_list : string -> Graph.t
(** @raise Invalid_argument on malformed input — a missing or bad header
    (a node count above [Sys.max_array_length] is bad), an unparsable
    edge line, an out-of-range endpoint, a self-loop, or a
    duplicate edge (in either orientation).  The message names the
    offending 1-based source line, so a bad instance file can be fixed by
    eye; nothing is silently collapsed or dropped. *)

val load : string -> Graph.t
(** Read a graph from a file path. *)

val save : string -> Graph.t -> unit

val to_dot : ?highlight:Bitset.t -> ?labels:string array -> Graph.t -> string
(** Graphviz DOT text; [highlight] fills the given nodes, [labels]
    overrides node captions (e.g. advice strings). *)
