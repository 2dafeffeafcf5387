(** The serve path's C4 ball decoder: the center's label, read off the
    BFS stamps by searching only the trails it needs.

    A label needs the orientation of each in-ball edge at the center and
    at those of its neighbours that are tails of a center edge.  An
    edge's orientation is the direction of its trail, which the nearest
    anchor on the trail fixes (C3).  So the decoder searches each such
    edge's trail outward from it until it meets an anchor, decodes the
    one-bit messages of the holders it meets on the way, and builds no
    fragment, orientation or one-bit decode of the whole ball.

    It reproduces, rule by rule, the fragment decode it replaced:
    {!Advice.Onebit.decode} and then
    {!Schemas.Balanced_orientation.decode_tolerant} on the ball's induced
    subgraph relabelled in identifier order, then the label read.  Labels
    are byte-identical at every radius (DESIGN.md "Center-local
    decode").  It raises on no input: any advice bytes decode. *)

val label :
  ?ids:int array ->
  Netgraph.Workspace.t ->
  Netgraph.Graph.t ->
  advice:string array ->
  center:int ->
  string
(** [label ws g ?ids ~advice ~center] is the C4 label of the ball
    stamped in [ws] over host [g] (a {!Netgraph.Traversal.bfs_limited_into}
    ball, or a {!Ethlink.Canonical.stamp_view} view), whose center has
    stamp index [center]: one character per in-ball neighbour of the
    center, in identifier order, each the membership bit of that edge
    read from its tail's advice (['0'] past the advice's end).  [ids]
    and [advice] are indexed by host node; identifiers compare as the
    fragment's ranks do, ties by stamp index.  Without [ids] the
    identifiers are the host's node order, which gives the label under
    any increasing ids (a shard's local order, or
    {!Localmodel.Ids.identity}) with no id column.  Reads [ws] without
    disturbing it.  Its scratch is domain-local and grows to the largest
    ball seen, so after that a call allocates only the returned
    string.
    @raise Invalid_argument when [ws] holds a node outside [g] (a ball
    stamped over another graph), checked before that node's row is
    read. *)
