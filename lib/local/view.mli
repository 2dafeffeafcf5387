(** Radius-T views.

    After [T] rounds of LOCAL communication a node knows exactly the
    labeled, ID-carrying subgraph induced by its radius-[T] ball.  A view
    packages that fragment with local (re-indexed) node ids; algorithms
    that work on views are locality-[T] by construction. *)

type t = {
  radius : int;
  center : int;  (** index of the center inside the view *)
  graph : Netgraph.Graph.t;  (** induced subgraph of the ball *)
  ids : int array;  (** view node -> global identifier *)
  dist : int array;  (** view node -> distance from the center *)
  advice : string array;  (** view node -> advice bit string *)
  input : int array;  (** view node -> input label (0 = none) *)
  to_global : int array;
      (** view node -> underlying node; for bookkeeping and verification
          only — a faithful LOCAL algorithm must not inspect it. *)
}
(** One node's radius-[radius] view, re-indexed from [0]. *)

val make :
  ?advice:string array ->
  ?input:int array ->
  Netgraph.Graph.t ->
  ids:Ids.t ->
  radius:int ->
  int ->
  t
(** [make g ~ids ~radius v] gathers the radius-[radius] view of node [v]. *)

val map_nodes :
  ?advice:string array ->
  ?input:int array ->
  Netgraph.Graph.t ->
  ids:Ids.t ->
  radius:int ->
  (t -> 'a) ->
  'a array
(** Run a view-based algorithm at every node; the canonical way to execute
    a [T]-round LOCAL algorithm.  Ball extraction reuses one domain-local
    scratch workspace, so the per-node cost is O(ball) — proportional to
    Δ^radius on bounded-degree graphs, never to [n] or [m]. *)

val effective_domains : ?requested:int -> unit -> int
(** {!Pool.effective_domains}, kept under this name for perfbench; the
    library, the CLI and the benches call the pool's. *)

val map_nodes_par :
  ?domains:int ->
  ?advice:string array ->
  ?input:int array ->
  Netgraph.Graph.t ->
  ids:Ids.t ->
  radius:int ->
  (t -> 'a) ->
  'a array
(** Like {!map_nodes}, cutting the nodes into [d] contiguous chunks run
    as [d] {!Pool} tasks (one scratch workspace per domain; the graph,
    ids, advice and input arrays are only read), where [d] is
    [Pool.effective_domains ?requested:domains ()], never above the node
    count.  The result is identical to {!map_nodes} provided [f] is
    pure; [f] must also be safe to call from several domains at once.
    With one domain this is {!map_nodes}.
    @raise exn the exception of the lowest node whose [f] raised, once
    every chunk has run to its end or to its first exception. *)

val with_advice : t -> string array -> t
(** [with_advice view advice] is the view re-projected onto a new global
    advice assignment, without re-extracting the ball.  Equivalent to
    re-running {!make} with [~advice] on the same node; the key to
    enumerating many advice assignments over a fixed graph cheaply. *)
