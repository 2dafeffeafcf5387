(** Order-invariant canonicalization of LOCAL views (Contribution 2).

    The paper's ETH lower bound hinges on a Ramsey-type argument: any
    advice algorithm can be replaced by an *order-invariant* one whose
    output depends only on the relative order of the identifiers in the
    view, not their numeric values.  An order-invariant algorithm on
    bounded-degree graphs is a finite lookup table from canonical views to
    outputs — which is what makes the exhaustive advice search efficient
    enough to contradict ETH.

    This module computes canonical forms: a view's signature replaces each
    identifier by its rank inside the view, so two views with the same
    signature are indistinguishable to an order-invariant algorithm. *)

val signature : Localmodel.View.t -> string
(** Canonical serialization: structure, distances, advice, inputs, and
    identifier *ranks*. *)

val ball_signature : Localmodel.View.t -> string
(** Degree-bounded canonical ball key for the serve stack's class
    table ({!Serve.Memo}): the ball's structure in stamp order, the
    identifier {e ranks} (only the order type — the decoder only
    compares identifiers, so their numeric values are invisible to it), the
    advice strings (length-prefixed, so arbitrary advice cannot alias
    across node boundaries), and the center stamp.  Distances are
    determined by (graph, center) and inputs are never read by the C4
    decoder, so unlike {!signature} both stay out of the key.  The key
    is the decoder's whole input: two views with equal
    [ball_signature]s decode to byte-identical labels, whatever radius
    each was cut at, which is why a table keyed by it needs no
    prefix.  Uses the calling domain's
    {!Netgraph.Workspace} as scratch (see {!stamp_view}); the bytes come
    from the same encoder as {!ball_key}. *)

val ball_key :
  ?ids:int array ->
  Netgraph.Workspace.t ->
  Netgraph.Graph.t ->
  advice:string array ->
  string
(** The serve stack's workspace entry point.  After
    [Netgraph.Traversal.bfs_limited_into ws g v radius] has stamped
    [v]'s ball, [ball_key ws g ~ids ~advice] is
    [ball_signature (Localmodel.View.make ~advice g ~ids ~radius v)],
    byte for byte — written straight from the stamps, with no view and
    no induced graph built.  [ids] and [advice] are indexed by host
    node; without [ids] the identifiers are the host's node order, so
    the key equals the one under any increasing ids (such as
    {!Localmodel.Ids.identity}) and no id column is needed.  Reads [ws]
    without disturbing the stamps, so the ball decoder can follow on the
    same ball.  This is {!write_ball_key} copied out of the key
    buffer. *)

val write_ball_key :
  ?ids:int array ->
  Netgraph.Workspace.t ->
  Netgraph.Graph.t ->
  advice:string array ->
  int
(** [write_ball_key ws g ?ids ~advice] writes {!ball_key}'s bytes into
    the calling domain's key buffer ({!key_buffer}) and returns their
    length: the memo probes the key where it lies.  Once the scratch
    has grown to the largest ball seen, it allocates nothing.  The
    bytes last until the domain's next key or signature.
    @raise Invalid_argument when [ws] holds a node outside [g] (a ball
    stamped over another graph), checked before that node's row is
    read. *)

val key_buffer : unit -> Bytes.t
(** The calling domain's key buffer, holding the last
    {!write_ball_key}'s bytes from position 0.  Read it after the write:
    a longer key replaces the buffer. *)

val stamp_view : Localmodel.View.t -> Netgraph.Workspace.t
(** [stamp_view view] re-stamps [view]'s nodes into the calling domain's
    workspace in identity order and returns it: with the view's own
    graph as host, [ids]/[advice] as its arrays and [view.center] as the
    center, the workspace entry points read the materialized view.
    This is how {!ball_signature} shares {!ball_key}'s encoder.  The
    stamps last until the next user of the domain-local workspace. *)

type table = (string, int) Hashtbl.t
(** Lookup table from canonical signatures to outputs. *)

type build_result =
  | Table of table
  | Conflict of string * int * int
      (** Two sampled views shared a signature but produced different
          outputs: the sampled algorithm is not order-invariant. *)

val build_table : (Localmodel.View.t * int) list -> build_result
(** Build a table from (view, output) samples, detecting conflicts. *)

val run_with_table :
  table ->
  default:int ->
  Netgraph.Graph.t ->
  ids:Localmodel.Ids.t ->
  advice:string array ->
  radius:int ->
  int array
(** Execute the lookup-table algorithm: every node computes its view's
    signature and looks it up ([default] when absent). *)

val is_order_invariant :
  decide:(Localmodel.View.t -> int) ->
  graphs:(Netgraph.Graph.t * Localmodel.Ids.t list) list ->
  radius:int ->
  bool
(** Empirical check: across all given graphs and identifier assignments,
    equal signatures always give equal outputs. *)

val canonicalize_view : Localmodel.View.t -> Localmodel.View.t
(** Replace every identifier by its rank + 1 inside the view — the
    canonical representative of the view's order type. *)

val lift : (Localmodel.View.t -> int) -> Localmodel.View.t -> int
(** The order-invariant version of an algorithm: run it on the
    canonicalized view.  [lift decide] is order-invariant by construction;
    when [decide] already was, the two agree everywhere.  This is the
    constructive core of the paper's Ramsey-type transformation: the
    lifted algorithm's behavior is a pure function of order types, hence a
    finite lookup table on bounded-degree graphs. *)
