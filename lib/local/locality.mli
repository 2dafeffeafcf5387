(** Empirical locality checking.

    A decoder runs in [T] rounds of the LOCAL model exactly when every
    node's output is determined by its radius-[T] ball (with identifiers,
    inputs and advice).  This module tests that property directly: it
    re-runs a decoder on the induced ball of a node and compares the node's
    output against the full-graph run.  The minimal radius at which outputs
    stabilize is the measured locality — the quantity the paper's
    [T(Δ)] bounds constrain, and the one experiment E3 reports. *)

type 'out decoder =
  Netgraph.Graph.t -> ids:Ids.t -> advice:string array -> 'out array
(** A decoder mapping (graph, identifiers, advice) to one output per
    node.  Outputs must be expressed in a fragment-independent way (plain
    values, or structures referring to *identifiers* rather than node
    indices). *)

val stable_for_all :
  Netgraph.Graph.t ->
  ids:Ids.t ->
  advice:string array ->
  decode:'out decoder ->
  equal:('out -> 'out -> bool) ->
  radius:int ->
  samples:int list ->
  bool
(** Does every sampled node's output match when the decoder sees only
    the radius ball around it? *)

val measured_radius :
  Netgraph.Graph.t ->
  ids:Ids.t ->
  advice:string array ->
  decode:'out decoder ->
  equal:('out -> 'out -> bool) ->
  max_radius:int ->
  samples:int list ->
  int option
(** Smallest radius at which all sampled nodes are stable, if any within
    the bound. *)
