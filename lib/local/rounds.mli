(** Synchronous round-based simulation.

    Message-passing view of the LOCAL model: in every round each node
    broadcasts one message to all neighbors, receives its neighbors'
    messages (indexed consistently with the sorted neighbor array), and
    updates its state.  Useful for algorithms naturally phrased in rounds,
    such as iterated color reduction. *)

type ('state, 'msg) algorithm = {
  init : int -> 'state * 'msg;
      (** Initial state and round-1 broadcast of each node. *)
  step : round:int -> node:int -> 'state -> 'msg array -> 'state * 'msg;
      (** Receives the messages of the node's neighbors (sorted-neighbor
          order) and produces the next state and broadcast. *)
}
(** A synchronous algorithm: what every node does at start and in each
    round. *)

val run :
  Netgraph.Graph.t -> rounds:int -> ('state, 'msg) algorithm -> 'state array
(** Run for exactly [rounds] rounds and return the final states. *)

val run_until :
  Netgraph.Graph.t ->
  max_rounds:int ->
  halted:('state -> bool) ->
  ('state, 'msg) algorithm ->
  'state array * int
(** Run until every node's state satisfies [halted] (or the bound is hit);
    also returns the number of rounds executed. *)
