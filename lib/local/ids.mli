(** Unique identifier assignments for the LOCAL model.

    The LOCAL model equips every node with a unique identifier from
    [{1, ..., poly(n)}].  Advice may depend on the identifiers, and decoders
    break ties by comparing them, so experiments sweep over different
    assignments to check that schemas do not depend on one particular
    labeling. *)

type t = int array
(** [ids.(v)] is the identifier of node [v]; identifiers are distinct and
    positive. *)

val identity : Netgraph.Graph.t -> t
(** [ids.(v) = v + 1]. *)

val random_permutation : Netgraph.Prng.t -> Netgraph.Graph.t -> t
(** A random bijection onto [{1..n}]. *)

val random_sparse : Netgraph.Prng.t -> Netgraph.Graph.t -> t
(** Random distinct identifiers from [{1..n^2}] (identifier space larger
    than [n], as the model allows). *)

val rank : t -> int array
(** [rank ids] maps each node to the number of nodes with smaller
    identifier — the order type of the assignment, which is all an
    order-invariant algorithm may inspect. *)
