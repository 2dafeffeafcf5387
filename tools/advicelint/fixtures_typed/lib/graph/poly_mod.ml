(* Compiled fixture: sites only the typedtree pass can judge.  The first
   four must be flagged; [fine] compares at [int] and must not be. *)

let max_weight (ws : int array) = Array.fold_left max 0 ws

let same (a : int array) (b : int array) = a = b

let sort_pairs (ps : (int * int) array) = Array.sort compare ps

let widest (a : int) b = max a b

let fine (a : int) b = a = b
