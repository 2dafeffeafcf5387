(* The concurrency shim: module types in shim.mli, plus the production
   pass-through.  Keeping [Real] here (rather than next to the checker)
   means lib/serve and lib/obs depend only on this leaf library, while
   lib/check provides the instrumented twin. *)

module type ATOMIC = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
end

module type THREAD = sig
  type 'a handle

  val spawn : (unit -> 'a) -> 'a handle
  val join : 'a handle -> 'a
end

module type RAW = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
end

module type S = sig
  module Atomic : ATOMIC
  module Thread : THREAD
  module Raw : RAW
end

module Real = struct
  module Atomic = struct
    type 'a t = 'a Stdlib.Atomic.t

    let make = Stdlib.Atomic.make
    let get = Stdlib.Atomic.get
    let set = Stdlib.Atomic.set
    let compare_and_set = Stdlib.Atomic.compare_and_set
    let fetch_and_add = Stdlib.Atomic.fetch_and_add
  end

  module Thread = struct
    type 'a handle = 'a Domain.t

    let spawn = Domain.spawn
    let join = Domain.join
  end

  module Raw = struct
    type 'a t = 'a ref

    let make v = ref v
    let get r = !r
    let set r v = r := v
  end
end
