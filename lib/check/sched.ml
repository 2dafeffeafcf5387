(* Schedule-exploring concurrency checker.

   Everything runs on ONE domain: the shim's threads become cooperative
   fibers implemented with effect handlers.  Every shim operation is a
   scheduling point — the fiber performs a [Yield] effect carrying an
   operation descriptor, the scheduler picks which fiber runs next, and
   the resumed fiber executes its memory action immediately (so the
   action is atomic: nothing else runs until its next operation).

   Exploration is replay-based depth-first search: each schedule is a
   sequence of choices (which enabled fiber to run); after a clean
   schedule the deepest choice point with an untried alternative is
   flipped and the scenario re-runs from scratch, replaying the shared
   prefix.  Alternatives that would exceed the preemption bound are
   never enqueued, which is what keeps small scenarios exhaustive in
   well under a second.

   Races are found with vector clocks (FastTrack-style, simplified):
   atomic operations carry release clocks and create happens-before
   edges, as do spawn and join; [Raw] cells carry the clock of their
   last write and of the last read per fiber, and any access concurrent
   with one of those — at least one side a write — is a data race.
   The only blocking operation is a join, so a deadlock is a set of
   fibers each joining one that never finishes. *)

exception Check_failed of string

(* Internal unwind after a recorded violation.  May leak into user code
   that catches everything (the pool's drain loop does); that is fine —
   the scheduler checks [ctx.violation] after every slice, so a
   swallowed [Stop] cannot hide the finding. *)
exception Stop

type kind = Race | Deadlock | Uncaught | Invariant

type violation = { kind : kind; message : string; trace : int list }

type report = {
  schedules : int;
  complete : bool;
  violation : violation option;
}

type scenario = (module Shim.S) -> unit

let max_fibers = Vclock.width
let step_limit = 200_000

(* Generation stamp: bumped per schedule so location records that leak
   across runs (module-level cells, aborted schedules) are lazily reset
   instead of feeding stale clocks into the next exploration. *)
let generation = ref 0

(* ------------------------------------------------------------------ *)
(* Tracked state *)

type loc = {
  mutable l_id : int;  (* per-schedule display id, set at first touch *)
  mutable l_gen : int;
  l_sync : Vclock.t;  (* atomics: release clock of the last write/RMW *)
  mutable l_writer : int;  (* raw: fiber of last write, -1 if none *)
  l_wclock : Vclock.t;  (* raw: writer's clock at that write *)
  mutable l_reads : (int * Vclock.t) list;  (* raw: last read per fiber *)
}

(* Display ids restart every schedule (assigned in first-touch order),
   so violation messages depend only on the schedule, not on how many
   schedules ran before — which is what lets tests compare messages
   across explorations and replays. *)
let loc_counter = ref 0

let new_loc () =
  {
    l_id = 0;
    l_gen = -1;
    l_sync = Vclock.make ();
    l_writer = -1;
    l_wclock = Vclock.make ();
    l_reads = [];
  }

let refresh_loc l =
  if l.l_gen <> !generation then begin
    l.l_gen <- !generation;
    incr loc_counter;
    l.l_id <- !loc_counter;
    Array.fill l.l_sync 0 Vclock.width 0;
    Array.fill l.l_wclock 0 Vclock.width 0;
    l.l_writer <- -1;
    l.l_reads <- []
  end

(* ------------------------------------------------------------------ *)
(* Fibers and the per-schedule context *)

type access = A_get | A_set | A_rmw

type op =
  | Op_atomic of loc * access
  | Op_raw of loc * bool  (* true = write *)
  | Op_join of int

type fiber = {
  fid : int;
  clock : Vclock.t;
  mutable status : status;
  mutable result_exn : exn option;
}

and status =
  | Fresh of (unit -> unit)
  | Suspended of op * (unit, unit) Effect.Deep.continuation
  | Running
  | Done

type ctx = {
  fibers : fiber array;  (* slots 0 .. nfibers-1 live *)
  mutable nfibers : int;
  mutable current : int;
  mutable steps : int;
  mutable trace_rev : int list;
  mutable violation : violation option;
}

let cur : ctx option ref = ref None

type _ Effect.t +=
  | Yield : op -> unit Effect.t
  | Spawn : (unit -> unit) -> int Effect.t

let record_violation (ctx : ctx) kind message =
  if ctx.violation = None then
    ctx.violation <- Some { kind; message; trace = List.rev ctx.trace_rev }

(* Called from fiber code: record and unwind. *)
let violate ctx kind message =
  record_violation ctx kind message;
  raise Stop

(* ------------------------------------------------------------------ *)
(* Happens-before bookkeeping.  Each helper runs in the acting fiber,
   immediately after the scheduler resumed it, so the world cannot
   change between check and update. *)

let yield_op ctx op =
  Effect.perform (Yield op);
  let f = ctx.fibers.(ctx.current) in
  Vclock.tick f.clock f.fid;
  f

let book_atomic ctx l acc =
  let f = yield_op ctx (Op_atomic (l, acc)) in
  Vclock.merge f.clock l.l_sync;
  (match acc with
  | A_get -> ()
  | A_set | A_rmw -> Array.blit f.clock 0 l.l_sync 0 Vclock.width);
  f

let raw_write_race ctx f l what =
  violate ctx Race
    (Printf.sprintf
       "data race on raw location #%d: %s by fiber %d (clock %s) is \
        concurrent with the last write by fiber %d (clock %s)"
       l.l_id what f.fid
       (Vclock.to_string f.clock)
       l.l_writer
       (Vclock.to_string l.l_wclock))

let book_raw ctx l write =
  let f = yield_op ctx (Op_raw (l, write)) in
  (* Any access must be ordered after the last write. *)
  if l.l_writer >= 0 && l.l_writer <> f.fid
     && Vclock.get l.l_wclock l.l_writer > Vclock.get f.clock l.l_writer
  then raw_write_race ctx f l (if write then "write" else "read");
  if write then begin
    (* A write must additionally be ordered after every last read. *)
    List.iter
      (fun (rf, rc) ->
        if rf <> f.fid && Vclock.get rc rf > Vclock.get f.clock rf then
          violate ctx Race
            (Printf.sprintf
               "data race on raw location #%d: write by fiber %d (clock %s) \
                is concurrent with a read by fiber %d (clock %s)"
               l.l_id f.fid
               (Vclock.to_string f.clock)
               rf (Vclock.to_string rc)))
      l.l_reads;
    l.l_writer <- f.fid;
    Array.blit f.clock 0 l.l_wclock 0 Vclock.width;
    l.l_reads <- []
  end
  else
    l.l_reads <-
      (f.fid, Vclock.copy f.clock)
      :: List.filter (fun (rf, _) -> rf <> f.fid) l.l_reads

(* ------------------------------------------------------------------ *)
(* The instrumented shim *)

module Model : Shim.S = struct
  module Atomic = struct
    type 'a t = { cell : 'a ref; loc : loc }

    let make v = { cell = ref v; loc = new_loc () }

    let get a =
      match !cur with
      | None -> !(a.cell)
      | Some ctx ->
          refresh_loc a.loc;
          let _ = book_atomic ctx a.loc A_get in
          !(a.cell)

    let set a v =
      match !cur with
      | None -> a.cell := v
      | Some ctx ->
          refresh_loc a.loc;
          let _ = book_atomic ctx a.loc A_set in
          a.cell := v

    let compare_and_set a seen v =
      match !cur with
      | None ->
          if !(a.cell) == seen then begin
            a.cell := v;
            true
          end
          else false
      | Some ctx ->
          refresh_loc a.loc;
          let _ = book_atomic ctx a.loc A_rmw in
          if !(a.cell) == seen then begin
            a.cell := v;
            true
          end
          else false

    let fetch_and_add a k =
      match !cur with
      | None ->
          let old = !(a.cell) in
          a.cell := old + k;
          old
      | Some ctx ->
          refresh_loc a.loc;
          let _ = book_atomic ctx a.loc A_rmw in
          let old = !(a.cell) in
          a.cell := old + k;
          old
  end

  module Thread = struct
    type 'a handle = { h_fid : int; h_cell : 'a option ref }

    let spawn f =
      match !cur with
      | None ->
          invalid_arg "Check.Sched.Model.Thread.spawn: no active exploration"
      | Some _ ->
          let cell = ref None in
          let body () = cell := Some (f ()) in
          let fid = Effect.perform (Spawn body) in
          { h_fid = fid; h_cell = cell }

    let join h =
      match !cur with
      | None -> invalid_arg "Check.Sched.Model.Thread.join: no active exploration"
      | Some ctx ->
          let f = yield_op ctx (Op_join h.h_fid) in
          let t = ctx.fibers.(h.h_fid) in
          Vclock.merge f.clock t.clock;
          (match t.result_exn with Some e -> raise e | None -> ());
          (match !(h.h_cell) with
          | Some v -> v
          | None -> raise (Check_failed "Thread.join: thread has no result"))
  end

  module Raw = struct
    type 'a t = { cell : 'a ref; loc : loc }

    let make v = { cell = ref v; loc = new_loc () }

    let get r =
      match !cur with
      | None -> !(r.cell)
      | Some ctx ->
          refresh_loc r.loc;
          book_raw ctx r.loc false;
          !(r.cell)

    let set r v =
      match !cur with
      | None -> r.cell := v
      | Some ctx ->
          refresh_loc r.loc;
          book_raw ctx r.loc true;
          r.cell := v
  end
end

(* ------------------------------------------------------------------ *)
(* One schedule *)

let handler ctx f : (unit, unit) Effect.Deep.handler =
  {
    Effect.Deep.retc = (fun () -> f.status <- Done);
    exnc =
      (fun e ->
        f.result_exn <- Some e;
        f.status <- Done);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield op ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                f.status <- Suspended (op, k))
        | Spawn body ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                if ctx.nfibers >= max_fibers then
                  Effect.Deep.discontinue k
                    (Failure
                       (Printf.sprintf "Check.Sched: fiber limit (%d) exceeded"
                          max_fibers))
                else begin
                  let fid = ctx.nfibers in
                  let child =
                    {
                      fid;
                      clock = Vclock.copy f.clock;
                      status = Fresh body;
                      result_exn = None;
                    }
                  in
                  Vclock.tick child.clock fid;
                  Vclock.tick f.clock f.fid;
                  ctx.fibers.(fid) <- child;
                  ctx.nfibers <- fid + 1;
                  Effect.Deep.continue k fid
                end)
        | _ -> None);
  }

let run_slice ctx f =
  match f.status with
  | Fresh body ->
      f.status <- Running;
      Effect.Deep.match_with body () (handler ctx f)
  | Suspended (_, k) ->
      f.status <- Running;
      Effect.Deep.continue k ()
  | Running | Done ->
      invalid_arg "Check.Sched.run_slice: fiber is not runnable"

let enabled_fiber ctx f =
  match f.status with
  | Fresh _ -> true
  | Suspended (op, _) -> (
      match op with
      | Op_join t -> ctx.fibers.(t).status = Done
      | Op_atomic _ | Op_raw _ -> true)
  | Running | Done -> false

let fiber_state_name f =
  match f.status with
  | Suspended (Op_join t, _) -> Printf.sprintf "joining fiber %d" t
  | _ -> "runnable"

(* Run one schedule of [thunk] under the choice policy [choose] and
   return its violation, if any.  [choose ~enabled ~prev] picks among
   the (ascending) enabled fiber ids; [prev] is the fiber that ran
   last. *)
let run_schedule ~choose thunk =
  incr generation;
  loc_counter := 0;
  let root =
    { fid = 0; clock = Vclock.make (); status = Fresh thunk; result_exn = None }
  in
  Vclock.tick root.clock 0;
  let ctx =
    {
      fibers = Array.make max_fibers root;
      nfibers = 1;
      current = 0;
      steps = 0;
      trace_rev = [];
      violation = None;
    }
  in
  cur := Some ctx;
  Fun.protect
    ~finally:(fun () -> cur := None)
    (fun () ->
      let rec loop prev =
        if ctx.violation <> None then ()
        else begin
          let en = ref [] in
          let all_done = ref true in
          for i = ctx.nfibers - 1 downto 0 do
            let f = ctx.fibers.(i) in
            if f.status <> Done then all_done := false;
            if enabled_fiber ctx f then en := i :: !en
          done;
          if !all_done then ()
          else if !en = [] then
            record_violation ctx Deadlock
              (String.concat "; "
                 (List.filter_map
                    (fun f ->
                      if f.status = Done then None
                      else
                        Some
                          (Printf.sprintf "fiber %d %s" f.fid
                             (fiber_state_name f)))
                    (Array.to_list (Array.sub ctx.fibers 0 ctx.nfibers))))
          else begin
            ctx.steps <- ctx.steps + 1;
            if ctx.steps > step_limit then
              record_violation ctx Invariant
                (Printf.sprintf "schedule exceeded %d steps" step_limit)
            else begin
              let fid = choose ~enabled:!en ~prev in
              ctx.trace_rev <- fid :: ctx.trace_rev;
              ctx.current <- fid;
              run_slice ctx ctx.fibers.(fid);
              loop fid
            end
          end
        end
      in
      loop 0;
      match ctx.violation with
      | Some v -> Some v
      | None -> (
          match root.result_exn with
          | None -> None
          | Some Stop -> None
          | Some (Check_failed m) ->
              Some
                { kind = Invariant; message = m; trace = List.rev ctx.trace_rev }
          | Some e ->
              Some
                {
                  kind = Uncaught;
                  message = Printexc.to_string e;
                  trace = List.rev ctx.trace_rev;
                }))

(* ------------------------------------------------------------------ *)
(* Exploration drivers *)

let default_choice ~enabled ~prev =
  if List.mem prev enabled then prev else List.hd enabled

(* Growable frame stack for the DFS. *)
type frame = { mutable fr_choice : int; mutable fr_alts : int list }

let explore ?(preemptions = 2) ?(max_schedules = 50_000) scenario =
  let thunk () = scenario (module Model : Shim.S) in
  let stack = ref [||] and depth = ref 0 in
  let push fr =
    if !depth = Array.length !stack then begin
      let bigger = Array.make (max 64 (2 * !depth)) fr in
      Array.blit !stack 0 bigger 0 !depth;
      stack := bigger
    end;
    !stack.(!depth) <- fr;
    incr depth
  in
  let schedules = ref 0 in
  let capped = ref false in
  let violation = ref None in
  let exhausted = ref false in
  while (not !exhausted) && !violation = None && not !capped do
    if !schedules >= max_schedules then capped := true
    else begin
      incr schedules;
      let idx = ref 0 in
      let preempts = ref 0 in
      let choose ~enabled ~prev =
        let i = !idx in
        incr idx;
        let c =
          if i < !depth then begin
            let c = !stack.(i).fr_choice in
            if not (List.mem c enabled) then
              raise
                (Check_failed
                   "non-deterministic scenario: replayed choice not enabled");
            c
          end
          else begin
            let prev_enabled = List.mem prev enabled in
            let d = if prev_enabled then prev else List.hd enabled in
            let alts =
              if prev_enabled then
                if !preempts < preemptions then
                  List.filter (fun x -> x <> prev) enabled
                else []
              else List.filter (fun x -> x <> d) enabled
            in
            push { fr_choice = d; fr_alts = alts };
            d
          end
        in
        if c <> prev && List.mem prev enabled then incr preempts;
        c
      in
      (match run_schedule ~choose thunk with
      | Some v -> violation := Some v
      | None -> ());
      if !violation = None then begin
        (* Backtrack: flip the deepest frame with an untried alternative,
           dropping exhausted frames above it. *)
        let rec backtrack () =
          if !depth = 0 then exhausted := true
          else begin
            let top = !stack.(!depth - 1) in
            match top.fr_alts with
            | [] -> decr depth; backtrack ()
            | a :: rest ->
                top.fr_choice <- a;
                top.fr_alts <- rest
          end
        in
        backtrack ()
      end
    end
  done;
  { schedules = !schedules; complete = !exhausted; violation = !violation }

let explore_random ?(seed = 0) ~schedules scenario =
  let thunk () = scenario (module Model : Shim.S) in
  let rng = Netgraph.Prng.create seed in
  let run = ref 0 in
  let violation = ref None in
  while !run < schedules && !violation = None do
    incr run;
    let choose ~enabled ~prev =
      let _ = prev in
      List.nth enabled (Netgraph.Prng.int rng (List.length enabled))
    in
    match run_schedule ~choose thunk with
    | Some v -> violation := Some v
    | None -> ()
  done;
  { schedules = !run; complete = false; violation = !violation }

let replay scenario trace =
  let thunk () = scenario (module Model : Shim.S) in
  let forced = ref trace in
  let choose ~enabled ~prev =
    match !forced with
    | [] -> default_choice ~enabled ~prev
    | c :: rest ->
        forced := rest;
        if not (List.mem c enabled) then
          raise
            (Check_failed "replay diverged: recorded choice is not enabled");
        c
  in
  let violation = run_schedule ~choose thunk in
  { schedules = 1; complete = false; violation }

let kind_name = function
  | Race -> "race"
  | Deadlock -> "deadlock"
  | Uncaught -> "uncaught exception"
  | Invariant -> "invariant violation"

let pp_violation v =
  Printf.sprintf "%s: %s\n  schedule: %s" (kind_name v.kind) v.message
    (String.concat " " (List.map string_of_int v.trace))
