(* Domain-sharded metrics.

   Every handle owns one cell per domain that ever touched it: the cell is
   reached through Domain.DLS (so the owning domain mutates it without any
   synchronization, the same isolation contract as Workspace.domain_local)
   and registered, once, in the handle's atomic cell list so snapshots can
   merge all shards.  Module-level state is confined to Atomic values —
   there is no shared mutable cell for the domain-race audit to flag, and
   there genuinely is none to race on. *)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* The one lock-free publishing step in the subsystem: a fresh domain's
   cell enters the handle's shared cell list by CAS retry.  Functorized
   over the atomic shim so Check.Sched can run this exact loop under its
   schedule-exploring scheduler (two domains racing their first touch of
   one handle) and prove no cell is ever lost — and catch the mutant
   that replaces the CAS with a get/set pair. *)
module Cellpush (A : Shim.ATOMIC) = struct
  let rec push cells cell =
    let old = A.get cells in
    if not (A.compare_and_set cells old (cell :: old)) then push cells cell
end

module Push = Cellpush (Shim.Real.Atomic)

let atomic_push cells cell = Push.push cells cell

(* ------------------------------------------------------------------ *)
(* Handles *)

type ccell = { mutable c_n : int }

type counter = {
  c_name : string;
  c_cells : ccell list Atomic.t;
  c_key : ccell Domain.DLS.key;
}

type gcell = { mutable g_peak : int }

type gauge = {
  g_name : string;
  g_cells : gcell list Atomic.t;
  g_key : gcell Domain.DLS.key;
}

type hcell = {
  h_counts : int array;  (* one slot per bucket *)
  mutable h_overflow : int;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
}

type histogram = {
  h_name : string;
  h_buckets : int array;  (* inclusive upper bounds, strictly increasing *)
  h_cells : hcell list Atomic.t;
  h_key : hcell Domain.DLS.key;
}

type metric = C of counter | G of gauge | H of histogram

let metric_name = function
  | C c -> c.c_name
  | G g -> g.g_name
  | H h -> h.h_name

let registry : metric list Atomic.t = Atomic.make []

let find_or_create name build =
  let rec go () =
    let old = Atomic.get registry in
    match
      List.find_opt (fun m -> String.equal (metric_name m) name) old
    with
    | Some m -> m
    | None ->
        let m = build () in
        if Atomic.compare_and_set registry old (m :: old) then m else go ()
  in
  go ()

let counter name =
  let made =
    find_or_create name (fun () ->
        let cells = Atomic.make [] in
        let key =
          Domain.DLS.new_key (fun () ->
              let cell = { c_n = 0 } in
              atomic_push cells cell;
              cell)
        in
        C { c_name = name; c_cells = cells; c_key = key })
  in
  match made with
  | C c -> c
  | G _ | H _ -> invalid_arg ("Metrics.counter: '" ^ name ^ "' is not a counter")

let gauge name =
  let made =
    find_or_create name (fun () ->
        let cells = Atomic.make [] in
        let key =
          Domain.DLS.new_key (fun () ->
              let cell = { g_peak = 0 } in
              atomic_push cells cell;
              cell)
        in
        G { g_name = name; g_cells = cells; g_key = key })
  in
  match made with
  | G g -> g
  | C _ | H _ -> invalid_arg ("Metrics.gauge: '" ^ name ^ "' is not a gauge")

let histogram name ~buckets =
  if Array.length buckets = 0 then
    invalid_arg ("Metrics.histogram: '" ^ name ^ "' needs at least one bucket");
  Array.iteri
    (fun i b ->
      if i > 0 && b <= buckets.(i - 1) then
        invalid_arg
          ("Metrics.histogram: '" ^ name ^ "' buckets must strictly increase"))
    buckets;
  let bounds = Array.copy buckets in
  let made =
    find_or_create name (fun () ->
        let cells = Atomic.make [] in
        let key =
          Domain.DLS.new_key (fun () ->
              let cell =
                {
                  h_counts = Array.make (Array.length bounds) 0;
                  h_overflow = 0;
                  h_count = 0;
                  h_sum = 0;
                  h_max = 0;
                }
              in
              atomic_push cells cell;
              cell)
        in
        H { h_name = name; h_buckets = bounds; h_cells = cells; h_key = key })
  in
  match made with
  | H h -> h
  | C _ | G _ ->
      invalid_arg ("Metrics.histogram: '" ^ name ^ "' is not a histogram")

(* ------------------------------------------------------------------ *)
(* Recording: one atomic load when disabled, one DLS fetch plus plain
   single-writer stores when enabled. *)

let add c k =
  if Atomic.get enabled_flag then begin
    let cell = Domain.DLS.get c.c_key in
    cell.c_n <- cell.c_n + k
  end

let incr c = add c 1

let gauge_max g v =
  if Atomic.get enabled_flag then begin
    let cell = Domain.DLS.get g.g_key in
    if v > cell.g_peak then cell.g_peak <- v
  end

let observe h v =
  if Atomic.get enabled_flag then begin
    let cell = Domain.DLS.get h.h_key in
    let nb = Array.length h.h_buckets in
    let rec slot i =
      if i >= nb then cell.h_overflow <- cell.h_overflow + 1
      else if v <= h.h_buckets.(i) then
        cell.h_counts.(i) <- cell.h_counts.(i) + 1
      else slot (i + 1)
    in
    slot 0;
    cell.h_count <- cell.h_count + 1;
    cell.h_sum <- cell.h_sum + v;
    if v > cell.h_max then cell.h_max <- v
  end

(* ------------------------------------------------------------------ *)
(* Snapshot and reset.  Reads are not synchronized with writers: call
   after parallel regions have joined for exact numbers (the simulator's
   map_nodes_par joins all domains before returning, so snapshots taken
   between top-level calls are exact). *)

type histogram_view = {
  bounds : int array;
  counts : int array;
  overflow : int;
  count : int;
  sum : int;
  vmax : int;
}

type value =
  | Counter_v of { total : int; per_domain : int list }
  | Gauge_v of { peak : int }
  | Histogram_v of histogram_view

type entry = { name : string; value : value }

let snapshot () =
  let entries =
    List.map
      (fun m ->
        match m with
        | C c ->
            let shards = List.map (fun cell -> cell.c_n) (Atomic.get c.c_cells) in
            let per_domain =
              List.sort (fun a b -> Int.compare b a) shards
            in
            {
              name = c.c_name;
              value =
                Counter_v
                  { total = List.fold_left ( + ) 0 shards; per_domain };
            }
        | G g ->
            let peak =
              List.fold_left
                (fun acc cell -> if cell.g_peak > acc then cell.g_peak else acc)
                0 (Atomic.get g.g_cells)
            in
            { name = g.g_name; value = Gauge_v { peak } }
        | H h ->
            let nb = Array.length h.h_buckets in
            let counts = Array.make nb 0 in
            let overflow = ref 0 and count = ref 0 and sum = ref 0 in
            let vmax = ref 0 in
            List.iter
              (fun cell ->
                Array.iteri (fun i k -> counts.(i) <- counts.(i) + k) cell.h_counts;
                overflow := !overflow + cell.h_overflow;
                count := !count + cell.h_count;
                sum := !sum + cell.h_sum;
                if cell.h_max > !vmax then vmax := cell.h_max)
              (Atomic.get h.h_cells);
            {
              name = h.h_name;
              value =
                Histogram_v
                  {
                    bounds = Array.copy h.h_buckets;
                    counts;
                    overflow = !overflow;
                    count = !count;
                    sum = !sum;
                    vmax = !vmax;
                  };
            })
      (Atomic.get registry)
  in
  List.sort (fun a b -> String.compare a.name b.name) entries

let reset () =
  List.iter
    (fun m ->
      match m with
      | C c -> List.iter (fun cell -> cell.c_n <- 0) (Atomic.get c.c_cells)
      | G g -> List.iter (fun cell -> cell.g_peak <- 0) (Atomic.get g.g_cells)
      | H h ->
          List.iter
            (fun cell ->
              Array.fill cell.h_counts 0 (Array.length cell.h_counts) 0;
              cell.h_overflow <- 0;
              cell.h_count <- 0;
              cell.h_sum <- 0;
              cell.h_max <- 0)
            (Atomic.get h.h_cells))
    (Atomic.get registry)
