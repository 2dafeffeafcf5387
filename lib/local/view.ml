open Netgraph

type t = {
  radius : int;
  center : int;
  graph : Graph.t;
  ids : int array;
  dist : int array;
  advice : string array;
  input : int array;
  to_global : int array;
}

(* Obs handles.  Counters shard per domain, so "view.balls_extracted"
   doubles as the per-domain utilization signal under map_nodes_par. *)
let m_balls = Obs.Metrics.counter "view.balls_extracted"

let m_ball_size =
  Obs.Metrics.histogram "view.ball_size"
    ~buckets:[| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096 |]

let m_frontier = Obs.Metrics.gauge "view.frontier_peak"

(* Gather one view using [ws] as scratch: a radius-limited BFS stamps the
   ball into the workspace and the induced subgraph is extracted from the
   members' own adjacency lists — O(ball) work, nothing proportional to
   the host graph.  All results are copied out before returning, so the
   workspace is immediately reusable. *)
let make_with ws ?advice ?input g ~ids ~radius v =
  let count = Traversal.bfs_limited_into ws g v radius in
  let sub, to_global = Graph.induced_ball g ws in
  let dist = Array.sub ws.Workspace.dist 0 count in
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_balls;
    Obs.Metrics.observe m_ball_size count;
    (* BFS stamp order makes [dist] non-decreasing, so the frontier (nodes
       at exactly [radius]) is a tail slice; binary-search its start. *)
    let lo = ref 0 and hi = ref count in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if dist.(mid) < radius then lo := mid + 1 else hi := mid
    done;
    Obs.Metrics.gauge_max m_frontier (count - !lo)
  end;
  let pick default arr_opt =
    match arr_opt with
    | None -> Array.make count default
    | Some arr -> Array.init count (fun i -> arr.(to_global.(i)))
  in
  {
    radius;
    center = Workspace.sub_index ws v;
    graph = sub;
    ids = Array.init count (fun i -> ids.(to_global.(i)));
    dist;
    advice = pick "" advice;
    input = pick 0 input;
    to_global;
  }

let make ?advice ?input g ~ids ~radius v =
  make_with (Workspace.domain_local ()) ?advice ?input g ~ids ~radius v

let map_nodes ?advice ?input g ~ids ~radius f =
  Obs.Trace.span "view.map_nodes" (fun () ->
      let ws = Workspace.domain_local () in
      Array.init (Graph.n g) (fun v ->
          f (make_with ws ?advice ?input g ~ids ~radius v)))

let effective_domains = Pool.effective_domains

let map_nodes_par ?domains ?advice ?input g ~ids ~radius f =
  let n = Graph.n g in
  (* Never more chunks than nodes. *)
  let d = Int.min (Pool.effective_domains ?requested:domains ()) (Int.max 1 n) in
  if d <= 1 then map_nodes ?advice ?input g ~ids ~radius f
  else
    Obs.Trace.span "view.map_nodes_par" (fun () ->
        let chunk k =
          let lo = k * n / d and hi = (k + 1) * n / d in
          let ws = Workspace.domain_local () in
          Array.init (hi - lo) (fun i ->
              f (make_with ws ?advice ?input g ~ids ~radius (lo + i)))
        in
        Array.concat (Array.to_list (Pool.run ~domains:d chunk (Array.init d Fun.id))))

let with_advice view advice =
  { view with advice = Array.map (fun gv -> advice.(gv)) view.to_global }
