open Netgraph

exception Conversion_failure of string

let fail fmt = Format.kasprintf (fun s -> raise (Conversion_failure s)) fmt

let m_encodes = Obs.Metrics.counter "advice.onebit.encodes"
let m_decodes = Obs.Metrics.counter "advice.onebit.decodes"
let m_ones = Obs.Metrics.counter "advice.onebit.ones_written"
let m_nodes = Obs.Metrics.counter "advice.onebit.nodes_labeled"
let m_holders = Obs.Metrics.counter "advice.onebit.holders"

let header = "11110110"

let message_of s =
  let buf = Buffer.create (8 + (4 * String.length s) + 1) in
  Buffer.add_string buf header;
  String.iter
    (fun c ->
      match c with
      | '0' -> Buffer.add_string buf "110"
      | '1' -> Buffer.add_string buf "1110"
      | _ -> invalid_arg "Onebit.message_of: not a bit string")
    s;
  Buffer.add_char buf '0';
  Buffer.contents buf

let message_length s = String.length (message_of s)

let decode_radius assignment =
  Array.fold_left (fun acc s -> max acc (message_length s)) 0 assignment

let required_spacing assignment = (2 * decode_radius assignment) + 2

(* Lexicographically-least geodesic of the given length from [v]:
   repeatedly step to the smallest-id neighbor strictly farther from [v].
   Distances from v are fixed, so every prefix is a geodesic.  Only
   distances up to [len] are ever consulted, so a radius-limited BFS into
   the shared workspace suffices — O(ball) per holder, not O(n). *)
let geodesic g v len =
  let ws = Workspace.domain_local () in
  ignore (Traversal.bfs_limited_into ws g v len);
  let dist u = if Workspace.mem ws u then Workspace.dist ws u else -1 in
  let rec extend node acc j =
    if j = len then Some (List.rev acc)
    else begin
      let next = ref (-1) in
      Array.iter
        (fun u -> if !next < 0 && dist u = j + 1 then next := u)
        (Graph.neighbors g node);
      if !next < 0 then None else extend !next (!next :: acc) (j + 1)
    end
  in
  extend v [ v ] 0

(* ------------------------------------------------------------------ *)
(* Decoding *)

(* Connected components of 1-nodes of size exactly 4 that form a path;
   returns their two endpoints. *)
let header_candidates g ones =
  let candidates = ref [] in
  let seen = Bitset.create (Graph.n g) in
  Bitset.iter
    (fun v ->
      if not (Bitset.mem seen v) then begin
        (* BFS inside the 1-induced subgraph. *)
        let comp = ref [] in
        let queue = Queue.create () in
        Queue.add v queue;
        Bitset.add seen v;
        while not (Queue.is_empty queue) do
          let u = Queue.take queue in
          comp := u :: !comp;
          Array.iter
            (fun w ->
              if Bitset.mem ones w && not (Bitset.mem seen w) then begin
                Bitset.add seen w;
                Queue.add w queue
              end)
            (Graph.neighbors g u)
        done;
        let comp = !comp in
        if List.length comp = 4 then begin
          let comp_deg u =
            Array.fold_left
              (fun acc w -> if List.mem w comp then acc + 1 else acc)
              0 (Graph.neighbors g u)
          in
          let endpoints = List.filter (fun u -> comp_deg u = 1) comp in
          let middles = List.filter (fun u -> comp_deg u = 2) comp in
          if List.length endpoints = 2 && List.length middles = 2 then
            candidates := endpoints :: !candidates
        end
      end)
    ones;
  !candidates

(* Layer symbols around a candidate center: [Some true] = exactly one
   1-node at this distance, [Some false] = none, [None] = ambiguous
   (several 1-nodes), which rejects the candidate wherever it is read.
   The BFS from [c] grows lazily into the shared workspace, one layer at
   a time as the parser asks for it: a candidate costs O(ball(c, p)) for
   the deepest layer p actually read — about the message length in honest
   runs — instead of a full O(n) sweep per candidate. *)
let layer_reader g ones c =
  let ws = Workspace.domain_local () in
  Workspace.ensure ws (Graph.n g);
  Workspace.reset ws;
  Workspace.add ws c ~dist:0;
  let counts = Hashtbl.create 32 in
  let bump j =
    Hashtbl.replace counts j
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts j))
  in
  if Bitset.mem ones c then bump 0;
  let head = ref 0 in
  (* Layer [j] is final once the BFS head reaches distance [j] (every
     layer-(j-1) node has been expanded) or the queue is exhausted. *)
  let rec expand_to j =
    if !head < ws.Workspace.size then begin
      let v = ws.Workspace.queue.(!head) in
      let dv = ws.Workspace.dist.(!head) in
      if dv < j then begin
        incr head;
        Array.iter
          (fun u ->
            if not (Workspace.mem ws u) then begin
              Workspace.add ws u ~dist:(dv + 1);
              if Bitset.mem ones u then bump (dv + 1)
            end)
          (Graph.neighbors g v);
        expand_to j
      end
    end
  in
  fun j ->
    expand_to j;
    match Hashtbl.find_opt counts j with
    | None -> Some false
    | Some 1 -> Some true
    | Some _ -> None

(* Parse the layer pattern around a candidate center; [Some s] when the
   full message structure is present. *)
let parse_layers layer =
  let expect j b = layer j = Some b in
  let header_ok =
    let bits = [ true; true; true; true; false; true; true; false ] in
    List.for_all (fun (j, b) -> expect j b) (List.mapi (fun j b -> (j, b)) bits)
  in
  if not header_ok then None
  else begin
    let buf = Buffer.create 16 in
    let rec chunks p =
      match layer p with
      | Some false -> Some (Buffer.contents buf) (* terminator *)
      | Some true -> (
          match (layer (p + 1), layer (p + 2)) with
          | Some true, Some false ->
              Buffer.add_char buf '0';
              chunks (p + 3)
          | Some true, Some true -> (
              match layer (p + 3) with
              | Some false ->
                  Buffer.add_char buf '1';
                  chunks (p + 4)
              | _ -> None)
          | _ -> None)
      | None -> None
    in
    chunks 8
  end

let decode g ones =
  Obs.Metrics.incr m_decodes;
  let result = Array.make (Graph.n g) "" in
  List.iter
    (fun endpoints ->
      let parses =
        List.filter_map
          (fun c ->
            match parse_layers (layer_reader g ones c) with
            | Some s -> Some (c, s)
            | None -> None)
          endpoints
      in
      match parses with
      | [ (c, s) ] -> result.(c) <- s
      | [] -> () (* stray component: ignore; the encoder certifies *)
      | _ :: _ :: _ -> () (* ambiguous: ignore; the encoder certifies *))
    (header_candidates g ones);
  result

(* ------------------------------------------------------------------ *)
(* Encoding *)

let encode g assignment =
  if Array.length assignment <> Graph.n g then
    invalid_arg "Onebit.encode: assignment size mismatch";
  let holders = Assignment.holders assignment in
  let radius = decode_radius assignment in
  (* Spacing check: layers read around one center must not contain another
     message's 1-nodes.  Each holder scans only its radius-2r ball via the
     shared workspace — O(Σ|ball(v, 2r)|) total instead of the pairwise
     O(holders² · n) of one early-exit BFS per holder pair.  The first
     offending pair in holder order is reported, as before. *)
  let holder_index = Hashtbl.create ((2 * List.length holders) + 1) in
  List.iteri (fun i v -> Hashtbl.replace holder_index v i) holders;
  let holder_arr = Array.of_list holders in
  let ws = Workspace.domain_local () in
  List.iteri
    (fun i v ->
      ignore (Traversal.bfs_limited_into ws g v (2 * radius));
      let best = ref max_int in
      for k = 0 to ws.Workspace.size - 1 do
        match Hashtbl.find_opt holder_index (Workspace.node_at ws k) with
        | Some j when j > i && j < !best -> best := j
        | _ -> ()
      done;
      if !best < max_int then begin
        let u = holder_arr.(!best) in
        fail
          "holders %d and %d are at distance %d; one-bit conversion \
           needs > %d (decode radius %d)"
          v u (Workspace.dist ws u) (2 * radius) radius
      end)
    holders;
  let ones = Bitset.create (Graph.n g) in
  List.iter
    (fun v ->
      let msg = message_of assignment.(v) in
      match geodesic g v (String.length msg - 1) with
      | None ->
          fail "holder %d has no geodesic of length %d for its message" v
            (String.length msg - 1)
      | Some path ->
          List.iteri
            (fun j node -> if msg.[j] = '1' then Bitset.add ones node)
            path)
    holders;
  (* Certify: the decoder must recover exactly the input assignment. *)
  let recovered = decode g ones in
  if recovered <> assignment then
    fail "one-bit conversion failed certification (holders %d)"
      (List.length holders);
  if Obs.Metrics.enabled () then begin
    Obs.Metrics.incr m_encodes;
    Obs.Metrics.add m_nodes (Graph.n g);
    Obs.Metrics.add m_ones (Bitset.cardinal ones);
    Obs.Metrics.add m_holders (List.length holders)
  end;
  ones
