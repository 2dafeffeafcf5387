open Netgraph
module View = Localmodel.View

let m_queries = Obs.Metrics.counter "serve.queries"
let m_hits = Obs.Metrics.counter "serve.cache.hits"
let m_misses = Obs.Metrics.counter "serve.cache.misses"

let m_ball =
  Obs.Metrics.histogram "serve.ball_size"
    ~buckets:[| 1; 2; 4; 8; 16; 32; 64; 128; 256; 512; 1024; 4096 |]

type query = Output_label of int | Edge_member of int * int | Advice_bits of int
type answer = Label of string | Member of bool | Bits of string

(* One engine answers every node of its graph from one node-indexed
   label column: a node's label is a pure function of its ball, so it
   is decoded once and then read back with one load.  The column holds
   a 16-bit slot per node, naming the answer a hit returns, so a hit
   builds nothing: slot 0 is "not decoded yet", slots 1 to 511 name the
   shared answer of a label of at most 8 bits ({!Advice.Bits.shared}),
   and [long_slot] says the node's answer is boxed in the side column
   [long].  Only a node of degree above 8 has a longer label, so an
   engine whose graph has none holds no side column.  The router keeps
   one engine per resident shard and cuts its nodes into slots; a batch
   hands each slot to exactly one pool worker, which writes only that
   slot's range of the column (and of the side column).  Distinct bytes
   are distinct memory locations, so no lock ever guards the column —
   ownership of disjoint ranges does. *)
type t = {
  graph : Graph.t;
  advice : string array;
  radius : int;
  column : Bytes.t;  (* two bytes per node; empty when the column is off *)
  long : answer array;  (* long.(v) when v's slot is [long_slot]; else [||] *)
  shared : answer array;  (* the [Label] of every shared bit string, by slot *)
  memo : Memo.t option;  (* the class table, possibly shared; never written *)
}

let fail fmt = Format.kasprintf invalid_arg fmt

(* The [Label] and [Bits] answer of every shared bit string
   ({!Advice.Bits.shared}), by slot: a label or advice string of at most
   8 bits — every label of a node of degree at most 8, and every C4
   advice string of one of degree at most 14 — is answered with one of
   these instead of a new box.  Built once and never written after: an
   engine keeps the labels of the domain that created it, and a pool
   worker answering [Advice_bits] reads the bits through its
   domain-local key, which it inherits from the domain that spawned it,
   so every answer exists once in the whole process. *)
let shared_answers =
  Domain.DLS.new_key ~split_from_parent:Fun.id (fun () ->
      ( Array.init Advice.Bits.shared_slots (fun i -> Label (Advice.Bits.shared i)),
        Array.init Advice.Bits.shared_slots (fun i -> Bits (Advice.Bits.shared i)) ))

(* Column slot [k + 1] names shared answer [k]; the one past them names
   the side column.  The longest shared string has 8 bits, and a label
   has one bit per incident edge, so only a node of degree above 8 needs
   the side column. *)
let long_slot = Advice.Bits.shared_slots + 1
let shared_bits = 8

external get16 : Bytes.t -> int -> int = "%caml_bytes_get16"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16"

let bits_answer s =
  match Advice.Bits.shared_slot s with
  | -1 -> Bits s
  | slot -> (snd (Domain.DLS.get shared_answers)).(slot)

(* Decode the ball stamped in [ws] over host [g] (center at stamp index
   [center]; ids, when given, and advice indexed by host node) with the
   center-local decoder, straight from the stamps.  An engine passes no
   ids: its identifiers are its node order (DESIGN.md, "Sharded
   snapshot layout"). *)
let decode ?ids ws g ~advice ~center =
  if Obs.Metrics.enabled () then Obs.Metrics.observe m_ball (Workspace.size ws);
  Center_decode.label ?ids ws g ~advice ~center

(* The label is a function of the ball alone: the tolerant orientation
   decode it reproduces reads its parameters only in strict mode. *)
let label_of_view ~params:_ (view : View.t) =
  let ws = Ethlink.Canonical.stamp_view view in
  decode ~ids:view.View.ids ws view.View.graph ~advice:view.View.advice
    ~center:view.View.center

(* Serving metadata, parsed here only: a missing or malformed value is a
   fault of the file (Codec.Corrupt), a bad [~radius] one of the caller. *)

let corrupt fmt = Format.kasprintf (fun s -> raise (Store.Codec.Corrupt s)) fmt

let meta_int meta key =
  match List.assoc_opt key meta with
  | None -> None
  | Some s -> (
      match int_of_string_opt s with
      | Some v when v >= 0 -> Some v
      | _ -> corrupt "metadata %s is not a non-negative integer: %S" key s)

(* The decode reads no parameter, but a malformed one is still a fault
   of the file. *)
let check_params meta =
  List.iter
    (fun key -> ignore (meta_int meta key))
    [ "params.short_threshold"; "params.cover"; "params.spacing" ]

let serve_radius ?radius meta =
  match radius with
  | Some r when r < 0 -> fail "negative serve radius %d" r
  | Some r -> r
  | None -> (
      match meta_int meta "serve.radius" with
      | Some r -> r
      | None -> corrupt "metadata has no serve.radius (and no ~radius override was given)")

let create ?cache_capacity ?memo ?radius snapshot =
  let advice =
    match snapshot.Store.Snapshot.advice with
    | (_, a) :: _ -> a
    | [] -> fail "Engine.create: snapshot has no advice section"
  in
  let meta = snapshot.Store.Snapshot.meta in
  let radius = serve_radius ?radius meta in
  let graph = snapshot.Store.Snapshot.graph in
  let n = Graph.n graph in
  let store =
    match cache_capacity with
    | Some c when c < 0 -> fail "Engine.create: negative cache capacity %d" c
    | Some 0 -> false
    | Some _ | None -> true
  in
  check_params meta;
  {
    graph;
    advice;
    radius;
    column = Bytes.make (if store then 2 * n else 0) '\000';
    long =
      (if store && Graph.max_degree graph > shared_bits then
         Array.make n (Label "")
       else [||]);
    shared = fst (Domain.DLS.get shared_answers);
    memo = Option.bind memo (fun memo -> Memo.attach memo meta);
  }

let graph t = t.graph
let radius t = t.radius

(* Entry [k] of a graph row (see {!Graph.get32}). *)
let[@inline] at r k = Int32.to_int (Graph.get32 r (k lsl 2))

let check_node t what v =
  let n = Graph.n t.graph in
  if v < 0 || v >= n then fail "Engine: %s names node %d outside 0..%d" what v (n - 1)

(* Slot of edge [e] among [v]'s incident edges, which is the index of
   its bit in [v]'s label: a row of incident edges is ordered by the
   sorted neighbors.  One scan of at most [degree v] ids of the shared
   row validates the query too; only a failure reads the edge's
   endpoints, to name them. *)
let incident_slot t v e =
  check_node t "Edge_member" v;
  if e < 0 || e >= Graph.m t.graph then
    fail "Engine: Edge_member names edge %d outside 0..%d" e (Graph.m t.graph - 1);
  let off = Graph.row_offsets t.graph and inc = Graph.row_edges t.graph in
  let first = at off v and stop = at off (v + 1) in
  let k = ref first in
  while !k < stop && at inc !k <> e do
    incr k
  done;
  if !k = stop then begin
    let a, b = Graph.edge_endpoints t.graph e in
    fail "Engine: Edge_member node %d is not an endpoint of edge %d (%d-%d)" v e a b
  end;
  !k - first

(* Decode [v]'s ball, consulting the class table between the label
   column (the caller) and the decoder: one BFS stamps the ball, its key
   is written into the domain's key buffer and probed there, and only a
   miss decodes.  The table is only read, so pool workers call this on
   one engine at once as long as their node sets are disjoint. *)
let compute_label t v =
  let ws = Workspace.domain_local () in
  ignore (Traversal.bfs_limited_into ws t.graph v t.radius);
  match t.memo with
  | None -> decode ws t.graph ~advice:t.advice ~center:0
  | Some memo -> (
      let n = Ethlink.Canonical.write_ball_key ws t.graph ~advice:t.advice in
      match Memo.find_sub memo (Ethlink.Canonical.key_buffer ()) n with
      | Some label -> label
      | None -> decode ws t.graph ~advice:t.advice ~center:0)

(* A miss stores its answer when the column can name it: a shared
   answer by its slot, a longer label in the side column.  A label the
   column cannot name (longer than 8 bits where the graph has no node
   of degree above 8: only a shipped table's label can be) is answered
   and not stored. *)
let label t v =
  let slot = if Bytes.length t.column = 0 then 0 else get16 t.column (2 * v) in
  if slot = long_slot then begin
    Obs.Metrics.incr m_hits;
    t.long.(v)
  end
  else if slot > 0 then begin
    Obs.Metrics.incr m_hits;
    t.shared.(slot - 1)
  end
  else begin
    Obs.Metrics.incr m_misses;
    let s = compute_label t v in
    match Advice.Bits.shared_slot s with
    | -1 ->
        let a = Label s in
        if Array.length t.long > 0 then begin
          t.long.(v) <- a;
          set16 t.column (2 * v) long_slot
        end;
        a
    | k ->
        if Bytes.length t.column > 0 then set16 t.column (2 * v) (k + 1);
        t.shared.(k)
  end

(* Below the certified radius a label can be shorter than the degree (at
   radius 0 it is [""]): a position past it reads '0', as a truncated
   advice string does in the decoder. *)
let member label k =
  match label with
  | Label s when k < String.length s && s.[k] = '1' -> Member true
  | Label _ | Member _ | Bits _ -> Member false

let output_label t v =
  check_node t "Output_label" v;
  Obs.Metrics.incr m_queries;
  label t v

let edge_member t v e =
  let k = incident_slot t v e in
  Obs.Metrics.incr m_queries;
  member (label t v) k

let advice_bits t v =
  check_node t "Advice_bits" v;
  Obs.Metrics.incr m_queries;
  bits_answer t.advice.(v)

let query t = function
  | Output_label v -> output_label t v
  | Edge_member (v, e) -> edge_member t v e
  | Advice_bits v -> advice_bits t v
