let to_edge_list g =
  let buf = Buffer.create (16 * Graph.m g) in
  Buffer.add_string buf (Printf.sprintf "n %d\n" (Graph.n g));
  Graph.iter_edges
    (fun _ (u, v) -> Buffer.add_string buf (Printf.sprintf "%d %d\n" u v))
    g;
  Buffer.contents buf

let of_edge_list text =
  let fail fmt = Format.kasprintf invalid_arg ("Graphio.of_edge_list: " ^^ fmt) in
  let lines =
    String.split_on_char '\n' text
    |> List.mapi (fun i l -> (i + 1, String.trim l))
    |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> fail "empty input"
  | (header_line, header) :: rest ->
      let n =
        match String.split_on_char ' ' header with
        | [ "n"; count ] -> (
            match int_of_string_opt count with
            | Some n when n > Sys.max_array_length ->
                fail "line %d: node count %d is more than an array holds (%d)"
                  header_line n Sys.max_array_length
            | Some n when n >= 0 -> n
            | _ -> fail "line %d: bad node count in %S" header_line header)
        | _ ->
            fail "line %d: missing 'n <count>' header, got %S" header_line
              header
      in
      let parse_edge (line_no, line) =
        match
          String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
        with
        | [ a; b ] -> (
            match (int_of_string_opt a, int_of_string_opt b) with
            | Some u, Some v ->
                if u < 0 || u >= n || v < 0 || v >= n then
                  fail "line %d: endpoint out of range 0..%d in %S" line_no
                    (n - 1) line
                else if u = v then
                  fail "line %d: self-loop %d-%d" line_no u v
                else (line_no, (Int.min u v, Int.max u v))
            | _ -> fail "line %d: bad edge line %S" line_no line)
        | _ -> fail "line %d: bad edge line %S" line_no line
      in
      let edges = List.map parse_edge rest |> Array.of_list in
      (* Duplicate detection on normalized endpoints: sort int keys and
         compare adjacent entries, reporting both source lines. *)
      let keyed =
        Array.map (fun (line_no, (u, v)) -> ((u * n) + v, line_no)) edges
      in
      Array.sort
        (fun (a, la) (b, lb) ->
          let c = Int.compare a b in
          if c <> 0 then c else Int.compare la lb)
        keyed;
      Array.iteri
        (fun i (key, line_no) ->
          if i > 0 then
            let prev_key, prev_line = keyed.(i - 1) in
            if key = prev_key then
              fail "line %d: duplicate edge %d-%d (first listed on line %d)"
                line_no (key / n) (key mod n) prev_line)
        keyed;
      Graph.of_edges ~n (Array.to_list (Array.map snd edges))

let load path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  of_edge_list text

(* io-hygiene exemption: Netgraph sits below Store in the dependency
   order, so Store.Io is unreachable here — and an edge-list dump is a
   re-generable text artifact, not durable state. *)
let[@advicelint.allow "io-hygiene"] save path g =
  let oc = open_out path in
  output_string oc (to_edge_list g);
  close_out oc

let to_dot ?highlight ?labels g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph G {\n  node [shape=circle];\n";
  Graph.iter_nodes
    (fun v ->
      let label =
        match labels with
        | Some arr when v < Array.length arr && arr.(v) <> "" ->
            Printf.sprintf " label=\"%d:%s\"" v arr.(v)
        | _ -> ""
      in
      let fill =
        match highlight with
        | Some h when Bitset.mem h v ->
            " style=filled fillcolor=lightblue"
        | _ -> ""
      in
      Buffer.add_string buf (Printf.sprintf "  %d [%s%s];\n" v label fill))
    g;
  Graph.iter_edges
    (fun _ (u, v) -> Buffer.add_string buf (Printf.sprintf "  %d -- %d;\n" u v))
    g;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
