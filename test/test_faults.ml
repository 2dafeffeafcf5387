(* Crash consistency and fault injection for the store/serve pipeline:
   the Store.Io harness (crash at every byte boundary, injected write
   errors, bounded transient retry), salvage of a container with a lost
   shard and its differential agreement with the direct decoder, and
   the CLI: pack's bytes-written accounting, bad files (a damaged
   version-1 file among them) as corrupt-snapshot diagnostics, numeric
   flags as usage errors.

   All scratch files live in the test's own working directory (dune's
   sandbox), never in shared temp space. *)

open Netgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let with_disarm f =
  Fun.protect ~finally:(fun () -> Store.Io.Faults.disarm ()) f

let remove_noerr p = try Sys.remove p with Sys_error _ -> ()

let file_bytes path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let make_packed n seed =
  let rng = Prng.create seed in
  let g = Builders.cycle n in
  let x = Bitset.create (Graph.m g) in
  Graph.iter_edges (fun e _ -> if Prng.bool rng then Bitset.add x e) g;
  let snapshot, cert = Serve.Pack.edge_compression g x in
  (g, x, snapshot, cert)

(* The labels Edge_compression.decode produces on the full graph — the
   ground truth every trusted serve answer must match. *)
let direct_labels g snapshot =
  let assignment =
    match snapshot.Store.Snapshot.advice with
    | (_, a) :: _ -> a
    | [] -> Alcotest.fail "packed snapshot has no advice"
  in
  let decoded = Schemas.Edge_compression.decode g assignment in
  Array.init (Graph.n g) (fun v ->
      let nbrs = Graph.neighbors g v in
      String.init (Array.length nbrs) (fun i ->
          if Bitset.mem decoded (Graph.edge_id g v nbrs.(i)) then '1' else '0'))

(* ------------------------------------------------------------------ *)
(* Store.Io basics *)

let test_write_read_roundtrip () =
  let path = "tf_roundtrip.bin" in
  Fun.protect ~finally:(fun () -> remove_noerr path) @@ fun () ->
  let data = String.init 10_000 (fun i -> Char.chr (i * 7 land 0xFF)) in
  Store.Io.write_file path data;
  check "no temp file left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  check_str "write/read round-trip" data (Store.Io.read_file path);
  (* Overwrite is atomic too: the new contents fully replace the old. *)
  Store.Io.write_file path "short";
  check_str "overwrite" "short" (Store.Io.read_file path)

let test_read_to_eof_on_pipe () =
  (* in_channel_length is meaningless on a pipe; the read-to-EOF loop is
     what makes `serve --batch <(...)` work. *)
  let rfd, wfd = Unix.pipe () in
  let w = Unix.out_channel_of_descr wfd in
  let payload = String.concat "\n" [ "label 1"; "member 2 2"; "bits 3" ] in
  output_string w payload;
  close_out w;
  let r = Unix.in_channel_of_descr rfd in
  let got =
    Fun.protect
      ~finally:(fun () -> close_in_noerr r)
      (fun () -> Store.Io.read_to_eof r)
  in
  check_str "pipe drained to EOF" payload got

(* ------------------------------------------------------------------ *)
(* Crash at every byte boundary *)

let test_crash_every_byte () =
  let _, _, old_snapshot, _ = make_packed 36 5 in
  let _, _, new_snapshot, _ = make_packed 36 6 in
  let old_bytes = Store.Snapshot.write old_snapshot in
  let new_bytes = Store.Snapshot.write new_snapshot in
  let path = "tf_crash.ladv" in
  let temp = path ^ ".tmp" in
  Fun.protect ~finally:(fun () -> remove_noerr path; remove_noerr temp)
  @@ fun () ->
  with_disarm @@ fun () ->
  (* Case 1: the destination holds a previous intact snapshot.  A crash
     at any byte boundary of the replacement must leave it untouched. *)
  Store.Io.write_file path old_bytes;
  for k = 0 to String.length new_bytes do
    Store.Io.Faults.arm
      { Store.Io.Faults.write = Some (Store.Io.Faults.Crash_at k); read = None };
    (match Store.Io.write_file path new_bytes with
    | exception Store.Io.Crashed { persisted; _ } ->
        if persisted <> k then
          Alcotest.failf "crash at %d persisted %d bytes" k persisted
    | () -> Alcotest.failf "crash at byte %d did not fire" k);
    Store.Io.Faults.disarm ();
    (* The abandoned temp file is exactly the torn prefix... *)
    if not (Sys.file_exists temp) then
      Alcotest.failf "crash at %d left no temp file" k;
    check_int "temp holds the torn prefix" k (String.length (file_bytes temp));
    remove_noerr temp;
    (* ...and the destination still reads as the old snapshot. *)
    if not (String.equal (Store.Io.read_file path) old_bytes) then
      Alcotest.failf "crash at byte %d tore the destination" k;
    ignore (Store.Snapshot.read (Store.Io.read_file path))
  done;
  (* Case 2: no previous file.  After a crash there must be nothing at
     the destination — never a torn LADV. *)
  remove_noerr path;
  for k = 0 to String.length new_bytes do
    Store.Io.Faults.arm
      { Store.Io.Faults.write = Some (Store.Io.Faults.Crash_at k); read = None };
    (match Store.Io.write_file path new_bytes with
    | exception Store.Io.Crashed _ -> ()
    | () -> Alcotest.failf "crash at byte %d did not fire" k);
    Store.Io.Faults.disarm ();
    remove_noerr temp;
    if Sys.file_exists path then
      Alcotest.failf "crash at byte %d created a torn destination" k
  done;
  (* And once faults are gone the very same write goes through. *)
  Store.Io.write_file path new_bytes;
  check_str "post-crash write succeeds" new_bytes (Store.Io.read_file path)

(* ------------------------------------------------------------------ *)
(* Injected write errors and the transient retry loop *)

let counter_total name =
  match
    List.find_opt
      (fun e -> String.equal e.Obs.Metrics.name name)
      (Obs.Metrics.snapshot ())
  with
  | Some { Obs.Metrics.value = Obs.Metrics.Counter_v { total; _ }; _ } -> total
  | _ -> 0

let test_write_error_unlinks () =
  let path = "tf_eio.ladv" in
  let temp = path ^ ".tmp" in
  Fun.protect ~finally:(fun () -> remove_noerr path; remove_noerr temp)
  @@ fun () ->
  with_disarm @@ fun () ->
  List.iter
    (fun kind ->
      Store.Io.Faults.arm
        {
          Store.Io.Faults.write =
            Some (Store.Io.Faults.Write_error { at_byte = 7; kind; times = 1 });
          read = None;
        };
      (match Store.Io.write_file path "0123456789abcdef" with
      | exception Store.Io.Fault { at_byte; _ } ->
          check_int "failed at the injected byte" 7 at_byte
      | () -> Alcotest.fail "injected write error did not fire");
      check "partial temp file unlinked" false (Sys.file_exists temp);
      check "destination untouched" false (Sys.file_exists path))
    [ Store.Io.Eio; Store.Io.Enospc ];
  (* A transient fault that outlives the retry budget surfaces too. *)
  Store.Io.Faults.arm
    {
      Store.Io.Faults.write =
        Some
          (Store.Io.Faults.Write_error
             { at_byte = 3; kind = Store.Io.Transient; times = 100 });
      read = None;
    };
  (match Store.Io.write_file ~retries:2 path "payload" with
  | exception Store.Io.Fault { kind = Store.Io.Transient; _ } -> ()
  | exception Store.Io.Fault _ -> Alcotest.fail "wrong fault kind"
  | () -> Alcotest.fail "exhausted retries still succeeded");
  check "no temp after exhausted retries" false (Sys.file_exists temp);
  check "no destination after exhausted retries" false (Sys.file_exists path)

let test_transient_retry () =
  let path = "tf_retry.ladv" in
  Fun.protect
    ~finally:(fun () ->
      remove_noerr path;
      remove_noerr (path ^ ".tmp"))
  @@ fun () ->
  with_disarm @@ fun () ->
  Obs.Sink.enable ();
  Fun.protect ~finally:(fun () -> Obs.Sink.disable ()) @@ fun () ->
  Obs.Sink.reset ();
  let backoffs = ref [] in
  Store.Io.Faults.arm
    {
      Store.Io.Faults.write =
        Some
          (Store.Io.Faults.Write_error
             { at_byte = 2; kind = Store.Io.Transient; times = 2 });
      read = None;
    };
  Store.Io.write_file ~backoff:(fun d -> backoffs := d :: !backoffs) path
    "persisted despite the blips";
  check_str "third attempt landed" "persisted despite the blips"
    (Store.Io.read_file path);
  check "exponential backoff schedule" true
    (match List.rev !backoffs with [ 1; 2 ] -> true | _ -> false);
  check_int "io.retries counted" 2 (counter_total "io.retries");
  check_int "two injected write faults" 2 (counter_total "fault.injected.write");
  check_int "one file written" 1 (counter_total "io.files_written")

(* ------------------------------------------------------------------ *)
(* Salvage: a lost shard, and nothing checksum-failed served *)

(* Flip the LAST payload byte of the section at [index] (0-based, file
   order), leaving tag, length and stored CRC alone.  For an advice
   section the tail is packed label bits, so the damaged payload still
   parses: the checksum alone catches it. *)
let flip_payload_byte bytes index =
  let sections = Store.Snapshot.sections bytes in
  let s = List.nth sections index in
  let b = Bytes.of_string bytes in
  (* payload starts after tag:u8 and length:u32 *)
  let pos = s.Store.Codec.offset + 5 + s.Store.Codec.length - 1 in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
  Bytes.to_string b

let four_shards snapshot ~radius = Store.Shard.build ~shards:4 ~halo:(max radius 1) snapshot

(* [snapshot] as a 4-shard container with one bit flipped in the middle
   of shard 1's frame, and that shard's manifest row. *)
let lost_shard_container snapshot ~radius =
  let container = four_shards snapshot ~radius in
  let victim =
    (Store.Shard.manifest (Store.Shard.open_bytes container)).Store.Shard.m_shards.(1)
  in
  let b = Bytes.of_string container in
  let at = victim.Store.Shard.i_offset + (victim.Store.Shard.i_bytes / 2) in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x01));
  (Bytes.to_string b, victim)

let salvaged bytes = Serve.Router.create ~salvage:true (Store.Shard.open_bytes bytes)

(* Every answer served while a shard is lost is counted degraded, and
   only those: before the loss nothing is counted, and a query for the
   lost range is an error, not an answer. *)
let test_degraded_metrics () =
  let _, _, snapshot, cert = make_packed 40 31 in
  let damaged, victim = lost_shard_container snapshot ~radius:cert.Serve.Pack.radius in
  Obs.Sink.enable ();
  Fun.protect ~finally:(fun () -> Obs.Sink.disable ()) @@ fun () ->
  Obs.Sink.reset ();
  let e = salvaged damaged in
  ignore (Serve.Router.query e (Serve.Engine.Output_label 0));
  check_int "healthy so far: nothing degraded" 0 (counter_total "serve.degraded");
  (match Serve.Router.query e (Serve.Engine.Output_label victim.Store.Shard.i_lo) with
  | exception Serve.Router.Shard_lost { shard; _ } -> check_int "shard 1 lost" 1 shard
  | _ -> Alcotest.fail "a query for the damaged shard was answered");
  check_int "a lost query is no answer" 0 (counter_total "serve.degraded");
  ignore (Serve.Router.query e (Serve.Engine.Output_label 0));
  ignore (Serve.Router.query e (Serve.Engine.Output_label (Graph.n snapshot.Store.Snapshot.graph - 1)));
  check_int "every degraded query counted" 2 (counter_total "serve.degraded");
  check_int "the router agrees" 2 (Serve.Router.degraded_answers e)

(* ------------------------------------------------------------------ *)
(* Differential fuzz: random read faults vs the direct decoder *)

(* Seeded read faults over a 4-shard container: a fault in the prefix or
   the manifest, or a truncation, refuses the file at open; a fault in a
   shard body loses that shard.  Every sampled query either returns
   exactly the direct decoder's label or raises [Shard_lost]. *)
let test_read_fault_fuzz () =
  let g, _, snapshot, cert = make_packed 90 47 in
  let expected = direct_labels g snapshot in
  let path = "tf_fuzz.ladv" in
  Fun.protect ~finally:(fun () -> remove_noerr path) @@ fun () ->
  with_disarm @@ fun () ->
  Store.Io.write_file path (four_shards snapshot ~radius:cert.Serve.Pack.radius);
  let len = String.length (Store.Io.read_file path) in
  let sample = [ 0; 7; 23; 44; 61; 89 ] in
  let refused = ref 0 and degraded = ref 0 and clean = ref 0 in
  for seed = 0 to 199 do
    let plan = Store.Io.Faults.random_plan ~seed ~len in
    Store.Io.Faults.arm { plan with Store.Io.Faults.write = None };
    let raw = Store.Io.read_file path in
    Store.Io.Faults.disarm ();
    match salvaged raw with
    | exception (Store.Codec.Corrupt _ | Invalid_argument _) -> incr refused
    | e ->
        List.iter
          (fun v ->
            match Serve.Router.query e (Serve.Engine.Output_label v) with
            | Serve.Engine.Label s -> check_str "fuzz answer = direct decode" expected.(v) s
            | _ -> Alcotest.fail "expected Label"
            | exception Serve.Router.Shard_lost _ -> ())
          sample;
        if Serve.Router.degraded e then incr degraded else incr clean
  done;
  (* The plan space must actually exercise all three outcomes. *)
  check "some faults refused outright" true (!refused > 0);
  check "some faults degraded service" true (!degraded > 0);
  check "some plans were harmless" true (!clean > 0)

(* ------------------------------------------------------------------ *)
(* Pack CLI: serialize once, count once *)

(* dune runtest runs from _build/default/test; dune exec from the
   project root.  Resolve whichever copy of the CLI exists. *)
let exe () =
  List.find_opt Sys.file_exists
    [ "../bin/advice_store.exe"; "_build/default/bin/advice_store.exe" ]

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.equal (String.sub s i m) sub then Some i
    else go (i + 1)
  in
  go 0

(* Pull "total": N out of the metrics JSON, right after the counter's
   "name" line. *)
let json_counter_total json name =
  match find_sub json (Printf.sprintf "\"name\": \"%s\"" name) with
  | None -> Alcotest.failf "metrics JSON has no counter %s" name
  | Some at -> (
      let tail = String.sub json at (String.length json - at) in
      match find_sub tail "\"total\": " with
      | None -> Alcotest.failf "counter %s has no total" name
      | Some t ->
          let start = t + String.length "\"total\": " in
          let stop = ref start in
          while
            !stop < String.length tail
            && (match tail.[!stop] with '0' .. '9' -> true | _ -> false)
          do
            incr stop
          done;
          int_of_string (String.sub tail start (!stop - start)))

let test_pack_counts_bytes_once () =
  let exe =
    match exe () with
    | Some e -> e
    | None -> Alcotest.fail "advice_store.exe not built (dune deps force it)"
  in
  let out = "tf_cli.ladv" and mjson = "tf_cli_metrics.json" in
  Fun.protect ~finally:(fun () -> remove_noerr out; remove_noerr mjson)
  @@ fun () ->
  let cmd =
    Printf.sprintf
      "%s pack --graph cycle --n 80 --seed 3 --out %s --metrics %s >/dev/null"
      exe out mjson
  in
  check_int "pack exits cleanly" 0 (Sys.command cmd);
  let size = String.length (file_bytes out) in
  let json = file_bytes mjson in
  (* The regression: a second Snapshot.write just to print the size used
     to double this counter. *)
  check_int "store.bytes_written = on-disk size" size
    (json_counter_total json "store.bytes_written");
  check_int "io.bytes_written agrees" size
    (json_counter_total json "io.bytes_written");
  (* And the snapshot itself round-trips through the strict reader. *)
  ignore (Store.Snapshot.read (file_bytes out))

(* One CLI run: exit code, stdout and stderr. *)
let run_cli args =
  let exe =
    match exe () with
    | Some e -> e
    | None -> Alcotest.fail "advice_store.exe not built (dune deps force it)"
  in
  let out = "tf_cli.out" and err = "tf_cli.err" in
  Fun.protect ~finally:(fun () -> remove_noerr out; remove_noerr err) @@ fun () ->
  let code =
    Sys.command (Printf.sprintf "%s %s >%s 2>%s" exe (String.concat " " args) out err)
  in
  (code, file_bytes out, file_bytes err)

let with_files files f =
  Fun.protect ~finally:(fun () -> List.iter (fun (p, _) -> remove_noerr p) files)
  @@ fun () ->
  List.iter (fun (p, data) -> Store.Io.write_file p data) files;
  f ()

let has_sub s sub = Option.is_some (find_sub s sub)

(* A damaged or malformed file is an expected condition: exit 2 with the
   codec's diagnostic, never an uncaught exception (exit 125). *)
let expect_corrupt what ~mentions (code, _, err) =
  check_int (what ^ ": exit 2") 2 code;
  check (what ^ ": corrupt snapshot diagnostic") true
    (String.starts_with ~prefix:"corrupt snapshot: " err);
  check (what ^ ": names " ^ mentions) true (has_sub err mentions)

let test_bad_metadata_is_corrupt () =
  let _g, _x, snapshot, cert = make_packed 40 5 in
  let with_radius r =
    { snapshot with
      Store.Snapshot.meta =
        List.map
          (fun (k, v) -> if String.equal k "serve.radius" then (k, r) else (k, v))
          snapshot.Store.Snapshot.meta }
  in
  let v1 = Store.Snapshot.write snapshot in
  let meta_len =
    match List.rev (Store.Snapshot.sections v1) with
    | s :: _ -> s.Store.Codec.length
    | [] -> Alcotest.fail "no sections"
  in
  let files =
    [
      ("tf_x.ladv", Store.Snapshot.write (with_radius "x"));
      ( "tf_x2.ladv",
        Store.Shard.build ~shards:2 ~halo:(max cert.Serve.Pack.radius 1) (with_radius "x") );
      ("tf_neg.ladv", Store.Snapshot.write (with_radius "-3"));
      ("tf_cut.ladv", String.sub v1 0 (String.length v1 - 3));
      ("tf_q.txt", "label 0\n");
    ]
  in
  with_files files @@ fun () ->
  let serve ?(flags = []) path = run_cli ([ "serve"; path; "--batch"; "tf_q.txt" ] @ flags) in
  expect_corrupt "v1 serve.radius = x" ~mentions:"serve.radius" (serve "tf_x.ladv");
  expect_corrupt "2-shard serve.radius = x" ~mentions:"serve.radius" (serve "tf_x2.ladv");
  expect_corrupt "v1 serve.radius = -3" ~mentions:"serve.radius" (serve "tf_neg.ladv");
  (* The cut file is refused on the strict reader's truncation
     diagnostic, whose counts include the checksum, with or without
     --salvage. *)
  let truncation =
    Printf.sprintf "%d payload byte(s) plus a 4-byte checksum (%d in all) but only %d"
      meta_len (meta_len + 4) (meta_len + 1)
  in
  expect_corrupt "--salvage, metadata cut off" ~mentions:truncation
    (serve ~flags:[ "--salvage" ] "tf_cut.ladv");
  expect_corrupt "truncated, fail-stop" ~mentions:truncation (serve "tf_cut.ladv")

(* A v1 file whose metadata has a malformed [params.*] value cannot make
   an engine.  Under --salvage its one shard is lost at the first query,
   and every query answers with the diagnostic. *)
let test_bad_params_lose_the_shard () =
  let _g, _x, snapshot, _cert = make_packed 400 5 in
  let v1 =
    Store.Snapshot.write
      { snapshot with
        Store.Snapshot.meta =
          List.map
            (fun (k, v) -> if String.equal k "params.cover" then (k, "x") else (k, v))
            snapshot.Store.Snapshot.meta }
  in
  let files =
    [
      ("tf_params.ladv", v1);
      ("tf_q.txt", "label 0\nlabel 7\n");
    ]
  in
  with_files files @@ fun () ->
  List.iter
    (fun path ->
      let code, out, _ = run_cli [ "serve"; path; "--batch"; "tf_q.txt"; "--salvage" ] in
      check_int (path ^ ": exit 0") 0 code;
      check (path ^ ": the shard is lost on the params diagnostic") true
        (has_sub out "label 0 -> error: shard 0 lost: metadata params.cover");
      check (path ^ ": every query failed") true (has_sub out ", 2 failed)"))
    [ "tf_params.ladv" ]

(* A damaged v1 file is refused, with or without --salvage: its section
   checksums detect the damage but cannot localize it below the file's
   one shard, so nothing of it is served.  [serve --batch], [serve
   --salvage --batch] and [inspect --health] each exit 2 with nothing on
   stdout and the strict reader's one diagnostic line on stderr.  Three
   damaged copies of one packed file (a bit flipped in the advice
   section's packed tail, a graph payload byte flipped, the metadata
   cut off), and a file whose [params.*] value is malformed with an
   advice bit flipped too: the checksum is checked before any engine is
   built. *)
let test_damaged_v1_is_refused () =
  let _g, _x, snapshot, _cert = make_packed 400 7 in
  let v1 = Store.Snapshot.write snapshot in
  let meta =
    match List.rev (Store.Snapshot.sections v1) with
    | s :: _ -> s
    | [] -> Alcotest.fail "no sections"
  in
  let bad_params =
    Store.Snapshot.write
      { snapshot with
        Store.Snapshot.meta =
          List.map
            (fun (k, v) -> if String.equal k "params.cover" then (k, "x") else (k, v))
            snapshot.Store.Snapshot.meta }
  in
  (* Sections are graph, advice, metadata. *)
  let damaged =
    [
      ("tf_v1_advice.ladv", flip_payload_byte v1 1, "checksum mismatch in section (tag 2)");
      ("tf_v1_graph.ladv", flip_payload_byte v1 0, "checksum mismatch in section (tag 1)");
      ("tf_v1_nometa.ladv", String.sub v1 0 meta.Store.Codec.offset, "truncated input");
      ( "tf_v1_params.ladv",
        flip_payload_byte bad_params 1,
        "checksum mismatch in section (tag 2)" );
    ]
  in
  with_files
    (("tf_q.txt", "label 0\nlabel 7\n") :: List.map (fun (p, b, _) -> (p, b)) damaged)
  @@ fun () ->
  List.iter
    (fun (path, _, mentions) ->
      let runs =
        [
          ("serve", [ "serve"; path; "--batch"; "tf_q.txt" ]);
          ("serve --salvage", [ "serve"; path; "--batch"; "tf_q.txt"; "--salvage" ]);
          ("inspect --health", [ "inspect"; path; "--health" ]);
        ]
      in
      let errs =
        List.map
          (fun (what, args) ->
            let what = path ^ ": " ^ what in
            let ((_, out, err) as run) = run_cli args in
            expect_corrupt what ~mentions run;
            check_str (what ^ ": nothing on stdout") "" out;
            check (what ^ ": one stderr line") true
              (List.length (String.split_on_char '\n' (String.trim err)) = 1);
            err)
          runs
      in
      List.iter (check_str (path ^ ": the same diagnostic") (List.hd errs)) errs)
    damaged

(* Out-of-range numeric flags are usage errors: one line on stderr and
   exit 2 before any pack or open (nothing printed, nothing written). *)
let test_numeric_flags_rejected () =
  let _g, _x, snapshot, cert = make_packed 40 5 in
  let files =
    [
      ("tf_v1.ladv", Store.Snapshot.write snapshot);
      ("tf_v2.ladv", Store.Shard.build ~shards:2 ~halo:(max cert.Serve.Pack.radius 1) snapshot);
      ("tf_q.txt", "label 0\n");
    ]
  in
  with_files files @@ fun () ->
  let usage what ~flag (code, out, err) =
    check_int (what ^ ": exit 2") 2 code;
    check_str (what ^ ": nothing on stdout") "" out;
    check (what ^ ": one line naming " ^ flag) true
      (has_sub err flag && String.index_opt err '\n' = Some (String.length err - 1))
  in
  List.iter
    (fun path ->
      let serve flags = run_cli ([ "serve"; path; "--batch"; "tf_q.txt" ] @ flags) in
      usage (path ^ " --domains 0") ~flag:"--domains" (serve [ "--domains=0" ]);
      usage (path ^ " --resident-mb=-1") ~flag:"--resident-mb" (serve [ "--resident-mb=-1" ]);
      usage (path ^ " --port 70000") ~flag:"--port" (serve [ "--port=70000" ]);
      usage (path ^ " --port=-5") ~flag:"--port" (serve [ "--port=-5" ]);
      (* A size that overflows: 2^42 MiB wraps to a negative byte
         budget. *)
      usage (path ^ " --resident-mb 2^42") ~flag:"--resident-mb"
        (serve [ "--resident-mb=4398046511104" ]))
    [ "tf_v1.ladv"; "tf_v2.ladv" ];
  let pack flag = run_cli [ "pack"; "--n"; "40"; "--out"; "tf_packed.ladv"; flag ] in
  usage "pack --shards 0" ~flag:"--shards" (pack "--shards=0");
  usage "pack --shards=-2" ~flag:"--shards" (pack "--shards=-2");
  usage "pack --domains=-1" ~flag:"--domains" (pack "--domains=-1");
  let ((_, _, err) as sample) = pack "--sample=-3" in
  usage "pack --sample=-3" ~flag:"--sample" sample;
  check_str "pack --sample=-3: message" "pack: --sample must be at least 0 (got -3)\n" err;
  check "no file written" false (Sys.file_exists "tf_packed.ladv");
  let g, x, _, _ = make_packed 40 5 in
  match Serve.Pack.edge_compression ~sample:(-3) g x with
  | _ -> Alcotest.fail "Pack.edge_compression accepted a negative sample"
  | exception Invalid_argument _ -> ()

(* --shards asks for at most that many: the plan clamps it to the node
   count, and pack reports the count it wrote. *)
let test_pack_reports_written_shards () =
  let out = "tf_s50.ladv" in
  Fun.protect ~finally:(fun () -> remove_noerr out) @@ fun () ->
  let code, stdout, _ =
    run_cli [ "pack"; "--graph"; "cycle"; "--n"; "12"; "--shards"; "50"; "--out"; out ]
  in
  check_int "pack exits cleanly" 0 code;
  check "the line names the 12 shards written" true
    (has_sub stdout "sharded: 12 shard(s), halo ");
  check_int "the manifest agrees" 12
    (Array.length
       (Store.Shard.manifest (Store.Shard.open_file out)).Store.Shard.m_shards)

(* A radius certified on a sample is announced before the answers; an
   exhaustive pack's serve output gains nothing. *)
let test_sampled_radius_announced () =
  let packed = [ "tf_s8.ladv"; "tf_s0.ladv" ] in
  with_files [ ("tf_q.txt", "label 0\n") ] @@ fun () ->
  Fun.protect ~finally:(fun () -> List.iter remove_noerr packed) @@ fun () ->
  let serve sample out =
    let code, _, _ = run_cli [ "pack"; "--n"; "40"; "--sample"; sample; "--out"; out ] in
    check_int ("pack --sample " ^ sample) 0 code;
    let code, stdout, _ = run_cli [ "serve"; out; "--batch"; "tf_q.txt" ] in
    check_int ("serve, --sample " ^ sample) 0 code;
    stdout
  in
  let sampled = serve "8" "tf_s8.ladv" in
  let line =
    "certified on sample=8 of 40 nodes: unsampled nodes are unchecked (repack \
     with --sample 0)\n"
  in
  (match (find_sub sampled line, find_sub sampled "label 0 -> ") with
  | Some at, Some answer -> check "the line precedes the answers" true (at < answer)
  | _ -> Alcotest.failf "sampled serve lacks the line or the answer:\n%s" sampled);
  check "exhaustive: no line" false (has_sub (serve "0" "tf_s0.ladv") "certified on")

(* Checksum-valid files whose counts or lengths lie about the bytes
   behind them.  Each one used to crash every reader (exit 125, with
   [Out of memory] or [Invalid_argument]); a reader now bounds every
   count by the bytes left before it allocates, so the file is a corrupt
   snapshot — or, behind a healthy manifest, a lost shard. *)
let lying_files () =
  let module C = Store.Codec in
  let contents f =
    let w = C.writer () in
    f w;
    C.contents w
  in
  let meta w =
    C.varint w 1;
    C.str w "serve.radius";
    C.str w "1"
  in
  let header w ~version ~sections =
    C.raw w Store.Snapshot.magic;
    C.u16 w version;
    C.varint w sections
  in
  (* A 4-node cycle whose four advice lengths are 2^61 each: their sum
     wraps to 0. *)
  let wrapping =
    contents (fun w ->
        header w ~version:1 ~sections:3;
        C.section w ~tag:Store.Snapshot.tag_graph
          (Store.Snapshot.graph_payload (Builders.cycle 4));
        C.section w ~tag:Store.Snapshot.tag_advice
          (contents (fun a ->
               C.str a "x";
               C.varint a 4;
               for _ = 1 to 4 do
                 C.varint a (1 lsl 61)
               done));
        C.section w ~tag:Store.Snapshot.tag_meta (contents meta))
  in
  let manifest ~shards rows =
    contents (fun m ->
        C.varint m 4;
        C.varint m 4;
        C.varint m 1;
        C.varint m shards;
        C.varint m 1;
        C.str m "x";
        meta m;
        rows m)
  in
  (* A manifest that declares 2^40 shards and holds one row. *)
  let many_shards =
    contents (fun w ->
        header w ~version:2 ~sections:((1 lsl 40) + 1);
        C.section w ~tag:4
          (manifest ~shards:(1 lsl 40) (fun m ->
               List.iter (C.varint m) [ 0; 4; 4; 4; 0; 0 ];
               C.u32 m 0)))
  in
  (* One shard whose manifest row and body header both claim 2^40
     local nodes. *)
  let huge_body =
    let body =
      contents (fun b ->
          List.iter (C.varint b) [ 0; 0; 4; 1 lsl 40; 4 ];
          C.raw b "\001\001\001")
    in
    contents (fun w ->
        header w ~version:2 ~sections:2;
        C.section w ~tag:4
          (manifest ~shards:1 (fun m ->
               List.iter (C.varint m) [ 0; 4; 1 lsl 40; 4; 0; String.length body + 9 ];
               C.u32 m (Store.Crc32.of_string body)));
        C.section w ~tag:5 body)
  in
  [ ("tf_wrap.ladv", wrapping); ("tf_shards.ladv", many_shards); ("tf_body.ladv", huge_body) ]

let test_lying_counts_are_corrupt () =
  with_files (("tf_q.txt", "label 0\n") :: lying_files ()) @@ fun () ->
  let serve ?(flags = []) path = run_cli ([ "serve"; path; "--batch"; "tf_q.txt" ] @ flags) in
  expect_corrupt "advice lengths that wrap: serve" ~mentions:"overrun"
    (serve "tf_wrap.ladv");
  expect_corrupt "advice lengths that wrap: inspect" ~mentions:"overrun"
    (run_cli [ "inspect"; "tf_wrap.ladv" ]);
  (* --salvage does not change how a v1 file opens: refused alike. *)
  expect_corrupt "advice lengths that wrap: serve --salvage" ~mentions:"overrun"
    (serve ~flags:[ "--salvage" ] "tf_wrap.ladv");
  expect_corrupt "2^40 shards: serve" ~mentions:"shard row(s) cannot fit"
    (serve "tf_shards.ladv");
  expect_corrupt "2^40 shards: inspect" ~mentions:"shard row(s) cannot fit"
    (run_cli [ "inspect"; "tf_shards.ladv" ]);
  expect_corrupt "2^40 local nodes: serve" ~mentions:"shard node ids"
    (serve "tf_body.ladv");
  (* The manifest alone shows the row is impossible: 2^40 ids cannot
     fit a 13-byte body, so inspect refuses it before printing. *)
  expect_corrupt "2^40 local nodes: inspect"
    ~mentions:"shard 0 claims 1099511627776 local node(s)"
    (run_cli [ "inspect"; "tf_body.ladv" ]);
  (* Under --salvage the shard is lost and its query fails alone. *)
  let code, out, _ = serve ~flags:[ "--salvage" ] "tf_body.ladv" in
  check_int "2^40 local nodes, --salvage: exit 0" 0 code;
  check "2^40 local nodes, --salvage: the shard is lost" true
    (has_sub out "label 0 -> error: shard 0 lost: shard node ids: 1099511627776 id(s)");
  check "2^40 local nodes, --salvage: one query failed" true (has_sub out ", 1 failed)")

(* A file shorter than the 6-byte prefix (magic and version) cannot be
   told apart by version: inspect reports it as corrupt, with or without
   --health, before it picks a reader. *)
let test_short_file_is_corrupt () =
  with_files [ ("tf_empty.ladv", ""); ("tf_five.ladv", "LADV\002") ] @@ fun () ->
  List.iter
    (fun (path, size) ->
      List.iter
        (fun flags ->
          expect_corrupt
            (Printf.sprintf "%d-byte file: inspect %s" size (String.concat " " flags))
            ~mentions:(Printf.sprintf "%d byte(s) is too short for a snapshot prefix" size)
            (run_cli ([ "inspect"; path ] @ flags)))
        [ []; [ "--health" ] ])
    [ ("tf_empty.ladv", 0); ("tf_five.ladv", 5) ]

(* pack --input refuses a file it cannot pack with one line and exit
   2: an edge list without its header, one whose declared node count no
   array can hold (26 bytes, so no host tries to allocate it), and a
   grid the one-bit schema cannot encode. *)
let test_pack_input_errors () =
  let grid = Graphio.to_edge_list (Builders.grid 64 64) in
  let files =
    [
      ("tf_nohdr.txt", "0 1\n1 2\n2 0\n");
      ("tf_huge.txt", "n 4611686018427387903\n0 1\n");
      ("tf_grid.txt", grid);
    ]
  in
  check_int "the declared-n file is 26 bytes" 26 (String.length (List.assoc "tf_huge.txt" files));
  with_files files @@ fun () ->
  Fun.protect ~finally:(fun () -> remove_noerr "tf_in.ladv") @@ fun () ->
  List.iter
    (fun (path, mentions) ->
      let code, _, err = run_cli [ "pack"; "--input"; path; "--out"; "tf_in.ladv" ] in
      check_int (path ^ ": exit 2") 2 code;
      check (path ^ ": one line") true
        (String.starts_with ~prefix:"pack: " err
        && String.index_opt err '\n' = Some (String.length err - 1));
      check (path ^ ": names " ^ mentions) true (has_sub err mentions);
      check (path ^ ": nothing written") false (Sys.file_exists "tf_in.ladv"))
    [
      ("tf_nohdr.txt", "missing 'n <count>' header");
      ("tf_huge.txt", "node count 4611686018427387903 is more than an array holds");
      ("tf_grid.txt", "cannot encode the graph");
    ]

(* Checksum-valid files whose shipped class table lies: a class count
   past the bytes behind it, a key length past the end, or an empty key
   (the memo's empty-slot marker).  inspect and serve --memo exit 2
   with one corrupt-snapshot line, in either container version, and
   the table reader allocates nothing in proportion to the lie. *)
let test_hostile_table_is_corrupt () =
  let _g, _x, snapshot, cert = make_packed 40 5 in
  let table f =
    let w = Store.Codec.writer () in
    f w;
    Store.Codec.contents w
  in
  let lies =
    [
      ( "2^40 classes",
        "claims 1099511627776 class(es)",
        table (fun w ->
            Store.Codec.varint w (1 lsl 40);
            Store.Codec.varint w 2;
            Store.Codec.str w "k";
            Store.Codec.str w "1") );
      ( "a 2^40-byte key",
        "need 1099511627776 byte(s)",
        table (fun w ->
            Store.Codec.varint w 1;
            Store.Codec.varint w 2;
            Store.Codec.varint w (1 lsl 40);
            Store.Codec.raw w "key") );
      ( "an empty key",
        "empty key",
        table (fun w ->
            Store.Codec.varint w 1;
            Store.Codec.varint w 2;
            Store.Codec.str w "";
            Store.Codec.str w "10") );
    ]
  in
  List.iter
    (fun (what, _, bytes) ->
      (* An empty minor heap first: a minor collection inside the span
         would count the promoted words again. *)
      Gc.minor ();
      let before = Gc.allocated_bytes () in
      (match Serve.Memo.read_table bytes with
      | _ -> Alcotest.failf "%s: read" what
      | exception Store.Codec.Corrupt _ -> ());
      check (what ^ ": allocation bounded by the bytes") true
        (Gc.allocated_bytes () -. before < 4096.))
    lies;
  let with_table bytes =
    { snapshot with
      Store.Snapshot.meta =
        List.filter (fun (k, _) -> not (String.starts_with ~prefix:"serve.table" k))
          snapshot.Store.Snapshot.meta
        @ [ (Serve.Memo.table_key, bytes) ] }
  in
  let files =
    List.concat_map
      (fun (what, mentions, bytes) ->
        [
          ("tf_t1.ladv", what ^ ", v1", mentions, Store.Snapshot.write (with_table bytes));
          ( "tf_t2.ladv",
            what ^ ", v2",
            mentions,
            Store.Shard.build ~shards:2 ~halo:(max cert.Serve.Pack.radius 1) (with_table bytes) );
        ])
      lies
  in
  with_files [ ("tf_q.txt", "label 0\n") ] @@ fun () ->
  List.iter
    (fun (path, what, mentions, bytes) ->
      with_files [ (path, bytes) ] @@ fun () ->
      let one_line ((_, _, err) as r) =
        expect_corrupt what ~mentions r;
        check (what ^ ": one line") true (String.index_opt err '\n' = Some (String.length err - 1))
      in
      one_line (run_cli [ "inspect"; path ]);
      one_line (run_cli [ "serve"; path; "--batch"; "tf_q.txt"; "--memo" ]))
    files

(* --domains is fitted to the machine once, before anything runs: a v1
   file served with --domains 8 is cut into at most the fitted count of
   slots, so a batch touching every eighth of the graph fans out over
   no more; and the sharded packer writes the same bytes at any count. *)
let test_domains_fitted_once () =
  let n = 400 in
  let queries = List.init 8 (fun k -> Printf.sprintf "label %d\n" (k * n / 8)) in
  let packed = [ "tf_d.ladv"; "tf_d1.ladv"; "tf_d8.ladv" ] in
  with_files [ ("tf_q8.txt", String.concat "" queries) ] @@ fun () ->
  Fun.protect ~finally:(fun () -> List.iter remove_noerr packed) @@ fun () ->
  let pack out flags =
    let code, _, _ =
      run_cli ([ "pack"; "--graph"; "cycle"; "--n"; string_of_int n; "--out"; out ] @ flags)
    in
    check_int ("pack " ^ String.concat " " flags) 0 code
  in
  pack "tf_d.ladv" [];
  let code, stdout, _ =
    run_cli [ "serve"; "tf_d.ladv"; "--batch"; "tf_q8.txt"; "--domains"; "8"; "--metrics"; "-" ]
  in
  check_int "serve exits cleanly" 0 code;
  check "the batch fans out over the fitted count" true
    (json_counter_total stdout "serve.batch.shards"
    <= Localmodel.Pool.effective_domains ~requested:8 ());
  pack "tf_d1.ladv" [ "--shards"; "8"; "--domains"; "1" ];
  pack "tf_d8.ladv" [ "--shards"; "8"; "--domains"; "8" ];
  check "--shards 8: the same bytes at --domains 1 and 8" true
    (String.equal (file_bytes "tf_d1.ladv") (file_bytes "tf_d8.ladv"))

let () =
  Alcotest.run "faults"
    [
      ( "io",
        [
          Alcotest.test_case "write/read round-trip" `Quick
            test_write_read_roundtrip;
          Alcotest.test_case "read-to-EOF on a pipe" `Quick
            test_read_to_eof_on_pipe;
          Alcotest.test_case "crash at every byte boundary" `Slow
            test_crash_every_byte;
          Alcotest.test_case "write errors unlink the temp file" `Quick
            test_write_error_unlinks;
          Alcotest.test_case "transient faults retry with backoff" `Quick
            test_transient_retry;
        ] );
      ( "salvage",
        [
          Alcotest.test_case "degraded metrics" `Quick test_degraded_metrics;
          Alcotest.test_case "read-fault differential fuzz" `Slow
            test_read_fault_fuzz;
        ] );
      ( "cli",
        [
          Alcotest.test_case "pack counts bytes once" `Quick
            test_pack_counts_bytes_once;
          Alcotest.test_case "bad metadata is a corrupt snapshot" `Quick
            test_bad_metadata_is_corrupt;
          Alcotest.test_case "bad params lose the shard, not the server" `Quick
            test_bad_params_lose_the_shard;
          Alcotest.test_case "a damaged v1 file is refused, with or without --salvage"
            `Quick test_damaged_v1_is_refused;
          Alcotest.test_case "numeric flags are usage errors" `Quick
            test_numeric_flags_rejected;
          Alcotest.test_case "sampled radius is announced" `Quick
            test_sampled_radius_announced;
          Alcotest.test_case "pack reports the shards it wrote" `Quick
            test_pack_reports_written_shards;
          Alcotest.test_case "lying counts are corrupt, not fatal" `Quick
            test_lying_counts_are_corrupt;
          Alcotest.test_case "a short file is corrupt, not fatal" `Quick
            test_short_file_is_corrupt;
          Alcotest.test_case "pack --input errors are input errors" `Quick
            test_pack_input_errors;
          Alcotest.test_case "a lying class table is corrupt, not fatal" `Quick
            test_hostile_table_is_corrupt;
          Alcotest.test_case "--domains is fitted once" `Quick test_domains_fitted_once;
        ] );
    ]
