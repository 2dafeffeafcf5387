(* Crash-consistent writes (temp file -> flush -> fsync -> atomic
   rename), read-to-EOF reads, and a deterministic fault-injection
   harness.  All snapshot bytes go through this module — the io-hygiene
   lint bans bare [open_out*] everywhere else in lib/. *)

type error_kind = Eio | Enospc | Transient

exception
  Fault of { op : string; path : string; kind : error_kind; at_byte : int }

exception Crashed of { path : string; persisted : int }

let m_files_written = Obs.Metrics.counter "io.files_written"
let m_bytes_written = Obs.Metrics.counter "io.bytes_written"
let m_files_read = Obs.Metrics.counter "io.files_read"
let m_bytes_read = Obs.Metrics.counter "io.bytes_read"
let m_fsyncs = Obs.Metrics.counter "io.fsyncs"
let m_renames = Obs.Metrics.counter "io.renames"
let m_retries = Obs.Metrics.counter "io.retries"
let m_fault_write = Obs.Metrics.counter "fault.injected.write"
let m_fault_read = Obs.Metrics.counter "fault.injected.read"
let m_fault_crash = Obs.Metrics.counter "fault.injected.crash"

let m_retry_hist =
  Obs.Metrics.histogram "io.retry.attempts" ~buckets:[| 0; 1; 2; 4; 8 |]

module Faults = struct
  type write_fault =
    | Write_error of { at_byte : int; kind : error_kind; times : int }
    | Crash_at of int

  type read_fault = Truncate_at of int | Flip_byte of { at_byte : int; mask : int }
  type plan = { write : write_fault option; read : read_fault option }

  let none = { write = None; read = None }

  (* Armed state: the plan plus the remaining budget of its write fault
     (Write_error fires [times] times, then the write path heals). *)
  type state = { plan : plan; mutable write_budget : int }

  let armed : state ref = ref { plan = none; write_budget = 0 }
  let is_armed = ref false

  let arm plan =
    let budget =
      match plan.write with
      | Some (Write_error { times; _ }) -> Int.max 0 times
      | Some (Crash_at _) | None -> 0
    in
    armed := { plan; write_budget = budget };
    is_armed := true

  let disarm () =
    armed := { plan = none; write_budget = 0 };
    is_armed := false

  let enabled () = !is_armed

  let random_plan ~seed ~len =
    let rng = Netgraph.Prng.create seed in
    let pos () = if len <= 0 then 0 else Netgraph.Prng.int rng (len + 1) in
    let write =
      match Netgraph.Prng.int rng 4 with
      | 0 -> None
      | 1 -> Some (Crash_at (pos ()))
      | _ ->
          let kind =
            match Netgraph.Prng.int rng 3 with
            | 0 -> Eio
            | 1 -> Enospc
            | _ -> Transient
          in
          Some
            (Write_error
               { at_byte = pos (); kind; times = 1 + Netgraph.Prng.int rng 3 })
    in
    let read =
      match Netgraph.Prng.int rng 3 with
      | 0 -> None
      | 1 -> Some (Truncate_at (pos ()))
      | _ ->
          Some
            (Flip_byte
               { at_byte = pos (); mask = 1 lsl Netgraph.Prng.int rng 8 })
    in
    { write; read }
end

let temp_path path = path ^ ".tmp"
let unlink_noerr path = try Sys.remove path with Sys_error _ -> ()

(* Durability is best-effort: some filesystems (and the channels layered
   over pipes in tests) refuse fsync, and a refusal must not fail an
   otherwise healthy write. *)
let fsync_channel oc =
  match Unix.fsync (Unix.descr_of_out_channel oc) with
  | () -> Obs.Metrics.incr m_fsyncs
  | exception Unix.Unix_error _ -> ()
  | exception Sys_error _ -> ()

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (match Unix.fsync fd with
      | () -> Obs.Metrics.incr m_fsyncs
      | exception Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let close_reporting ~temp oc =
  match close_out oc with
  | () -> ()
  | exception Sys_error msg ->
      unlink_noerr temp;
      raise
        (Sys_error
           (Printf.sprintf "Store.Io.write_file: closing %s failed: %s" temp
              msg))

(* Stage [data] into [temp], honouring an armed write fault.  On normal
   return the temp file holds all of [data], flushed and fsynced. *)
let stage ~path ~temp data =
  let len = String.length data in
  let oc = open_out_bin temp in
  let fault =
    if Faults.enabled () then (!Faults.armed).Faults.plan.Faults.write else None
  in
  match fault with
  | Some (Faults.Crash_at k) ->
      let k = Int.min (Int.max k 0) len in
      output_substring oc data 0 k;
      flush oc;
      fsync_channel oc;
      close_out_noerr oc;
      Obs.Metrics.incr m_fault_crash;
      (* A real crash leaves the partial temp file on disk; so do we. *)
      raise (Crashed { path; persisted = k })
  | Some (Faults.Write_error { at_byte; kind; _ })
    when (!Faults.armed).Faults.write_budget > 0 ->
      let st = !Faults.armed in
      st.Faults.write_budget <- st.Faults.write_budget - 1;
      let k = Int.min (Int.max at_byte 0) len in
      output_substring oc data 0 k;
      close_out_noerr oc;
      unlink_noerr temp;
      Obs.Metrics.incr m_fault_write;
      raise (Fault { op = "write"; path; kind; at_byte = k })
  | Some (Faults.Write_error _) | None ->
      output_string oc data;
      flush oc;
      fsync_channel oc;
      close_reporting ~temp oc

let rename_reporting ~temp path =
  match Sys.rename temp path with
  | () -> Obs.Metrics.incr m_renames
  | exception Sys_error msg ->
      unlink_noerr temp;
      raise
        (Sys_error
           (Printf.sprintf "Store.Io.write_file: renaming %s over %s failed: %s"
              temp path msg))

let write_file ?(retries = 4) ?(backoff = fun (_ : int) -> ()) path data =
  let temp = temp_path path in
  let rec attempt tries =
    match stage ~path ~temp data with
    | () ->
        rename_reporting ~temp path;
        fsync_dir (Filename.dirname path);
        Obs.Metrics.incr m_files_written;
        Obs.Metrics.add m_bytes_written (String.length data);
        Obs.Metrics.observe m_retry_hist tries
    | exception Fault { kind = Transient; _ } when tries < retries ->
        Obs.Metrics.incr m_retries;
        backoff (1 lsl tries);
        attempt (tries + 1)
  in
  attempt 0

let read_to_eof ic =
  let chunk = 65536 in
  let buf = Bytes.create chunk in
  let out = Buffer.create chunk in
  let rec loop () =
    let k = input ic buf 0 chunk in
    if k > 0 then begin
      Buffer.add_subbytes out buf 0 k;
      loop ()
    end
  in
  loop ();
  Buffer.contents out

(* The armed read fault, in file coordinates, applied to the window [s]
   read at [pos] from a file of [size] bytes, so whole-file and windowed
   readers observe one consistent injured file: [Truncate_at k] cuts the
   file at absolute byte [k] (a window past the cut comes back empty),
   and [Flip_byte] damages the byte at [at_byte mod size] for whichever
   window covers it.  A whole-file read is the window at 0 spanning the
   file. *)
let apply_range_fault ~pos ~size s =
  match (!Faults.armed).Faults.plan.Faults.read with
  | None -> s
  | Some (Faults.Truncate_at k) ->
      Obs.Metrics.incr m_fault_read;
      let keep = Int.min (String.length s) (Int.max 0 (Int.max k 0 - pos)) in
      String.sub s 0 keep
  | Some (Faults.Flip_byte { at_byte; mask }) ->
      let mask = mask land 0xFF in
      if size <= 0 || mask = 0 then s
      else begin
        let a = Int.max at_byte 0 mod size in
        if a < pos || a >= pos + String.length s then s
        else begin
          Obs.Metrics.incr m_fault_read;
          let b = Bytes.of_string s in
          let i = a - pos in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
          Bytes.unsafe_to_string b
        end
      end

let read_file path =
  let ic = open_in_bin path in
  let s =
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read_to_eof ic)
  in
  Obs.Metrics.incr m_files_read;
  Obs.Metrics.add m_bytes_read (String.length s);
  if Faults.enabled () then apply_range_fault ~pos:0 ~size:(String.length s) s else s

(* Bounded range reads.  Shard loading fetches individual byte windows of
   a big snapshot file; the whole point is never materializing the file,
   so these paths must not fall back to [read_file]. *)

let m_range_reads = Obs.Metrics.counter "io.range_reads"
let m_range_bytes = Obs.Metrics.counter "io.range_bytes"

let file_size path =
  match Unix.stat path with
  | st -> st.Unix.st_size
  | exception Unix.Unix_error (err, _, _) ->
      raise
        (Sys_error
           (Printf.sprintf "Store.Io.file_size: %s: %s" path
              (Unix.error_message err)))

let with_fd path f =
  let fd =
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | fd -> fd
    | exception Unix.Unix_error (err, _, _) ->
        raise
          (Sys_error
             (Printf.sprintf "Store.Io.read_range: %s: %s" path
                (Unix.error_message err)))
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd)

(* A filled window is returned as the buffer itself: nothing writes it
   after the read, so the file is held once.  Only a short read copies,
   to the bytes it got. *)
let pread_window fd ~pos ~len =
  ignore (Unix.lseek fd pos Unix.SEEK_SET);
  let buf = Bytes.create len in
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let k = Unix.read fd buf !got (len - !got) in
    if k = 0 then eof := true else got := !got + k
  done;
  if !got = len then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 !got

let read_range path ~pos ~len =
  if pos < 0 || len < 0 then
    invalid_arg
      (Printf.sprintf "Store.Io.read_range: negative window %d+%d" pos len);
  let s, size =
    with_fd path (fun fd ->
        let size = (Unix.fstat fd).Unix.st_size in
        (* Short windows read short, like [read_to_eof]: a truncated file
           is a condition for the codec to diagnose, not a crash here. *)
        let len = Int.min len (Int.max 0 (size - pos)) in
        (pread_window fd ~pos ~len, size))
  in
  Obs.Metrics.incr m_range_reads;
  Obs.Metrics.add m_range_bytes (String.length s);
  if Faults.enabled () then apply_range_fault ~pos ~size s else s
