(* The server under test: the shipped `advice_store serve --listen`
   binary, run as a child process with the flags every workload shares
   (--memo --domains 1); only --resident-mb differs. *)

type t = { pid : int; port : int; out : in_channel }

let argv ~exe ~snapshot ~resident_mb =
  Array.of_list
    ([ exe; "serve"; snapshot; "--listen"; "--port"; "0"; "--memo"; "--domains"; "1" ]
    @ if resident_mb > 0 then [ "--resident-mb"; string_of_int resident_mb ] else [])

let reap pid =
  (* SIGTERM drains the server; a server that does not exit within ten
     seconds is killed, so no run can leave a process behind. *)
  let rec wait k =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when k > 0 ->
        Unix.sleepf 0.01;
        wait (k - 1)
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait 1000

(* "listening on 127.0.0.1:PORT (n=... radius=... protocol v1)" *)
let port_of_line line =
  let prefix = "listening on " in
  if not (String.starts_with ~prefix line) then None
  else
    let addr = List.hd (String.split_on_char ' ' line |> List.tl |> List.tl) in
    match String.rindex_opt addr ':' with
    | None -> None
    | Some i -> int_of_string_opt (String.sub addr (i + 1) (String.length addr - i - 1))

let start ~exe ~snapshot ~resident_mb =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (argv ~exe ~snapshot ~resident_mb) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let rec await () =
    match input_line out with
    | line -> ( match port_of_line line with Some port -> port | None -> await ())
    | exception End_of_file ->
        reap pid;
        close_in out;
        failwith "the server exited before it was listening"
  in
  let port = await () in
  { pid; port; out }

let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap t.pid;
  close_in_noerr t.out

(* Peak resident set of the live server (VmHWM), in KiB. *)
let peak_rss_kb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" Fun.id
    | _ -> scan ()
    | exception End_of_file -> failwith "no VmHWM line in /proc/<pid>/status"
  in
  scan ()
