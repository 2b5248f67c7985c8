(* Daemon subprocesses and what /proc says about them. Every daemon
   spawned here is killed and reaped before the benchmark exits, also
   when it fails. *)

type daemon = { pid : int; port : int; out : Unix.file_descr; args : string list }

let sosae = ref "_build/default/bin/sosae.exe"

let live : daemon list ref = ref []

let reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ignore (Unix.waitpid [] pid)
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()

let forget d =
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try Unix.close d.out with Unix.Unix_error _ -> ())

let kill d =
  (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap d.pid;
  forget d

(* SIGTERM drains and checkpoints; give it ten seconds before SIGKILL. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ -> kill d
    | _ -> forget d
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> forget d
  in
  wait ()

let () =
  at_exit (fun () -> List.iter kill !live);
  (* a benchmark interrupted by its runner still reaps its daemons *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130))) [ Sys.sigterm; Sys.sigint ]

(* The first stdout line is "sosae serve: listening on HOST:PORT..." *)
let read_port fd ~log =
  let buf = Buffer.create 128 and chunk = Bytes.create 256 in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> Buffer.sub buf 0 i
    | None ->
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then failwith ("daemon did not report its port; see " ^ log);
        (match Unix.select [ fd ] [] [] left with
        | [], _, _ -> ()
        | _ ->
            let n = Unix.read fd chunk 0 (Bytes.length chunk) in
            if n = 0 then failwith ("daemon exited at start; see " ^ log);
            Buffer.add_subbytes buf chunk 0 n);
        go ()
  in
  let line = go () in
  let colon = String.rindex line ':' in
  let digits = String.sub line (colon + 1) (String.length line - colon - 1) in
  let n = ref 0 and i = ref 0 in
  while !i < String.length digits && digits.[!i] >= '0' && digits.[!i] <= '9' do
    n := (!n * 10) + Char.code digits.[!i] - 48;
    incr i
  done;
  !n

(* [sosae serve --port 0 ARGS], stderr appended to [log]. *)
let spawn ~log args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let argv = Array.of_list (!sosae :: "serve" :: "--port" :: "0" :: args) in
  let pid = Unix.create_process !sosae argv Unix.stdin out_w err in
  Unix.close out_w;
  Unix.close err;
  let d = { pid; port = 0; out = out_r; args } in
  live := d :: !live;
  match read_port out_r ~log with
  | port ->
      let d = { d with port } in
      live := d :: List.filter (fun x -> x.pid <> pid) !live;
      d
  | exception e ->
      kill d;
      raise e

(* ------------------------------------------------------------------ *)
(* /proc                                                              *)
(* ------------------------------------------------------------------ *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime in seconds; /proc counts in USER_HZ = 100 ticks. *)
let cpu_seconds d =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" d.pid) in
  let after = String.sub stat (String.rindex stat ')' + 2) (String.length stat - String.rindex stat ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' after) in
  (* fields.(0) is field 3 (state); utime and stime are fields 14 and 15 *)
  float_of_string (fields.(11)) /. 100.0 +. (float_of_string fields.(12) /. 100.0)

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb d =
  let status = read_file (Printf.sprintf "/proc/%d/status" d.pid) in
  let line =
    List.find (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:") (String.split_on_char '\n' status)
  in
  let kb = String.trim (String.sub line 6 (String.length line - 6)) in
  float_of_string (List.hd (String.split_on_char ' ' kb)) /. 1024.0

(* ------------------------------------------------------------------ *)
(* Files                                                              *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec du path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left (fun n f -> n + du (Filename.concat path f)) 0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> 0
