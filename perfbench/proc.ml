(* Process-level measurements and child-process control, on Linux's
   /proc and the monotonic clock. *)

let now = Robust.Budget.now

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set (VmHWM) of [pid] ("self" for this process), MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* Restarts this process's VmHWM from its current RSS, so each pass
   reports its own peak; a kernel without the interface keeps the
   whole-run peak. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* user+sys CPU seconds of a whole process (every thread and domain). *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let clock_ticks_per_s = 100.0

(* (steal, total) clock ticks over all CPUs since boot: the time the
   hypervisor ran something else while this machine's CPUs wanted to
   run, and all CPU time. *)
let cpu_ticks () =
  let line = List.hd (String.split_on_char '\n' (read_file "/proc/stat")) in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | "cpu" :: fields ->
    let v = Array.of_list (List.map float_of_string fields) in
    let total = Array.fold_left ( +. ) 0.0 (Array.sub v 0 (min 8 (Array.length v))) in
    ((if Array.length v > 7 then v.(7) else 0.0), total)
  | _ -> (0.0, 0.0)

(* Share of all CPU time stolen by the hypervisor between two readings. *)
let steal_share (s0, t0) (s1, t1) = if t1 > t0 then (s1 -. s0) /. (t1 -. t0) else 0.0

let cpu_s_of_pid pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* Fields after the parenthesised command name: state is field 3,
     utime and stime are fields 14 and 15. *)
  let close = String.rindex stat ')' in
  let rest = String.sub stat (close + 2) (String.length stat - close - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. clock_ticks_per_s

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* Waits for [pid] to exit, sending SIGKILL after [grace] seconds. *)
let reap ?(grace = 20.0) pid =
  let deadline = now () +. grace in
  let rec loop killed =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if (not killed) && now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        loop true
      end
      else begin
        Unix.sleepf 0.005;
        loop killed
      end
    | _, status -> status
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop killed
  in
  loop false

(* Spawns [argv] and returns the seconds until it prints its first line,
   then waits for it; fails unless the line is [ready] and it exits 0. *)
let time_until_ready argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid = Unix.create_process argv.(0) argv Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  let elapsed = now () -. t0 in
  close_in ic;
  match reap pid with
  | Unix.WEXITED 0 when line = "ready" -> elapsed
  | _ -> failwith (Printf.sprintf "set-up probe %s failed" argv.(0))

(* --- the analysis daemon --------------------------------------------- *)

type daemon = { pid : int; socket : string; store_dir : string }

let live = ref []

let stop_daemon d =
  if List.mem d.pid !live then begin
    live := List.filter (( <> ) d.pid) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (reap d.pid)
  end

(* Kills and reaps every daemon still running. *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (reap ~grace:5.0 pid))
    !live;
  live := []

let () = at_exit kill_all

(* Starts [tool serve] with an empty store under [dir] and returns it
   with the seconds from spawn until its first ping is answered. *)
let spawn_daemon ~tool ~dir =
  mkdir_p dir;
  let socket = Filename.concat dir "d.sock" and store_dir = Filename.concat dir "store" in
  let log = Unix.openfile (Filename.concat dir "serve.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process tool
      [| tool; "serve"; "--socket"; socket; "--domains"; "2"; "--cache-dir"; store_dir |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  let d = { pid; socket; store_dir } in
  live := pid :: !live;
  let rec wait_ready () =
    match Service.Client.request ~socket Service.Protocol.Ping with
    | Ok Service.Protocol.Pong -> now () -. t0
    | _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith "daemon exited before answering a ping");
      if now () -. t0 > 60.0 then begin
        stop_daemon d;
        failwith "daemon did not answer a ping within 60 s"
      end;
      Unix.sleepf 0.001;
      wait_ready ()
  in
  let setup = wait_ready () in
  (d, setup)
