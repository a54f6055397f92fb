(* daemon-mix: a fresh [pwcet_tool serve --domains 2] with an empty
   store, driven in a closed loop by two client threads, each request
   on its own connection ([Service.Client.request]). Every reply is
   checked against the in-process reference for its key or catalogue
   entry. *)

open Perfbench_helpers
module P = Service.Protocol

let mix ~seconds =
  { Reqgen.keys = Inputs.n_keys;
    repeats = 350 * seconds;
    grids = Array.length Inputs.grid_catalogue;
    scheds = Array.length Inputs.sched_catalogue;
    pings = 6 * seconds }

let request_of = function
  | Reqgen.Analyze { key; _ } -> P.Analyze (Inputs.analyze_request (Inputs.key key))
  | Reqgen.Grid i -> P.Grid Inputs.grid_catalogue.(i)
  | Reqgen.Sched i -> P.Sched Inputs.sched_catalogue.(i)
  | Reqgen.Ping -> P.Ping

type refs = { keys : (string, string list) Hashtbl.t; grids : (string, string list) Hashtbl.t; scheds : (string, string list) Hashtbl.t }

let load_refs () =
  { keys = Inputs.load_ref "keys.txt";
    grids = Inputs.load_ref "grids.txt";
    scheds = Inputs.load_ref "scheds.txt" }

let reply_ok refs op reply =
  match (op, reply) with
  | Reqgen.Analyze { key; _ }, Ok (P.Result r) ->
    Hashtbl.find_opt refs.keys (Inputs.key_id (Inputs.key key))
    = Some [ string_of_int r.P.pwcet; string_of_int r.P.wcet_ff; r.P.rung ]
  | Reqgen.Grid i, Ok (P.Grid_reply g) ->
    Hashtbl.find_opt refs.grids (Printf.sprintf "grid%d" i)
    = Some [ string_of_int g.P.cells; string_of_int g.P.failed; g.P.grid_digest ]
  | Reqgen.Sched i, Ok (P.Sched_reply s) ->
    Hashtbl.find_opt refs.scheds (Printf.sprintf "sched%d" i)
    = Some [ string_of_int s.P.analyzed; s.P.digest ]
  | Reqgen.Ping, Ok P.Pong -> true
  | _ -> false

type sample = { op : Reqgen.op; start : float; stop : float; ok : bool; client : int }

type stream = {
  samples : sample array;
  wall : float;
  cpu : float;
  rss_mb : float;
  steal : float;  (* share of host CPU time stolen during the stream *)
  setup : float;
  stats : (P.stats_payload * P.stats_payload) option;  (* before, after *)
  disk : Store.Artifact.disk_stats option;
}

let stats socket =
  match Service.Client.request ~socket P.Stats with
  | Ok (P.Stats_reply s) -> s
  | _ -> failwith "daemon did not answer a stats request"

(* Runs [ops] against a fresh daemon under [dir]; [traced] adds the
   stats and store measurements around the stream. *)
let run ~tool ~dir ~refs ~traced ops =
  let d, setup = Proc.spawn_daemon ~tool ~dir in
  let n = Array.length ops in
  let samples = Array.make n None in
  let next = Atomic.make 0 in
  let before = if traced then Some (stats d.Proc.socket) else None in
  let cpu0 = Proc.cpu_s_of_pid d.Proc.pid and k0 = Proc.cpu_ticks () in
  let t0 = Proc.now () in
  let client c =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let op = ops.(i) in
        let start = Proc.now () in
        let reply = Service.Client.request ~socket:d.Proc.socket (request_of op) in
        let stop = Proc.now () in
        samples.(i) <- Some { op; start; stop; ok = reply_ok refs op reply; client = c };
        loop ()
      end
    in
    loop ()
  in
  let threads = List.init 2 (Thread.create client) in
  List.iter Thread.join threads;
  let wall = Proc.now () -. t0 in
  let cpu = Proc.cpu_s_of_pid d.Proc.pid -. cpu0 in
  let steal = Proc.steal_share k0 (Proc.cpu_ticks ()) in
  let stats = Option.map (fun b -> (b, stats d.Proc.socket)) before in
  let rss_mb = Proc.peak_rss_mb (string_of_int d.Proc.pid) in
  Proc.stop_daemon d;
  let disk =
    if traced then
      Some (Store.Artifact.disk_stats (Store.Artifact.open_store ~dir:d.Proc.store_dir ()))
    else None
  in
  { samples = Array.map Option.get samples; wall; cpu; rss_mb; steal; setup; stats; disk }

let judge tally s =
  Array.iter
    (fun x ->
      Report.judge tally
        [ (x.ok, Printf.sprintf "%s request: wrong, shed or failed reply" (Reqgen.class_name x.op)) ])
    s.samples

(* Client-side latency; a wrong, shed or failed request misses every
   limit. *)
let latency x = if x.ok then x.stop -. x.start else infinity

(* Request spans for the trace, one lane per client thread. *)
let record_spans (t : Traced.t) s =
  let t0 = Array.fold_left (fun acc x -> Float.min acc x.start) infinity s.samples in
  let t1 = Array.fold_left (fun acc x -> Float.max acc x.stop) neg_infinity s.samples in
  let root = Spans.add t.Traced.spans ~name:"stream" ~start:t0 ~stop:t1 () in
  Array.iter
    (fun x ->
      ignore
        (Spans.add t.Traced.spans ~parent:root ~tid:(x.client + 1)
           ~name:("service." ^ Reqgen.class_name x.op) ~start:x.start ~stop:x.stop ()))
    s.samples
