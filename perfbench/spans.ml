(* In-memory span recorder for the traced runs: spans are kept in
   memory while the workload runs and written out once at the end, as
   Chrome trace-event JSON (opens in Perfetto or chrome://tracing). *)

type span = {
  id : int;
  name : string;
  parent : int option;
  tid : int;  (** recording thread, for the trace viewer's lanes *)
  start : float;  (** monotonic seconds *)
  stop : float;
}

type t = { lock : Mutex.t; mutable spans : span list; mutable next : int }

let create () = { lock = Mutex.create (); spans = []; next = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let fresh_id t =
  locked t (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

let push t span = locked t (fun () -> t.spans <- span :: t.spans)

(* Runs [f] inside a span named [name]; [f] receives the span's id so
   it can parent spans of its own, from any thread. *)
let with_span t ?parent ?(tid = 0) name f =
  let id = fresh_id t in
  let start = Robust.Budget.now () in
  let finish () = push t { id; name; parent; tid; start; stop = Robust.Budget.now () } in
  match f id with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* A span measured elsewhere (e.g. a request timed by a client thread). *)
let add t ?parent ?(tid = 0) ~name ~start ~stop () =
  let id = fresh_id t in
  push t { id; name; parent; tid; start; stop };
  id

let spans t = List.sort (fun a b -> compare a.id b.id) (locked t (fun () -> t.spans))

let duration s = s.stop -. s.start

(* Self time: a span's duration minus the part of its interval that its
   children cover (overlapping children, e.g. from two threads, are
   counted once). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> match s.parent with Some p -> Hashtbl.add children p s | None -> ())
    spans;
  List.map
    (fun s ->
      let kids =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0.0, neg_infinity) kids
      in
      (s, duration s -. covered))
    spans

(* Self time summed per span name, in first-seen order. *)
let self_by_name spans =
  let order = ref [] in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt totals s.name with
      | Some v -> Hashtbl.replace totals s.name (v +. self)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace totals s.name self)
    (self_times spans);
  List.rev_map (fun name -> (name, Hashtbl.find totals name)) !order

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the earliest span, parent ids in [args]. *)
let to_chrome_json spans =
  let origin = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let event s =
    Printf.sprintf
      "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%s}}"
      (json_string s.name)
      ((s.start -. origin) *. 1e6)
      (duration s *. 1e6)
      s.tid s.id
      (match s.parent with Some p -> string_of_int p | None -> "null")
  in
  "{\"traceEvents\":[\n" ^ String.concat ",\n" (List.map event spans)
  ^ "\n],\"displayTimeUnit\":\"ms\"}\n"
