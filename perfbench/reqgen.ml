(* The daemon-mix request stream, a pure function of (seed, mix).

   Analyze keys are indices into the workload's key universe. Every key
   is requested once as a first-seen key (a computation and store
   writes), in a seeded order; a repeat picks uniformly among the keys
   already requested (a result-cache, dedup or store read). Bulk grid
   and sched ops index fixed catalogues, each entry once; pings give
   the framing floor. The seed places every op in the stream. *)

type op =
  | Analyze of { key : int; first : bool }
  | Grid of int
  | Sched of int
  | Ping

type mix = { keys : int; repeats : int; grids : int; scheds : int; pings : int }

let generate ~seed mix =
  if mix.keys < 1 && mix.repeats > 0 then invalid_arg "Reqgen.generate: repeats need keys";
  let st = Random.State.make [| 0x5eed; seed |] in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done
  in
  let order = Array.init mix.keys Fun.id in
  shuffle order;
  let slots =
    Array.concat
      [ Array.make mix.keys `First;
        Array.make mix.repeats `Repeat;
        Array.init mix.grids (fun i -> `Grid i);
        Array.init mix.scheds (fun i -> `Sched i);
        Array.make mix.pings `Ping ]
  in
  shuffle slots;
  (* A repeat needs an earlier key: the first first-seen slot leads. *)
  (match Array.find_index (fun s -> s = `First) slots with
  | Some i when i > 0 ->
    let x = slots.(0) in
    slots.(0) <- slots.(i);
    slots.(i) <- x
  | _ -> ());
  let seen = ref 0 in
  let ops = Array.make (Array.length slots) Ping in
  Array.iteri
    (fun i slot ->
      ops.(i) <-
        (match slot with
        | `First ->
          let key = order.(!seen) in
          incr seen;
          Analyze { key; first = true }
        | `Repeat -> Analyze { key = order.(Random.State.int st !seen); first = false }
        | `Grid g -> Grid g
        | `Sched s -> Sched s
        | `Ping -> Ping))
    slots;
  ops

let class_name = function
  | Analyze { first = true; _ } -> "analyze-first"
  | Analyze { first = false; _ } -> "analyze-repeat"
  | Grid _ -> "grid"
  | Sched _ -> "sched"
  | Ping -> "ping"

let classes = [ "analyze-first"; "analyze-repeat"; "grid"; "sched"; "ping" ]

(* (class, count, share of the stream) for every op class. *)
let shares ops =
  let n = Array.length ops in
  List.map
    (fun c ->
      let k = Array.fold_left (fun acc op -> if class_name op = c then acc + 1 else acc) 0 ops in
      (c, k, if n = 0 then 0.0 else float_of_int k /. float_of_int n))
    classes
