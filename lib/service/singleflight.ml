(* A write-once cell: the leader's job fills it, every waiter (the
   leader's own thread included) blocks on it. *)
type 'a ivar = { m : Mutex.t; c : Condition.t; mutable v : 'a option }

let ivar () = { m = Mutex.create (); c = Condition.create (); v = None }

let fill iv x =
  Mutex.protect iv.m (fun () ->
      iv.v <- Some x;
      Condition.broadcast iv.c)

let wait iv =
  Mutex.protect iv.m (fun () ->
      while Option.is_none iv.v do
        Condition.wait iv.c iv.m
      done;
      Option.get iv.v)

type 'v cache = {
  lock : Mutex.t;
  cap : int;
  values : (string, 'v) Hashtbl.t;
  order : string Queue.t;  (* insertion order, for FIFO eviction *)
}

let cache ~lock cap =
  if cap < 0 then invalid_arg "Singleflight.cache: capacity must be non-negative";
  { lock; cap; values = Hashtbl.create 16; order = Queue.create () }

(* Caller holds [c.lock]. *)
let remember c key v =
  if c.cap > 0 then begin
    Hashtbl.replace c.values key v;
    Queue.push key c.order;
    while Hashtbl.length c.values > c.cap && not (Queue.is_empty c.order) do
      Hashtbl.remove c.values (Queue.pop c.order)
    done
  end

type 'v t = { cache : 'v cache; inflight : (string, ('v, string) result ivar) Hashtbl.t }

let create cache = { cache; inflight = Hashtbl.create 16 }

type 'v answer = Warm of 'v | Joined of ('v, string) result | Led of ('v, string) result | Shed

let shed_error = "request shed by admission control"

let run f key ?(on_join = ignore) ?(submit = fun job -> job (); true) compute =
  let claim =
    Mutex.protect f.cache.lock (fun () ->
        match Hashtbl.find_opt f.cache.values key with
        | Some v -> `Warm v
        | None -> (
          match Hashtbl.find_opt f.inflight key with
          | Some iv ->
            on_join ();
            `Join iv
          | None ->
            let iv = ivar () in
            Hashtbl.add f.inflight key iv;
            `Lead iv))
  in
  match claim with
  | `Warm v -> Warm v
  | `Join iv -> Joined (wait iv)
  | `Lead iv ->
    let job () =
      let outcome = try compute () with e -> Error (Printexc.to_string e) in
      Mutex.protect f.cache.lock (fun () ->
          Hashtbl.remove f.inflight key;
          match outcome with Ok v -> remember f.cache key v | Error _ -> ());
      fill iv outcome
    in
    if submit job then Led (wait iv)
    else begin
      (* Joiners found the entry only while it existed; remove it, then
         fill the cell anyway so one that slipped in between the claim
         and the refusal still unblocks. *)
      Mutex.protect f.cache.lock (fun () -> Hashtbl.remove f.inflight key);
      fill iv (Error shed_error);
      Shed
    end
