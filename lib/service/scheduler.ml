type config = {
  domains : int;
  queue_max : int;
  store : Store.Artifact.t option;
  task_cache_max : int;
  result_cache_max : int;
  chaos : Chaos.Injector.t option;
}

let default_config ?store ?chaos () =
  { domains = 2; queue_max = 64; store; task_cache_max = 32; result_cache_max = 256; chaos }

(* A write-once cell: the leader's computation fills it, every waiter
   (the leader's own connection thread included) blocks on it. *)
type 'a ivar = { m : Mutex.t; c : Condition.t; mutable v : 'a option }

let ivar () = { m = Mutex.create (); c = Condition.create (); v = None }

let fill iv x =
  Mutex.lock iv.m;
  iv.v <- Some x;
  Condition.broadcast iv.c;
  Mutex.unlock iv.m

let wait iv =
  Mutex.lock iv.m;
  while Option.is_none iv.v do
    Condition.wait iv.c iv.m
  done;
  let x = Option.get iv.v in
  Mutex.unlock iv.m;
  x

type outcome = (Pwcet.Estimator.estimate, string) result
type task_outcome = (Pwcet.Estimator.task, string) result

type sched_summary = { analyzed : int; passes : int; degraded : int; digest : string }
type sched_outcome = (sched_summary, string) result

type grid_summary = { cells : int; failed : int; grid_digest : string }
type grid_outcome = (grid_summary, string) result

type t = {
  pool : Parallel.Workers.t;
  store : Store.Artifact.t option;
  queue_max : int;
  task_cache_max : int;
  result_cache_max : int;
  started : float;  (* Budget.now scale *)
  lock : Mutex.t;  (* guards everything below *)
  inflight : (string, outcome ivar) Hashtbl.t;
  task_inflight : (string, task_outcome ivar) Hashtbl.t;
  bench_inflight : (string, outcome ivar) Hashtbl.t;
      (* per-benchmark estimates led inline by sched campaign jobs —
         kept apart from [inflight], whose leaders are pool jobs a
         worker-resident waiter could deadlock against *)
  sched_inflight : (string, sched_outcome ivar) Hashtbl.t;
  grid_inflight : (string, grid_outcome ivar) Hashtbl.t;
  tasks : (string, Pwcet.Estimator.task) Hashtbl.t;
  task_order : string Queue.t;  (* FIFO eviction for [tasks] *)
  results : (string, Pwcet.Estimator.estimate) Hashtbl.t;
  result_order : string Queue.t;  (* FIFO eviction for [results] *)
  sched_results : (string, sched_summary) Hashtbl.t;
  sched_order : string Queue.t;  (* FIFO eviction for [sched_results] *)
  grid_results : (string, grid_summary) Hashtbl.t;
  grid_order : string Queue.t;  (* FIFO eviction for [grid_results] *)
  mutable requests : int;
  mutable computations : int;
  mutable deduped : int;
  mutable overloaded : int;
  mutable errors : int;
  mutable slow_clients : int;
  mutable rejected_conns : int;
}

let create (config : config) =
  if config.task_cache_max < 1 then invalid_arg "Scheduler.create: task_cache_max must be at least 1";
  if config.result_cache_max < 0 then
    invalid_arg "Scheduler.create: result_cache_max must be non-negative";
  { pool =
      Parallel.Workers.create ?chaos:config.chaos ~domains:config.domains
        ~queue_max:config.queue_max ();
    store = config.store;
    queue_max = config.queue_max;
    task_cache_max = config.task_cache_max;
    result_cache_max = config.result_cache_max;
    started = Robust.Budget.now ();
    lock = Mutex.create ();
    inflight = Hashtbl.create 16;
    task_inflight = Hashtbl.create 16;
    bench_inflight = Hashtbl.create 16;
    sched_inflight = Hashtbl.create 16;
    grid_inflight = Hashtbl.create 16;
    tasks = Hashtbl.create 16;
    task_order = Queue.create ();
    results = Hashtbl.create 16;
    result_order = Queue.create ();
    sched_results = Hashtbl.create 16;
    sched_order = Queue.create ();
    grid_results = Hashtbl.create 16;
    grid_order = Queue.create ();
    requests = 0;
    computations = 0;
    deduped = 0;
    overloaded = 0;
    errors = 0;
    slow_clients = 0;
    rejected_conns = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Caller holds [t.lock]. *)
let cache_result_locked t key est =
  if t.result_cache_max > 0 then begin
    Hashtbl.replace t.results key est;
    Queue.push key t.result_order;
    while Hashtbl.length t.results > t.result_cache_max && not (Queue.is_empty t.result_order) do
      Hashtbl.remove t.results (Queue.pop t.result_order)
    done
  end

let task_key ~identity ~engine ~exact =
  Store.Artifact.key
    (identity
    @ [ ("service", "task");
        ("engine", Pwcet.Estimator.engine_tag engine);
        ("exact", string_of_bool exact) ])

(* The dedup key: everything that shapes the computed estimate. The
   exceedance target stays out — waiters read their own quantile from
   the shared penalty distribution — and so do jobs/delay, which never
   change results. *)
let request_key ~identity (a : Protocol.analyze) =
  Store.Artifact.key
    (identity
    @ [ ("service", "analyze");
        ("mechanism", Pwcet.Mechanism.short_name a.mechanism);
        ("engine", Pwcet.Estimator.engine_tag a.engine);
        ("exact", string_of_bool a.exact);
        ("impl", Pwcet.Estimator.impl_tag a.impl);
        ("pfail", Store.Artifact.float_key a.pfail) ])

exception Compute_error of string

(* Prepared-task cache: bounded, FIFO-evicted, with its own in-flight
   dedup so N concurrent cold requests against one benchmark run the
   expensive preparation (CFG recovery, cache analysis, fault-free
   WCET) once. Only called from worker domains. *)
let prepared_task t ~program ~config ~identity (a : Protocol.analyze) =
  let tk = task_key ~identity ~engine:a.engine ~exact:a.exact in
  let claim =
    locked t (fun () ->
        match Hashtbl.find_opt t.tasks tk with
        | Some task -> `Cached task
        | None -> (
          match Hashtbl.find_opt t.task_inflight tk with
          | Some tiv -> `Join tiv
          | None ->
            let tiv = ivar () in
            Hashtbl.add t.task_inflight tk tiv;
            `Lead tiv))
  in
  match claim with
  | `Cached task -> task
  | `Join tiv -> (
    match wait tiv with Ok task -> task | Error msg -> raise (Compute_error msg))
  | `Lead tiv -> (
    let outcome =
      try
        Ok
          (Pwcet.Estimator.prepare ~program ~config ~engine:a.engine ~exact:a.exact
             ?store:t.store ())
      with e -> Error (Printexc.to_string e)
    in
    locked t (fun () ->
        Hashtbl.remove t.task_inflight tk;
        match outcome with
        | Error _ -> ()
        | Ok task ->
          Hashtbl.replace t.tasks tk task;
          Queue.push tk t.task_order;
          while Hashtbl.length t.tasks > t.task_cache_max && not (Queue.is_empty t.task_order) do
            Hashtbl.remove t.tasks (Queue.pop t.task_order)
          done);
    fill tiv outcome;
    match outcome with Ok task -> task | Error msg -> raise (Compute_error msg))

(* The computation a worker domain runs. [jobs:1]: request-level
   parallelism comes from the pool itself; nested per-set domains
   would oversubscribe it. *)
let compute t ~program ~config ~identity ?budget (a : Protocol.analyze) () =
  if a.delay_ms > 0 then Unix.sleepf (float_of_int a.delay_ms /. 1000.0);
  match budget with
  | Some b ->
    (* Budgeted bypass: fresh prepare + estimate, no task cache, no
       store (a degraded, wall-clock-dependent result must never be
       memoised), deadline riding the whole ladder. *)
    let task =
      Pwcet.Estimator.prepare ~program ~config ~engine:a.engine ~exact:a.exact ~budget:b ()
    in
    Pwcet.Estimator.estimate task ~pfail:a.pfail ~mechanism:a.mechanism ~engine:a.engine
      ~exact:a.exact ~jobs:1 ~impl:a.impl ~budget:b ()
  | None ->
    let task = prepared_task t ~program ~config ~identity a in
    Pwcet.Estimator.estimate task ~pfail:a.pfail ~mechanism:a.mechanism ~engine:a.engine
      ~exact:a.exact ~jobs:1 ~impl:a.impl ?store:t.store ()

let respond t (a : Protocol.analyze) ~computed (outcome : outcome) : Protocol.response =
  match outcome with
  | Ok est ->
    Protocol.Result
      { pwcet = Pwcet.Estimator.pwcet est ~target:a.target;
        wcet_ff = Pwcet.Estimator.fault_free_wcet est.Pwcet.Estimator.task;
        pbf = est.Pwcet.Estimator.pbf;
        rung = Robust.Rung.to_string (Pwcet.Estimator.worst_rung est);
        computed }
  | Error msg ->
    locked t (fun () -> t.errors <- t.errors + 1);
    Protocol.Error_reply msg

let shed t =
  let queued = Parallel.Workers.queued t.pool in
  locked t (fun () -> t.overloaded <- t.overloaded + 1);
  Protocol.Overloaded { queued; queue_max = t.queue_max }

(* Per-request bookkeeping shared by the three entry points. The
   [ensure_alive] call is the watchdog's second line: every admission
   tops the pool back up to its target headcount, so even if a dying
   worker's in-line respawn failed, the very next request repairs the
   deficit before it needs a worker. *)
let admit t =
  ignore (Parallel.Workers.ensure_alive t.pool);
  locked t (fun () -> t.requests <- t.requests + 1)

(* Connection-level incidents reported by the server front end. *)
let note_slow_client t = locked t (fun () -> t.slow_clients <- t.slow_clients + 1)
let note_rejected_conn t = locked t (fun () -> t.rejected_conns <- t.rejected_conns + 1)

let run_job t ?budget ~program ~config ~identity (a : Protocol.analyze) iv ~on_done =
  let job () =
    let outcome =
      try Ok (compute t ~program ~config ~identity ?budget a ())
      with
      | Compute_error msg -> Error msg
      | e -> Error (Printexc.to_string e)
    in
    on_done outcome;
    fill iv outcome
  in
  Parallel.Workers.submit t.pool job

let analyze t (a : Protocol.analyze) : Protocol.response =
  admit t;
  match Benchmarks.Registry.find a.bench with
  | None ->
    locked t (fun () -> t.errors <- t.errors + 1);
    Protocol.Error_reply
      (Printf.sprintf "unknown benchmark %S; the registry lists the valid names" a.bench)
  | Some entry -> (
    match
      ( (try Ok (Minic.Compile.compile entry.Benchmarks.Registry.program).Minic.Compile.program
         with Minic.Typecheck.Error msg | Minic.Compile.Error msg -> Error msg),
        try Ok (Cache.Config.make ~sets:a.sets ~ways:a.ways ~line_bytes:a.line ())
        with Invalid_argument msg -> Error msg )
    with
    | Error msg, _ | _, Error msg ->
      locked t (fun () -> t.errors <- t.errors + 1);
      Protocol.Error_reply msg
    | Ok program, Ok config -> (
      let identity = Pwcet.Estimator.identity_of ~program ~config in
      match a.timeout_ms with
      | Some ms ->
        (* Budgeted: private computation, admission control only. *)
        let budget = Robust.Budget.make ~timeout:(float_of_int ms /. 1000.0) () in
        let iv = ivar () in
        let on_done outcome =
          match outcome with
          | Ok _ -> locked t (fun () -> t.computations <- t.computations + 1)
          | Error _ -> ()
        in
        if run_job t ~budget ~program ~config ~identity a iv ~on_done then
          respond t a ~computed:true (wait iv)
        else shed t
      | None -> (
        let key = request_key ~identity a in
        let claim =
          locked t (fun () ->
              match Hashtbl.find_opt t.results key with
              | Some est -> `Warm est
              | None -> (
                match Hashtbl.find_opt t.inflight key with
                | Some iv ->
                  t.deduped <- t.deduped + 1;
                  `Join iv
                | None ->
                  let iv = ivar () in
                  Hashtbl.add t.inflight key iv;
                  `Lead iv))
        in
        match claim with
        | `Warm est -> respond t a ~computed:false (Ok est)
        | `Join iv -> respond t a ~computed:false (wait iv)
        | `Lead iv ->
          let on_done outcome =
            locked t (fun () ->
                Hashtbl.remove t.inflight key;
                match outcome with
                | Ok est ->
                  t.computations <- t.computations + 1;
                  cache_result_locked t key est
                | Error _ -> ())
          in
          if run_job t ~program ~config ~identity a iv ~on_done then
            respond t a ~computed:true (wait iv)
          else begin
            (* Nobody else can be waiting: joiners found the entry only
               while it existed, and its removal under the lock precedes
               any chance of a response — fill the ivar anyway so a racy
               joiner that slipped in between claim and shed still
               unblocks. *)
            locked t (fun () -> Hashtbl.remove t.inflight key);
            fill iv (Error "request shed by admission control");
            shed t
          end)))

(* --- bulk schedulability campaigns ----------------------------------------- *)

let spec_of_sched (s : Protocol.sched) =
  Sched.Campaign.make ~count:s.count ~n_tasks:s.n_tasks ~utilisation:s.utilisation
    ~seed:s.seed ~policy:s.policy ~reexec_budget:s.reexec ~k_max:s.k_max ~targets:s.targets
    ~pfail:s.s_pfail ~mechanism:s.s_mechanism ~sets:s.s_sets ~ways:s.s_ways ~line:s.s_line
    ~fault_rate:s.fault_rate ~clock_mhz:s.clock_mhz ~rep_target:s.rep_target
    ~max_points:s.max_points
    ?benchmarks:(match s.benchmarks with [] -> None | bs -> Some bs)
    ()

(* One benchmark's estimate for a sched campaign, computed INLINE on
   the calling worker domain. Submitting it to the pool — or joining
   an [inflight] entry whose leader is a pool job that may be queued
   behind this very campaign — could deadlock a fully sched-occupied
   pool, so the campaign path has its own in-flight table whose
   leaders never need a pool slot. It still reads and feeds the shared
   [results] cache (same [request_key]), so sched campaigns and
   analyze traffic warm each other. *)
let bench_estimate t ~config (spec : Sched.Campaign.spec) bench =
  let entry =
    match Benchmarks.Registry.find bench with
    | Some entry -> entry
    | None ->
      raise
        (Compute_error
           (Printf.sprintf "unknown benchmark %S; the registry lists the valid names" bench))
  in
  let program = (Minic.Compile.compile entry.Benchmarks.Registry.program).Minic.Compile.program in
  let identity = Pwcet.Estimator.identity_of ~program ~config in
  let a =
    { (Protocol.default_analyze ~bench) with
      Protocol.pfail = spec.pfail;
      mechanism = spec.mechanism;
      sets = spec.sets;
      ways = spec.ways;
      line = spec.line }
  in
  let key = request_key ~identity a in
  let claim =
    locked t (fun () ->
        match Hashtbl.find_opt t.results key with
        | Some est -> `Warm est
        | None -> (
          match Hashtbl.find_opt t.bench_inflight key with
          | Some iv ->
            t.deduped <- t.deduped + 1;
            `Join iv
          | None ->
            let iv = ivar () in
            Hashtbl.add t.bench_inflight key iv;
            `Lead iv))
  in
  match claim with
  | `Warm est -> est
  | `Join iv -> (
    match wait iv with Ok est -> est | Error msg -> raise (Compute_error msg))
  | `Lead iv -> (
    let outcome =
      try
        let task = prepared_task t ~program ~config ~identity a in
        Ok
          (Pwcet.Estimator.estimate task ~pfail:a.pfail ~mechanism:a.mechanism
             ~engine:a.engine ~exact:a.exact ~jobs:1 ~impl:a.impl ?store:t.store ())
      with
      | Compute_error msg -> Error msg
      | e -> Error (Printexc.to_string e)
    in
    locked t (fun () ->
        Hashtbl.remove t.bench_inflight key;
        match outcome with
        | Ok est ->
          t.computations <- t.computations + 1;
          cache_result_locked t key est
        | Error _ -> ());
    fill iv outcome;
    match outcome with Ok est -> est | Error msg -> raise (Compute_error msg))

(* The campaign computation a worker domain runs. [jobs:1] as in
   [compute]: request-level parallelism comes from the pool itself. *)
let compute_sched t (spec : Sched.Campaign.spec) () =
  let config = Cache.Config.make ~sets:spec.sets ~ways:spec.ways ~line_bytes:spec.line () in
  let laws =
    List.map
      (fun bench ->
        Sched.Campaign.law_of_estimate spec ~bench (bench_estimate t ~config spec bench))
      (Sched.Campaign.distinct_benchmarks spec)
  in
  let c = Sched.Campaign.run_with_laws ~jobs:1 spec laws in
  let passes =
    List.length
      (List.filter
         (fun (r : Sched.Campaign.set_result) -> List.for_all snd r.passes)
         c.Sched.Campaign.results)
  in
  let degraded =
    List.length
      (List.filter (fun (r : Sched.Campaign.set_result) -> r.degraded) c.Sched.Campaign.results)
  in
  { analyzed = spec.count; passes; degraded; digest = c.Sched.Campaign.digest }

let sched t (s : Protocol.sched) : Protocol.response =
  admit t;
  let respond_sched ~computed (outcome : sched_outcome) : Protocol.response =
    match outcome with
    | Ok sum ->
      Protocol.Sched_reply
        { Protocol.analyzed = sum.analyzed;
          passes = sum.passes;
          degraded = sum.degraded;
          digest = sum.digest;
          sched_computed = computed }
    | Error msg ->
      locked t (fun () -> t.errors <- t.errors + 1);
      Protocol.Error_reply msg
  in
  match spec_of_sched s with
  | Error msg ->
    locked t (fun () -> t.errors <- t.errors + 1);
    Protocol.Error_reply msg
  | Ok spec -> (
    let key = Store.Artifact.key (("service", "sched") :: Sched.Campaign.identity spec) in
    let claim =
      locked t (fun () ->
          match Hashtbl.find_opt t.sched_results key with
          | Some sum -> `Warm sum
          | None -> (
            match Hashtbl.find_opt t.sched_inflight key with
            | Some iv ->
              t.deduped <- t.deduped + 1;
              `Join iv
            | None ->
              let iv = ivar () in
              Hashtbl.add t.sched_inflight key iv;
              `Lead iv))
    in
    match claim with
    | `Warm sum -> respond_sched ~computed:false (Ok sum)
    | `Join iv -> respond_sched ~computed:false (wait iv)
    | `Lead iv ->
      let job () =
        let outcome =
          try Ok (compute_sched t spec ())
          with
          | Compute_error msg -> Error msg
          | e -> Error (Printexc.to_string e)
        in
        locked t (fun () ->
            Hashtbl.remove t.sched_inflight key;
            match outcome with
            | Ok sum ->
              if t.result_cache_max > 0 then begin
                Hashtbl.replace t.sched_results key sum;
                Queue.push key t.sched_order;
                while
                  Hashtbl.length t.sched_results > t.result_cache_max
                  && not (Queue.is_empty t.sched_order)
                do
                  Hashtbl.remove t.sched_results (Queue.pop t.sched_order)
                done
              end
            | Error _ -> ());
        fill iv outcome
      in
      if Parallel.Workers.submit t.pool job then respond_sched ~computed:true (wait iv)
      else begin
        (* Same racy-joiner courtesy as the analyze path. *)
        locked t (fun () -> Hashtbl.remove t.sched_inflight key);
        fill iv (Error "request shed by admission control");
        shed t
      end)

(* --- bulk comparison grids -------------------------------------------------- *)

let spec_of_grid (g : Protocol.grid) =
  try
    let benchmarks =
      List.map
        (fun bench ->
          match Benchmarks.Registry.find bench with
          | None ->
            raise
              (Compute_error
                 (Printf.sprintf "unknown benchmark %S; the registry lists the valid names"
                    bench))
          | Some entry -> (
            try
              ( bench,
                (Minic.Compile.compile entry.Benchmarks.Registry.program)
                  .Minic.Compile.program )
            with Minic.Typecheck.Error msg | Minic.Compile.Error msg ->
              raise (Compute_error msg)))
        g.g_benchmarks
    in
    let configs =
      List.map
        (fun (sets, ways, line) ->
          try Cache.Config.make ~sets ~ways ~line_bytes:line ()
          with Invalid_argument msg -> raise (Compute_error msg))
        g.g_geometries
    in
    Ok
      { Grid.benchmarks; configs; mechanisms = g.g_mechanisms; pfail_grid = g.g_pfails;
        targets = g.g_targets; engine = g.g_engine; exact = g.g_exact; impl = g.g_impl }
  with Compute_error msg -> Error msg

(* The grid computation a worker domain runs. [jobs:1] as everywhere
   on the pool: request-level parallelism comes from the pool itself,
   and the one-pass sharing — not the work-stealing DAG — is what the
   daemon buys here. The store read-through means a repeat grid over a
   populated store replays its FMMs instead of recomputing. *)
let compute_grid t (spec : Grid.spec) () =
  let results = Grid.run ~jobs:1 ?store:t.store spec in
  let failed =
    List.length (List.filter (fun (_, r) -> Result.is_error r) results)
  in
  { cells = List.length results; failed; grid_digest = Grid.digest results }

let grid t (g : Protocol.grid) : Protocol.response =
  admit t;
  let respond_grid ~computed (outcome : grid_outcome) : Protocol.response =
    match outcome with
    | Ok sum ->
      Protocol.Grid_reply
        { Protocol.cells = sum.cells;
          failed = sum.failed;
          grid_digest = sum.grid_digest;
          grid_computed = computed }
    | Error msg ->
      locked t (fun () -> t.errors <- t.errors + 1);
      Protocol.Error_reply msg
  in
  match spec_of_grid g with
  | Error msg ->
    locked t (fun () -> t.errors <- t.errors + 1);
    Protocol.Error_reply msg
  | Ok spec -> (
    let key = Store.Artifact.key (("service", "grid") :: Grid.identity spec) in
    let claim =
      locked t (fun () ->
          match Hashtbl.find_opt t.grid_results key with
          | Some sum -> `Warm sum
          | None -> (
            match Hashtbl.find_opt t.grid_inflight key with
            | Some iv ->
              t.deduped <- t.deduped + 1;
              `Join iv
            | None ->
              let iv = ivar () in
              Hashtbl.add t.grid_inflight key iv;
              `Lead iv))
    in
    match claim with
    | `Warm sum -> respond_grid ~computed:false (Ok sum)
    | `Join iv -> respond_grid ~computed:false (wait iv)
    | `Lead iv ->
      let job () =
        let outcome =
          try Ok (compute_grid t spec ())
          with
          | Compute_error msg -> Error msg
          | e -> Error (Printexc.to_string e)
        in
        locked t (fun () ->
            Hashtbl.remove t.grid_inflight key;
            match outcome with
            | Ok sum ->
              t.computations <- t.computations + 1;
              if t.result_cache_max > 0 then begin
                Hashtbl.replace t.grid_results key sum;
                Queue.push key t.grid_order;
                while
                  Hashtbl.length t.grid_results > t.result_cache_max
                  && not (Queue.is_empty t.grid_order)
                do
                  Hashtbl.remove t.grid_results (Queue.pop t.grid_order)
                done
              end
            | Error _ -> ());
        fill iv outcome
      in
      if Parallel.Workers.submit t.pool job then respond_grid ~computed:true (wait iv)
      else begin
        (* Same racy-joiner courtesy as the analyze and sched paths. *)
        locked t (fun () -> Hashtbl.remove t.grid_inflight key);
        fill iv (Error "request shed by admission control");
        shed t
      end)

let stats t : Protocol.stats_payload =
  let queued = Parallel.Workers.queued t.pool in
  let crashed_workers = Parallel.Workers.crashed t.pool in
  let respawned_workers = Parallel.Workers.respawned t.pool in
  let store =
    Option.map
      (fun st ->
        let s = Store.Artifact.stats st in
        (s.Store.Artifact.hits, s.Store.Artifact.misses, s.Store.Artifact.puts))
      t.store
  in
  locked t (fun () ->
      { Protocol.requests = t.requests;
        computations = t.computations;
        deduped = t.deduped;
        overloaded = t.overloaded;
        errors = t.errors;
        queued;
        crashed_workers;
        respawned_workers;
        slow_clients = t.slow_clients;
        rejected_conns = t.rejected_conns;
        store;
        uptime_s = Robust.Budget.now () -. t.started })

let shutdown t = Parallel.Workers.shutdown t.pool
