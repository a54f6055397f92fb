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

type t = {
  pool : Parallel.Workers.t;
  store : Store.Artifact.t option;
  queue_max : int;
  started : float;  (* Budget.now scale *)
  lock : Mutex.t;  (* guards every flight and counter below *)
  tasks : Pwcet.Estimator.task Singleflight.t;
  results : Pwcet.Estimator.estimate Singleflight.t;
  bench_results : Pwcet.Estimator.estimate Singleflight.t;
      (* per-benchmark estimates led inline by sched campaign jobs: the
         [results] cache, but its own in-flight table, because a
         [results] leader is a pool job a worker-resident waiter could
         deadlock against *)
  scheds : Protocol.sched_payload Singleflight.t;
  grids : Protocol.grid_payload Singleflight.t;
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
  let lock = Mutex.create () in
  let flight cap = Singleflight.create (Singleflight.cache ~lock cap) in
  let results = Singleflight.cache ~lock config.result_cache_max in
  { pool =
      Parallel.Workers.create ?chaos:config.chaos ~domains:config.domains
        ~queue_max:config.queue_max ();
    store = config.store;
    queue_max = config.queue_max;
    started = Robust.Budget.now ();
    lock;
    tasks = flight config.task_cache_max;
    results = Singleflight.create results;
    bench_results = Singleflight.create results;
    scheds = flight config.result_cache_max;
    grids = flight config.result_cache_max;
    requests = 0;
    computations = 0;
    deduped = 0;
    overloaded = 0;
    errors = 0;
    slow_clients = 0;
    rejected_conns = 0 }

let locked t f = Mutex.protect t.lock f

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

(* A computation's outcome for a flight: a typed [Compute_error] becomes
   its message (any other exception is caught by [Singleflight.run]). *)
let attempt f = try Ok (f ()) with Compute_error msg -> Error msg

(* [attempt], counting a successful run in [computations] before any
   waiter can see its value. *)
let counted t f () =
  let outcome = attempt f in
  if Result.is_ok outcome then locked t (fun () -> t.computations <- t.computations + 1);
  outcome

(* An [on_join] hook: runs under [t.lock], inside the join decision. *)
let dedup t () = t.deduped <- t.deduped + 1

let ok_or_raise = function Ok v -> v | Error msg -> raise (Compute_error msg)

(* The value of a flight led inline; an error propagates as
   [Compute_error]. The default inline [submit] never sheds. *)
let inline_value = function
  | Singleflight.Warm v -> v
  | Joined r | Led r -> ok_or_raise r
  | Shed -> raise (Compute_error Singleflight.shed_error)

let program_of_bench bench =
  match Benchmarks.Registry.find bench with
  | None -> Error (Printf.sprintf "unknown benchmark %S; the registry lists the valid names" bench)
  | Some entry -> (
    try Ok (Minic.Compile.compile entry.Benchmarks.Registry.program).Minic.Compile.program
    with Minic.Typecheck.Error msg | Minic.Compile.Error msg -> Error msg)

let geometry ~sets ~ways ~line =
  try Ok (Cache.Config.make ~sets ~ways ~line_bytes:line ())
  with Invalid_argument msg -> Error msg

(* Prepared-task cache: bounded, FIFO-evicted, with its own in-flight
   dedup so N concurrent cold requests against one benchmark run the
   expensive preparation (CFG recovery, cache analysis, fault-free
   WCET) once. Only called from worker domains. *)
let prepared_task t ~program ~config ~identity (a : Protocol.analyze) =
  inline_value
    (Singleflight.run t.tasks (task_key ~identity ~engine:a.engine ~exact:a.exact) (fun () ->
         Ok
           (Pwcet.Estimator.prepare ~program ~config ~engine:a.engine ~exact:a.exact
              ?store:t.store ())))

(* The shared, store-backed estimate behind both [analyze] and sched
   campaigns. [jobs:1]: request-level parallelism comes from the pool
   itself; nested per-set domains would oversubscribe it. *)
let estimate t ~program ~config ~identity (a : Protocol.analyze) =
  let task = prepared_task t ~program ~config ~identity a in
  Pwcet.Estimator.estimate task ~pfail:a.pfail ~mechanism:a.mechanism ~engine:a.engine
    ~exact:a.exact ~jobs:1 ~impl:a.impl ?store:t.store ()

(* The computation a worker domain runs for an analyze request. *)
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
  | None -> estimate t ~program ~config ~identity a

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

let error_reply t msg =
  locked t (fun () -> t.errors <- t.errors + 1);
  Protocol.Error_reply msg

let shed t =
  let queued = Parallel.Workers.queued t.pool in
  locked t (fun () -> t.overloaded <- t.overloaded + 1);
  Protocol.Overloaded { queued; queue_max = t.queue_max }

(* One request through [flight] as an admission-controlled pool job:
   warm, joined, led, or shed, mapped onto the wire reply. *)
let pooled t flight key ~reply compute =
  match
    Singleflight.run flight key ~on_join:(dedup t) ~submit:(Parallel.Workers.submit t.pool)
      compute
  with
  | Singleflight.Warm v | Joined (Ok v) -> reply ~computed:false v
  | Led (Ok v) -> reply ~computed:true v
  | Joined (Error msg) | Led (Error msg) -> error_reply t msg
  | Shed -> shed t

let analyze t (a : Protocol.analyze) : Protocol.response =
  admit t;
  match (program_of_bench a.bench, geometry ~sets:a.sets ~ways:a.ways ~line:a.line) with
  | Error msg, _ | _, Error msg -> error_reply t msg
  | Ok program, Ok config ->
    let identity = Pwcet.Estimator.identity_of ~program ~config in
    let reply ~computed est =
      Protocol.Result
        { pwcet = Pwcet.Estimator.pwcet est ~target:a.target;
          wcet_ff = Pwcet.Estimator.fault_free_wcet est.Pwcet.Estimator.task;
          pbf = est.Pwcet.Estimator.pbf;
          rung = Robust.Rung.to_string (Pwcet.Estimator.worst_rung est);
          computed }
    in
    let flight, key, budget =
      match a.timeout_ms with
      | Some ms ->
        (* Budgeted: a private one-shot flight, admission control only. *)
        ( Singleflight.create (Singleflight.cache ~lock:t.lock 0),
          "",
          Some (Robust.Budget.make ~timeout:(float_of_int ms /. 1000.0) ()) )
      | None -> (t.results, request_key ~identity a, None)
    in
    pooled t flight key ~reply (counted t (compute t ~program ~config ~identity ?budget a))

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
   a [results] leader that is a pool job possibly queued behind this
   very campaign — could deadlock a fully sched-occupied pool, so the
   campaign path leads and joins in [bench_results], whose leaders
   never need a pool slot. It still reads and feeds the shared result
   cache (same [request_key]), so sched campaigns and analyze traffic
   warm each other. *)
let bench_estimate t ~config (spec : Sched.Campaign.spec) bench =
  let program = ok_or_raise (program_of_bench bench) in
  let identity = Pwcet.Estimator.identity_of ~program ~config in
  let a =
    { (Protocol.default_analyze ~bench) with
      Protocol.pfail = spec.pfail;
      mechanism = spec.mechanism;
      sets = spec.sets;
      ways = spec.ways;
      line = spec.line }
  in
  inline_value
    (Singleflight.run t.bench_results (request_key ~identity a) ~on_join:(dedup t)
       (counted t (fun () -> estimate t ~program ~config ~identity a)))

(* The campaign computation a worker domain runs. [jobs:1] as in
   [estimate]: request-level parallelism comes from the pool itself. *)
let compute_sched t (spec : Sched.Campaign.spec) () : Protocol.sched_payload =
  let config = Cache.Config.make ~sets:spec.sets ~ways:spec.ways ~line_bytes:spec.line () in
  let laws =
    List.map
      (fun bench ->
        Sched.Campaign.law_of_estimate spec ~bench (bench_estimate t ~config spec bench))
      (Sched.Campaign.distinct_benchmarks spec)
  in
  let c = Sched.Campaign.run_with_laws ~jobs:1 spec laws in
  let count p = List.length (List.filter p c.Sched.Campaign.results) in
  { analyzed = spec.count;
    passes = count (fun (r : Sched.Campaign.set_result) -> List.for_all snd r.passes);
    degraded = count (fun (r : Sched.Campaign.set_result) -> r.degraded);
    digest = c.Sched.Campaign.digest;
    sched_computed = true }

(* A campaign counts no computation of its own: its per-benchmark
   estimates are counted (and deduped) in [bench_estimate]. *)
let sched t (s : Protocol.sched) : Protocol.response =
  admit t;
  match spec_of_sched s with
  | Error msg -> error_reply t msg
  | Ok spec ->
    pooled t t.scheds
      (Store.Artifact.key (("service", "sched") :: Sched.Campaign.identity spec))
      ~reply:(fun ~computed p -> Protocol.Sched_reply { p with Protocol.sched_computed = computed })
      (fun () -> attempt (compute_sched t spec))

(* --- bulk comparison grids -------------------------------------------------- *)

let spec_of_grid (g : Protocol.grid) =
  try
    let benchmarks = List.map (fun b -> (b, ok_or_raise (program_of_bench b))) g.g_benchmarks in
    let configs =
      List.map (fun (sets, ways, line) -> ok_or_raise (geometry ~sets ~ways ~line)) g.g_geometries
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
let compute_grid t (spec : Grid.spec) () : Protocol.grid_payload =
  let results = Grid.run ~jobs:1 ?store:t.store spec in
  { cells = List.length results;
    failed = List.length (List.filter (fun (_, r) -> Result.is_error r) results);
    grid_digest = Grid.digest results;
    grid_computed = true }

let grid t (g : Protocol.grid) : Protocol.response =
  admit t;
  match spec_of_grid g with
  | Error msg -> error_reply t msg
  | Ok spec ->
    pooled t t.grids
      (Store.Artifact.key (("service", "grid") :: Grid.identity spec))
      ~reply:(fun ~computed p -> Protocol.Grid_reply { p with Protocol.grid_computed = computed })
      (counted t (compute_grid t spec))

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
