(** IPET flow model (Li & Malik): one integer variable per CFG edge plus
    one virtual exit edge per exit node, flow conservation at every
    reachable node, a unit source at the entry, a unit sink across the
    exits, and the loop-bound constraints
    [sum(back edges) <= bound * sum(entry edges)].

    Unreachable nodes are excluded so that disconnected circulation
    cannot inflate the objective.

    One model serves every IPET LP of a program: {!build} writes the
    flow system and runs simplex phase 1 on it once; {!cost_lp} builds
    each objective (the fault-free WCET of {!Wcet}, one FMM cell of
    {!Delta}) on a copy, and {!maximize} seeds the solve with that
    phase-1 basis. A model is immutable once built: build it before
    worker domains start and share it read-only. *)

type t

val build : Cfg.Graph.t -> Cfg.Loop.loop list -> t
(** The flow system and its phase-1 feasible basis. *)

val graph : t -> Cfg.Graph.t

val reachable : t -> int -> bool

val path_scope : Cache_analysis.Chmc.scope -> Path_engine.scope
(** The path engine's name for a first-miss persistence scope. *)

val cost_lp :
  t ->
  prefix:string ->
  (int * int * (Cache_analysis.Chmc.scope * int) list) list ->
  Ilp.Lp.t * int
(** [cost_lp t ~prefix costs] is the IPET LP maximising, over
    [(node, per_exec, shots)] in [costs], [per_exec] times the node's
    execution count plus, per one-shot [(scope, amount)], [amount] times
    a fresh first-miss counter named [prefix_node_index], capped by the
    node's execution count and by the entries of [scope]. Returns the LP
    (a copy of the flow system: [t] is untouched) and the objective's
    constant term, which the LP leaves out. Nodes must be reachable. *)

val maximize :
  t ->
  ?budget:Robust.Budget.t ->
  exact:bool ->
  Ilp.Lp.t ->
  (Ilp.Solver.bound, Robust.Pwcet_error.t) Stdlib.result
(** {!Ilp.Solver.bounded_objective} on an LP from {!cost_lp}, seeded
    with the model's phase-1 basis. The bound equals an unseeded
    solve's: seeding moves the pivot path, not the optimum. *)

val execution_count_bound : Cfg.Loop.loop list -> int -> int
(** Structural (LP-free) bound on the execution count of a node: the
    product of [(bound + 1)] over its enclosing loops ([1] outside any
    loop). Always dominates every feasible IPET execution count — the
    basis of the [Structural] degradation rung. Saturates at [max_int]
    instead of overflowing. *)

val sat_add : int -> int -> int
val sat_mul : int -> int -> int
(** Saturating non-negative arithmetic used by the structural bounds. *)
