(** Branch-and-bound for integer programs on top of {!Simplex}.

    Depth-first search branching on the first fractional
    integer-marked variable, pruning with the incumbent objective.
    IPET systems have near-integral relaxations, so the tree is almost
    always trivial.

    Every node solves the base LP with its bound cuts appended to a copy
    of one phase-1 basis of the base system ({!Simplex.start}), so only
    a violated cut needs a (short) phase 1. *)

type result =
  | Optimal of Simplex.solution
  | Infeasible
  | Unbounded  (** the root relaxation is unbounded *)

type status =
  | Finished of result
  | Exhausted
      (** the node budget or deadline ran out before the search
          finished — no partial answer is exposed (an incumbent found
          early could {e under}-approximate the maximum, which WCET
          soundness forbids); callers degrade to the LP relaxation
          instead (see {!Solver.bounded_objective}). *)

val solve_within :
  ?max_nodes:int -> ?deadline:float -> ?start:Simplex.start -> Lp.t -> status
(** Budgeted search: at most [max_nodes] subproblems (default
    {!Robust.Budget.default_ilp_nodes}) and, when [deadline] (absolute,
    {!Robust.Budget.now} scale) is given, stops once it passes; the
    monotonic clock is read at entry and then every 32 nodes. [start]
    is a phase-1 basis of a prefix of the LP's system (see
    {!Simplex.solve}); without it the search builds one for the whole
    system. Never raises on exhaustion. *)

val solve : ?max_nodes:int -> Lp.t -> result
(** Compatibility wrapper over {!solve_within}.
    @raise Failure when the node budget (default 100000) is exhausted —
    never silently under-approximates. *)
