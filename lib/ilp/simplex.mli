(** Exact two-phase primal simplex over arbitrary-precision rationals.

    Solves the LP relaxation of an {!Lp.t} (integrality markers are
    ignored): maximise the objective subject to the constraints and
    non-negativity. Bland's rule guarantees termination; exact
    arithmetic sidesteps every floating-point feasibility tolerance
    issue — important because WCET soundness rests on the bound being a
    true optimum (or over-estimate), never an under-estimate.

    Three things keep the bignum work small:
    - {b Sparse elimination.} A pivot collects the nonzero columns of
      the pivot row once and normalises and eliminates only those, in
      every row and in the objective row. [x - f*0 = x] exactly, so the
      tableau and Bland's pivot sequence are those of the dense update.
    - {b Integer fast path.} {!Numeric.Rat} skips its gcd normalisation
      when an operand is zero or both are integers — most IPET tableau
      entries.
    - {b A reusable phase-1 basis.} {!start} runs phase 1 once on a
      constraint system. {!solve} [~start] copies that basis and appends
      the LP's remaining rows and the [cuts], each written in the
      basis's nonbasic columns. Only a fresh row that is an equation or
      violated at the basis gets an artificial, and a short phase 1
      over those alone restores feasibility. An IPET flow system
      (conservation, sink, loop bounds) is the shared prefix of every
      FMM cell's LP and of every branch-and-bound node: first-miss
      counter rows [y - sum x <= c] with [c >= 0] are feasible at any
      feasible basis, so only violated bound cuts need phase 1.

    Seeding changes the pivot path but not the answer: the status and
    the optimal objective value of an LP are unique, so an objective's
    [ceil] — the reported WCET-style bound — is the same with or without
    a start. Only the optimal vertex returned in [values] may differ
    when the optimum is degenerate. *)

type solution = {
  objective : Numeric.Rat.t;
  values : Numeric.Rat.t array;  (** one value per structural variable *)
}

type result =
  | Optimal of solution
  | Unbounded
  | Infeasible

type start
(** A feasible basis of an LP's constraint system, found by phase 1.
    Immutable: one [start] may seed solves on several domains at once. *)

val start : Lp.t -> start option
(** Phase 1 on the constraints of the LP (its objective is ignored).
    [None] when they are infeasible. *)

val solve : ?start:start -> ?cuts:Lp.constr list -> Lp.t -> result
(** Optimum of the LP with the extra rows [cuts] (default none)
    appended. Without [start], a textbook two-phase solve. With
    [start], the LP's system must extend the one [start] was built from:
    the same first variables and, physically, the same first
    constraints — build it on an {!Lp.copy} of that LP.
    @raise Invalid_argument when it does not. *)
