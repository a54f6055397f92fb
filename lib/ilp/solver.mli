(** Facade over {!Simplex} and {!Branch_bound} with the conventions the
    WCET pipeline needs. *)

type outcome = {
  objective : Numeric.Rat.t;
  values : Numeric.Rat.t array;
  integral : bool;  (** every integer-marked variable has an integral value *)
}

type result =
  | Solution of outcome
  | Infeasible
  | Unbounded

type bound = {
  value : int;  (** smallest integer >= the solved objective *)
  rung : Robust.Rung.t;  (** the ladder rung that produced it *)
}

val relaxation : Lp.t -> result
(** LP relaxation only. For maximisation, its objective is always a
    sound {e upper} bound on the ILP optimum. *)

val integer : Lp.t -> result
(** Exact ILP optimum via branch-and-bound. *)

val maximize : ?exact:bool -> Lp.t -> result
(** [maximize lp] solves the relaxation and, when some integer variable
    comes out fractional and [exact] is true (the default), falls back
    to branch-and-bound. With [exact:false] a fractional relaxation
    result is returned as-is — still a sound WCET bound, possibly a
    slightly conservative one. *)

val bounded_objective :
  ?budget:Robust.Budget.t ->
  ?exact:bool ->
  ?start:Simplex.start ->
  Lp.t ->
  (bound, Robust.Pwcet_error.t) Stdlib.result
(** The budgeted two-rung solver ladder for maximisation ILPs:
    branch-and-bound within [budget] (node cap and deadline), degrading
    to the LP-relaxation upper bound when the budget runs out — sound
    because relaxing integrality can only increase a maximum. With
    [exact:false] the relaxation is used directly (rung [Relaxed]).
    [Error] only on genuinely broken models ([Infeasible] /
    [Unbounded]); the third, LP-free rung ([Structural]) is assembled
    by the IPET layer, which owns the loop-bound information
    ({!Ipet.Wcet.structural_bound}, {!Ipet.Delta.structural_extra_misses}).
    [start] seeds every LP solve with a phase-1 basis of a prefix of the
    LP's system (see {!Simplex.solve}); the bound is the same with or
    without it. Never raises. *)

val objective_upper_bound : Lp.t -> int
(** Smallest integer [>=] the relaxation optimum: the sound WCET-style
    scalar bound. @raise Failure on infeasible or unbounded models. *)
