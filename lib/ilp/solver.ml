module Rat = Numeric.Rat
module Bigint = Numeric.Bigint
module Budget = Robust.Budget
module Rung = Robust.Rung
module E = Robust.Pwcet_error

type outcome = {
  objective : Rat.t;
  values : Rat.t array;
  integral : bool;
}

type result =
  | Solution of outcome
  | Infeasible
  | Unbounded

type bound = {
  value : int;
  rung : Rung.t;
}

let is_integral lp (sol : Simplex.solution) =
  let n = Array.length sol.Simplex.values in
  let rec go v =
    v >= n || ((not (Lp.is_integer lp v)) || Rat.is_integer sol.Simplex.values.(v)) && go (v + 1)
  in
  go 0

let of_simplex lp = function
  | Simplex.Optimal sol ->
    Solution
      {
        objective = sol.Simplex.objective;
        values = sol.Simplex.values;
        integral = is_integral lp sol;
      }
  | Simplex.Infeasible -> Infeasible
  | Simplex.Unbounded -> Unbounded

let relaxation lp = of_simplex lp (Simplex.solve lp)

let integer lp =
  match Branch_bound.solve lp with
  | Branch_bound.Optimal sol ->
    Solution
      {
        objective = sol.Simplex.objective;
        values = sol.Simplex.values;
        integral = true;
      }
  | Branch_bound.Infeasible -> Infeasible
  | Branch_bound.Unbounded -> Unbounded

let maximize ?(exact = true) lp =
  match relaxation lp with
  | Solution o when (not o.integral) && exact -> integer lp
  | r -> r

let objective_upper_bound lp =
  match relaxation lp with
  | Solution o -> Bigint.to_int_exn (Rat.ceil o.objective)
  | Infeasible -> failwith "Solver.objective_upper_bound: infeasible model"
  | Unbounded -> failwith "Solver.objective_upper_bound: unbounded model"

(* --- degradation ladder --------------------------------------------------- *)

let ceil_int (r : Rat.t) = Bigint.to_int_exn (Rat.ceil r)

(* Rung 2 of the ladder: the LP relaxation. For a maximisation ILP the
   relaxation optimum always dominates the integer optimum, so its
   ceiling is a sound (looser) WCET-style bound. *)
let relaxed_bound ?start lp =
  match Simplex.solve ?start lp with
  | Simplex.Optimal sol -> Ok { value = ceil_int sol.Simplex.objective; rung = Rung.Relaxed }
  | Simplex.Infeasible -> Error (E.Infeasible "LP relaxation is infeasible")
  | Simplex.Unbounded -> Error (E.Unbounded "LP relaxation is unbounded")

let bounded_objective ?(budget = Budget.unlimited) ?(exact = true) ?start lp =
  if not exact then relaxed_bound ?start lp
  else begin
    let max_nodes = Option.value budget.Budget.ilp_nodes ~default:Budget.default_ilp_nodes in
    match Branch_bound.solve_within ~max_nodes ?deadline:budget.Budget.deadline ?start lp with
    | Branch_bound.Finished (Branch_bound.Optimal sol) ->
      Ok { value = ceil_int sol.Simplex.objective; rung = Rung.Exact }
    | Branch_bound.Finished Branch_bound.Infeasible -> Error (E.Infeasible "ILP is infeasible")
    | Branch_bound.Finished Branch_bound.Unbounded -> Error (E.Unbounded "ILP is unbounded")
    | Branch_bound.Exhausted ->
      (* Degrade: the exact search ran out of nodes or time; fall back
         to the (always-terminating) relaxation bound. *)
      relaxed_bound ?start lp
  end
