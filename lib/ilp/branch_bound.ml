module Rat = Numeric.Rat

type result =
  | Optimal of Simplex.solution
  | Infeasible
  | Unbounded

type status =
  | Finished of result
  | Exhausted

exception Out_of_budget

(* A subproblem is the base LP plus variable bound cuts, appended as
   rows to a copy of the base system's phase-1 basis. *)
let cut var relation bound =
  { Lp.cname = "cut"; coeffs = [ (var, Rat.one) ]; relation; rhs = Rat.of_bigint bound }

let first_fractional base (sol : Simplex.solution) =
  let n = Array.length sol.Simplex.values in
  let rec go v =
    if v >= n then None
    else if Lp.is_integer base v && not (Rat.is_integer sol.Simplex.values.(v)) then
      Some (v, sol.Simplex.values.(v))
    else go (v + 1)
  in
  go 0

let solve_within ?(max_nodes = Robust.Budget.default_ilp_nodes) ?deadline ?start base =
  let incumbent = ref None in
  let nodes = ref 0 in
  let root_unbounded = ref false in
  let deadline_passed () =
    match deadline with
    | None -> false
    (* Poll the monotonic clock only every 32 nodes: a clock read per
       node would dominate the tiny LP re-solves of IPET trees. *)
    | Some d -> !nodes land 31 = 0 && Robust.Budget.now () > d
  in
  let rec branch start cuts =
    incr nodes;
    if !nodes > max_nodes || deadline_passed () then raise Out_of_budget;
    let relaxation =
      match start with Some start -> Simplex.solve ~start ~cuts base | None -> Simplex.Infeasible
    in
    match relaxation with
    | Simplex.Infeasible -> ()
    | Simplex.Unbounded ->
      (* Only possible at the root: cuts merely restrict the region. *)
      root_unbounded := true
    | Simplex.Optimal sol ->
      let dominated =
        match !incumbent with
        | Some (inc : Simplex.solution) -> Rat.compare sol.Simplex.objective inc.Simplex.objective <= 0
        | None -> false
      in
      if not dominated then begin
        match first_fractional base sol with
        | None -> incumbent := Some sol
        | Some (v, value) ->
          branch start (cut v Lp.Le (Rat.floor value) :: cuts);
          if not !root_unbounded then branch start (cut v Lp.Ge (Rat.ceil value) :: cuts)
      end
  in
  (* One unconditional clock read at entry: an already-expired deadline
     must exhaust deterministically even when the tree would finish
     inside the first polling window. *)
  let expired_at_entry =
    match deadline with None -> false | Some d -> Robust.Budget.now () > d
  in
  if expired_at_entry then Exhausted
  else
    (* Without a caller's basis, phase 1 on the base system runs once
       here instead of once per node; [None] means it is infeasible. *)
    let start = match start with Some _ -> start | None -> Simplex.start base in
    match branch start [] with
    | () ->
      Finished
        (if !root_unbounded then Unbounded
         else match !incumbent with Some sol -> Optimal sol | None -> Infeasible)
    | exception Out_of_budget -> Exhausted

let solve ?(max_nodes = Robust.Budget.default_ilp_nodes) base =
  match solve_within ~max_nodes base with
  | Finished r -> r
  | Exhausted -> failwith "Branch_bound.solve: node budget exhausted"
