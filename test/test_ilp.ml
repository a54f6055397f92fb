(* Tests for the exact LP/ILP solver: textbook instances, edge cases
   (degeneracy, equality constraints, negative right-hand sides,
   infeasible and unbounded models), and randomized cross-validation of
   branch-and-bound against brute-force enumeration. *)

module Lp = Ilp.Lp
module Simplex = Ilp.Simplex
module BB = Ilp.Branch_bound
module Solver = Ilp.Solver
module Rat = Numeric.Rat

let rat = Alcotest.testable Rat.pp Rat.equal

let expect_optimal = function
  | Simplex.Optimal sol -> sol
  | Simplex.Infeasible -> Alcotest.fail "unexpected Infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected Unbounded"

(* --- simplex ------------------------------------------------------------ *)

let test_textbook_max () =
  (* max 3x + 5y st x <= 4; 2y <= 12; 3x + 2y <= 18  -> 36 at (2,6) *)
  let lp = Lp.create () in
  let x = Lp.add_var lp () and y = Lp.add_var lp () in
  Lp.add_constr_int lp [ (x, 1) ] Lp.Le 4;
  Lp.add_constr_int lp [ (y, 2) ] Lp.Le 12;
  Lp.add_constr_int lp [ (x, 3); (y, 2) ] Lp.Le 18;
  Lp.set_objective_int lp [ (x, 3); (y, 5) ];
  let sol = expect_optimal (Simplex.solve lp) in
  Alcotest.check rat "objective" (Rat.of_int 36) sol.Simplex.objective;
  Alcotest.check rat "x" (Rat.of_int 2) sol.Simplex.values.(x);
  Alcotest.check rat "y" (Rat.of_int 6) sol.Simplex.values.(y)

let test_fractional_optimum () =
  (* max x + y st 2x + y <= 3; x + 2y <= 3 -> 2 at (1,1); but
     max 2x + y gives fractional corner with different data:
     max x st 2x <= 3 -> x = 3/2. *)
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_constr_int lp [ (x, 2) ] Lp.Le 3;
  Lp.set_objective_int lp [ (x, 1) ];
  let sol = expect_optimal (Simplex.solve lp) in
  Alcotest.check rat "3/2" (Rat.of_ints 3 2) sol.Simplex.objective

let test_equality_constraints () =
  (* max x + 2y st x + y = 10; x - y = 2 -> x=6,y=4 -> 14 *)
  let lp = Lp.create () in
  let x = Lp.add_var lp () and y = Lp.add_var lp () in
  Lp.add_constr_int lp [ (x, 1); (y, 1) ] Lp.Eq 10;
  Lp.add_constr_int lp [ (x, 1); (y, -1) ] Lp.Eq 2;
  Lp.set_objective_int lp [ (x, 1); (y, 2) ];
  let sol = expect_optimal (Simplex.solve lp) in
  Alcotest.check rat "objective" (Rat.of_int 14) sol.Simplex.objective

let test_ge_and_negative_rhs () =
  (* max -x st x >= 5 -> -5; also expressed as -x <= -5. *)
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_constr_int lp [ (x, 1) ] Lp.Ge 5;
  Lp.set_objective_int lp [ (x, -1) ];
  let sol = expect_optimal (Simplex.solve lp) in
  Alcotest.check rat "-5" (Rat.of_int (-5)) sol.Simplex.objective;
  let lp2 = Lp.create () in
  let x2 = Lp.add_var lp2 () in
  Lp.add_constr_int lp2 [ (x2, -1) ] Lp.Le (-5);
  Lp.set_objective_int lp2 [ (x2, -1) ];
  let sol2 = expect_optimal (Simplex.solve lp2) in
  Alcotest.check rat "same model" sol.Simplex.objective sol2.Simplex.objective

let test_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_constr_int lp [ (x, 1) ] Lp.Le 3;
  Lp.add_constr_int lp [ (x, 1) ] Lp.Ge 5;
  Lp.set_objective_int lp [ (x, 1) ];
  (match Simplex.solve lp with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected Infeasible")

let test_unbounded () =
  let lp = Lp.create () in
  let x = Lp.add_var lp () and y = Lp.add_var lp () in
  Lp.add_constr_int lp [ (x, 1); (y, -1) ] Lp.Le 4;
  Lp.set_objective_int lp [ (x, 1) ];
  (match Simplex.solve lp with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected Unbounded")

let test_degenerate_cycling_guard () =
  (* Beale's classic cycling example (cycles without Bland's rule). *)
  let lp = Lp.create () in
  let x1 = Lp.add_var lp () and x2 = Lp.add_var lp () in
  let x3 = Lp.add_var lp () and x4 = Lp.add_var lp () in
  let q a b = Rat.of_ints a b in
  Lp.add_constr lp [ (x1, q 1 4); (x2, q (-60) 1); (x3, q (-1) 25); (x4, q 9 1) ] Lp.Le Rat.zero;
  Lp.add_constr lp [ (x1, q 1 2); (x2, q (-90) 1); (x3, q (-1) 50); (x4, q 3 1) ] Lp.Le Rat.zero;
  Lp.add_constr lp [ (x3, q 1 1) ] Lp.Le Rat.one;
  Lp.set_objective lp [ (x1, q 3 4); (x2, q (-150) 1); (x3, q 1 50); (x4, q (-6) 1) ];
  let sol = expect_optimal (Simplex.solve lp) in
  Alcotest.check rat "optimum 1/20" (Rat.of_ints 1 20) sol.Simplex.objective

let test_zero_constraints () =
  (* No constraints, zero objective: optimal 0. *)
  let lp = Lp.create () in
  let _x = Lp.add_var lp () in
  Lp.set_objective_int lp [];
  let sol = expect_optimal (Simplex.solve lp) in
  Alcotest.check rat "0" Rat.zero sol.Simplex.objective

let test_redundant_equalities () =
  (* x + y = 4 stated twice: phase 1 must drop the redundant row. *)
  let lp = Lp.create () in
  let x = Lp.add_var lp () and y = Lp.add_var lp () in
  Lp.add_constr_int lp [ (x, 1); (y, 1) ] Lp.Eq 4;
  Lp.add_constr_int lp [ (x, 1); (y, 1) ] Lp.Eq 4;
  Lp.set_objective_int lp [ (x, 2); (y, 1) ];
  let sol = expect_optimal (Simplex.solve lp) in
  Alcotest.check rat "8" (Rat.of_int 8) sol.Simplex.objective

(* --- branch and bound ---------------------------------------------------- *)

let test_bb_knapsack () =
  (* max 8a + 11b + 6c + 4d st 5a + 7b + 4c + 3d <= 14, vars binary.
     Optimum: a=b=c=1 (16+... 8+11+6=25? weight 5+7+4=16 > 14). Known
     answer: a=1,b=1,d=... let's enumerate: best is 21 (a,b,d: 8+11+4=23,
     weight 15 > 14; b,c,d: 11+6+4=21 weight 14 ok; a,c,d: 18 w 12).
     So 21. *)
  let lp = Lp.create () in
  let vars = Array.init 4 (fun _ -> Lp.add_var lp ()) in
  let w = [| 5; 7; 4; 3 |] and p = [| 8; 11; 6; 4 |] in
  Lp.add_constr_int lp (Array.to_list (Array.mapi (fun i v -> (v, w.(i))) vars)) Lp.Le 14;
  Array.iter (fun v -> Lp.add_constr_int lp [ (v, 1) ] Lp.Le 1) vars;
  Lp.set_objective_int lp (Array.to_list (Array.mapi (fun i v -> (v, p.(i))) vars));
  (match BB.solve lp with
  | BB.Optimal sol ->
    Alcotest.check rat "knapsack optimum" (Rat.of_int 21) sol.Simplex.objective
  | _ -> Alcotest.fail "expected Optimal");
  (* Relaxation is strictly better here (fractional). *)
  let relaxed = expect_optimal (Simplex.solve lp) in
  Alcotest.(check bool) "relaxation is an upper bound" true
    (Rat.compare relaxed.Simplex.objective (Rat.of_int 21) >= 0)

let test_bb_infeasible () =
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  (* 2x = 3 has a fractional LP solution but no integer one. *)
  Lp.add_constr_int lp [ (x, 2) ] Lp.Eq 3;
  Lp.set_objective_int lp [ (x, 1) ];
  (match BB.solve lp with
  | BB.Infeasible -> ()
  | _ -> Alcotest.fail "expected Infeasible")

let test_solver_facade () =
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_constr_int lp [ (x, 2) ] Lp.Le 3;
  Lp.set_objective_int lp [ (x, 1) ];
  (match Solver.maximize ~exact:true lp with
  | Solver.Solution o ->
    Alcotest.check rat "integer optimum" (Rat.of_int 1) o.Solver.objective;
    Alcotest.(check bool) "integral" true o.Solver.integral
  | _ -> Alcotest.fail "expected Solution");
  Alcotest.(check int) "ceil of relaxation" 2 (Solver.objective_upper_bound lp)

(* Random small ILPs, brute-forced. All variables in [0, 6]. *)
let brute_force nvars constrs obj =
  let best = ref None in
  let values = Array.make nvars 0 in
  let rec enum v =
    if v = nvars then begin
      let feasible =
        List.for_all
          (fun (coeffs, rel, rhs) ->
            let lhs = List.fold_left (fun acc (i, c) -> acc + (c * values.(i))) 0 coeffs in
            match rel with Lp.Le -> lhs <= rhs | Lp.Ge -> lhs >= rhs | Lp.Eq -> lhs = rhs)
          constrs
      in
      if feasible then begin
        let z = List.fold_left (fun acc (i, c) -> acc + (c * values.(i))) 0 obj in
        match !best with Some b when b >= z -> () | _ -> best := Some z
      end
    end
    else
      for x = 0 to 6 do
        values.(v) <- x;
        enum (v + 1)
      done
  in
  enum 0;
  !best

let gen_ilp =
  QCheck2.Gen.(
    let* nvars = int_range 2 3 in
    let* nconstrs = int_range 1 3 in
    let gen_coeffs = list_size (return nvars) (int_range (-4) 4) in
    let* constrs =
      list_size (return nconstrs)
        (let* cs = gen_coeffs in
         let* rhs = int_range 0 15 in
         return (List.mapi (fun i c -> (i, c)) cs, Lp.Le, rhs))
    in
    let* obj = gen_coeffs in
    return (nvars, constrs, List.mapi (fun i c -> (i, c)) obj))

let bb_matches_brute_force =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"B&B matches brute force" gen_ilp
       (fun (nvars, constrs, obj) ->
         let lp = Lp.create () in
         let vars = Array.init nvars (fun _ -> Lp.add_var lp ()) in
         List.iter
           (fun (coeffs, rel, rhs) ->
             Lp.add_constr_int lp (List.map (fun (i, c) -> (vars.(i), c)) coeffs) rel rhs)
           constrs;
         (* Box so both solvers search the same region. *)
         Array.iter (fun v -> Lp.add_constr_int lp [ (v, 1) ] Lp.Le 6) vars;
         Lp.set_objective_int lp (List.map (fun (i, c) -> (vars.(i), c)) obj);
         let expected = brute_force nvars constrs obj in
         match (BB.solve lp, expected) with
         | BB.Optimal sol, Some z -> Rat.equal sol.Simplex.objective (Rat.of_int z)
         | BB.Infeasible, None -> true
         | _ -> false))

let relaxation_dominates =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150 ~name:"relaxation >= integer optimum" gen_ilp
       (fun (nvars, constrs, obj) ->
         let lp = Lp.create () in
         let vars = Array.init nvars (fun _ -> Lp.add_var lp ()) in
         List.iter
           (fun (coeffs, rel, rhs) ->
             Lp.add_constr_int lp (List.map (fun (i, c) -> (vars.(i), c)) coeffs) rel rhs)
           constrs;
         Array.iter (fun v -> Lp.add_constr_int lp [ (v, 1) ] Lp.Le 6) vars;
         Lp.set_objective_int lp (List.map (fun (i, c) -> (vars.(i), c)) obj);
         match (Simplex.solve lp, BB.solve lp) with
         | Simplex.Optimal r, BB.Optimal z ->
           Rat.compare r.Simplex.objective z.Simplex.objective >= 0
         | Simplex.Infeasible, BB.Infeasible -> true
         | _, BB.Infeasible -> true
         | _ -> false))

(* --- differential: shipped engine vs the dense oracle ---------------------- *)

(* Random LPs over [nvars] early variables plus one late variable that
   only rows after [split] (and the objective) mention: the first
   [split] rows are the prefix system a seeded solve starts from. Rows
   mix Le/Ge/Eq with negative right-hand sides and fractional
   coefficients; with no box, infeasible and unbounded cases occur, and
   [dup] repeats an equality to make a redundant row. *)
let gen_coeff =
  QCheck2.Gen.(
    let* n = int_range (-4) 4 in
    let* d = oneofl [ 1; 1; 1; 2; 3 ] in
    return (Rat.of_ints n d))

let gen_lp_spec ~box =
  QCheck2.Gen.(
    let* nvars = int_range 1 4 in
    let* nrows = int_range 0 5 in
    let row =
      let* cs = list_size (return (nvars + 1)) gen_coeff in
      let* relation = oneofl [ Lp.Le; Lp.Ge; Lp.Eq ] in
      let* rhs = int_range (-8) 12 in
      return (cs, relation, Rat.of_int rhs)
    in
    let* rows = list_size (return nrows) row in
    let* dup = bool in
    let rows =
      match List.find_opt (fun (_, r, _) -> r = Lp.Eq) rows with
      | Some eq when dup -> rows @ [ eq ]
      | _ -> rows
    in
    let* split = int_range 0 (List.length rows) in
    let* obj = list_size (return (nvars + 1)) gen_coeff in
    let* cuts =
      list_size (int_range 0 3)
        (triple (int_range 0 nvars) (oneofl [ Lp.Le; Lp.Ge ]) (int_range 0 5))
    in
    return (nvars, box, rows, split, obj, cuts))

(* The prefix system (box rows, then the first [split] rows, without
   the late variable) and its extension on an [Lp.copy]: the late
   variable, the remaining rows, the objective. *)
let lps_of (nvars, box, rows, split, obj, _) =
  let base = Lp.create () in
  let vars = Array.init nvars (fun _ -> Lp.add_var base ()) in
  let terms cs = List.filteri (fun i _ -> i < nvars) cs |> List.mapi (fun i c -> (vars.(i), c)) in
  if box then Array.iter (fun v -> Lp.add_constr_int base [ (v, 1) ] Lp.Le 5) vars;
  List.iteri (fun i (cs, rel, rhs) -> if i < split then Lp.add_constr base (terms cs) rel rhs) rows;
  let ext = Lp.copy base in
  let late = Lp.add_var ext () in
  if box then Lp.add_constr_int ext [ (late, 1) ] Lp.Le 5;
  let all_terms cs = (late, List.nth cs nvars) :: terms cs in
  List.iteri (fun i (cs, rel, rhs) -> if i >= split then Lp.add_constr ext (all_terms cs) rel rhs) rows;
  Lp.set_objective ext (all_terms obj);
  (base, ext)

let cut_rows (_, _, _, _, _, cuts) =
  List.map
    (fun (v, relation, bound) ->
      { Lp.cname = "cut"; coeffs = [ (v, Rat.one) ]; relation; rhs = Rat.of_int bound })
    cuts

let with_rows lp rows =
  let lp = Lp.copy lp in
  List.iter (fun (c : Lp.constr) -> Lp.add_constr lp c.Lp.coeffs c.Lp.relation c.Lp.rhs) rows;
  lp

let same_status_and_objective a b =
  match (a, b) with
  | Simplex.Optimal x, Simplex.Optimal y -> Rat.equal x.Simplex.objective y.Simplex.objective
  | Simplex.Infeasible, Simplex.Infeasible | Simplex.Unbounded, Simplex.Unbounded -> true
  | _ -> false

let differential name ~box check =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~name (gen_lp_spec ~box) check)

(* Unseeded, the pivot sequence is the dense one: same vertex too. *)
let lp_unseeded_matches_oracle =
  differential "unseeded LP = dense oracle (status, objective, vertex)" ~box:false (fun spec ->
      let _, lp = lps_of spec in
      match (Simplex.solve lp, Dense_oracle.solve lp) with
      | Simplex.Optimal x, Simplex.Optimal y ->
        Rat.equal x.Simplex.objective y.Simplex.objective
        && Array.for_all2 Rat.equal x.Simplex.values y.Simplex.values
      | a, b -> same_status_and_objective a b)

let lp_seeded_matches_oracle =
  differential "seeded LP with cuts = dense oracle (status, objective)" ~box:false (fun spec ->
      let base, ext = lps_of spec in
      let cuts = cut_rows spec in
      let expected = Dense_oracle.solve (with_rows ext cuts) in
      match Simplex.start base with
      | None -> expected = Simplex.Infeasible
      | Some start -> same_status_and_objective (Simplex.solve ~start ~cuts ext) expected)

let ilp_matches_oracle =
  differential "B&B (own and caller's basis) = dense oracle B&B" ~box:true (fun spec ->
      let base, ext = lps_of spec in
      let expected = Dense_oracle.branch_bound ext in
      let as_simplex = function
        | BB.Optimal s -> Simplex.Optimal s
        | BB.Infeasible -> Simplex.Infeasible
        | BB.Unbounded -> Simplex.Unbounded
      in
      let seeded =
        match BB.solve_within ?start:(Simplex.start base) ext with
        | BB.Finished r -> as_simplex r
        | BB.Exhausted -> Alcotest.fail "node budget exhausted"
      in
      same_status_and_objective (as_simplex (BB.solve ext)) expected
      && (Simplex.start base = None || same_status_and_objective seeded expected))

let test_start_prefix_checked () =
  let lp = Lp.create () in
  let x = Lp.add_var lp () in
  Lp.add_constr_int lp [ (x, 1) ] Lp.Le 3;
  let start = Option.get (Simplex.start lp) in
  let other = Lp.create () in
  let y = Lp.add_var other () in
  Lp.add_constr_int other [ (y, 1) ] Lp.Le 3;
  Alcotest.check_raises "not an extension"
    (Invalid_argument "Simplex.solve: the LP does not extend its start's system") (fun () ->
      ignore (Simplex.solve ~start other))

let () =
  Alcotest.run "ilp"
    [ ( "simplex",
        [ Alcotest.test_case "textbook" `Quick test_textbook_max
        ; Alcotest.test_case "fractional" `Quick test_fractional_optimum
        ; Alcotest.test_case "equalities" `Quick test_equality_constraints
        ; Alcotest.test_case "ge / negative rhs" `Quick test_ge_and_negative_rhs
        ; Alcotest.test_case "infeasible" `Quick test_infeasible
        ; Alcotest.test_case "unbounded" `Quick test_unbounded
        ; Alcotest.test_case "Beale degeneracy" `Quick test_degenerate_cycling_guard
        ; Alcotest.test_case "empty" `Quick test_zero_constraints
        ; Alcotest.test_case "redundant equalities" `Quick test_redundant_equalities
        ] )
    ; ( "branch-and-bound",
        [ Alcotest.test_case "knapsack" `Quick test_bb_knapsack
        ; Alcotest.test_case "integer infeasible" `Quick test_bb_infeasible
        ; Alcotest.test_case "solver facade" `Quick test_solver_facade
        ] )
    ; ("properties", [ bb_matches_brute_force; relaxation_dominates ])
    ; ( "oracle",
        [ lp_unseeded_matches_oracle
        ; lp_seeded_matches_oracle
        ; ilp_matches_oracle
        ; Alcotest.test_case "start prefix checked" `Quick test_start_prefix_checked
        ] )
    ]
