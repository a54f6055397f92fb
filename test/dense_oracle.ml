(* Test oracle: the dense exact simplex and branch-and-bound the ILP
   engine shipped before sparse elimination, the integer fast path in
   [Rat] and seeded phase-1 bases. Kept verbatim (minus the budget
   plumbing) as the reference the shipped engine is checked against;
   it is slow and not part of lib/. *)

module Rat = Numeric.Rat
module Lp = Ilp.Lp
module Bigint = Numeric.Bigint

type solution = Ilp.Simplex.solution = {
  objective : Numeric.Rat.t;
  values : Numeric.Rat.t array;
}

type result = Ilp.Simplex.result =
  | Optimal of solution
  | Unbounded
  | Infeasible

(* Dense tableau:
     a     : m rows over [ncols] columns (structural ++ slack/surplus ++ artificial)
     b     : m right-hand sides, kept >= 0 (primal feasibility)
     basis : basic column of each row
     obj   : current reduced-cost row (entering candidates have obj > 0)
     objv  : current objective value *)
type tableau = {
  mutable m : int;
  ncols : int;
  a : Rat.t array array;
  b : Rat.t array;
  basis : int array;
  obj : Rat.t array;
  mutable objv : Rat.t;
}

let pivot t ~row ~col =
  let arow = t.a.(row) in
  let p = arow.(col) in
  (* Normalise the pivot row. *)
  for j = 0 to t.ncols - 1 do
    arow.(j) <- Rat.div arow.(j) p
  done;
  t.b.(row) <- Rat.div t.b.(row) p;
  (* Eliminate the column from every other row and from the objective. *)
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let f = t.a.(i).(col) in
      if not (Rat.is_zero f) then begin
        let irow = t.a.(i) in
        for j = 0 to t.ncols - 1 do
          irow.(j) <- Rat.sub irow.(j) (Rat.mul f arow.(j))
        done;
        t.b.(i) <- Rat.sub t.b.(i) (Rat.mul f t.b.(row))
      end
    end
  done;
  let f = t.obj.(col) in
  if not (Rat.is_zero f) then begin
    for j = 0 to t.ncols - 1 do
      t.obj.(j) <- Rat.sub t.obj.(j) (Rat.mul f arow.(j))
    done;
    t.objv <- Rat.add t.objv (Rat.mul f t.b.(row))
  end;
  t.basis.(row) <- col

(* Maximise the current objective row with Bland's rule. [allowed]
   filters the columns that may enter (used to bar artificials in
   phase 2). Returns false when unbounded. *)
let optimize t ~allowed =
  let rec iterate () =
    (* Bland: the entering column is the smallest-index improving one. *)
    let entering = ref (-1) in
    (try
       for j = 0 to t.ncols - 1 do
         if allowed j && Rat.sign t.obj.(j) > 0 then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then true
    else begin
      let col = !entering in
      (* Ratio test; ties broken by the smallest basic variable index. *)
      let best = ref (-1) in
      let best_ratio = ref Rat.zero in
      for i = 0 to t.m - 1 do
        if Rat.sign t.a.(i).(col) > 0 then begin
          let ratio = Rat.div t.b.(i) t.a.(i).(col) in
          if
            !best < 0
            || Rat.compare ratio !best_ratio < 0
            || (Rat.compare ratio !best_ratio = 0 && t.basis.(i) < t.basis.(!best))
          then begin
            best := i;
            best_ratio := ratio
          end
        end
      done;
      if !best < 0 then false
      else begin
        pivot t ~row:!best ~col;
        iterate ()
      end
    end
  in
  iterate ()

(* Install a fresh objective [c] (indexed by column) and rewrite it in
   terms of the current basis. *)
let set_objective t c =
  Array.blit c 0 t.obj 0 t.ncols;
  t.objv <- Rat.zero;
  for i = 0 to t.m - 1 do
    let f = t.obj.(t.basis.(i)) in
    if not (Rat.is_zero f) then begin
      let irow = t.a.(i) in
      for j = 0 to t.ncols - 1 do
        t.obj.(j) <- Rat.sub t.obj.(j) (Rat.mul f irow.(j))
      done;
      t.objv <- Rat.add t.objv (Rat.mul f t.b.(i))
    end
  done

let drop_row t row =
  let last = t.m - 1 in
  if row <> last then begin
    t.a.(row) <- t.a.(last);
    t.b.(row) <- t.b.(last);
    t.basis.(row) <- t.basis.(last)
  end;
  t.m <- last

let run_phase2 t lp n first_art =
  let c2 = Array.make t.ncols Rat.zero in
  List.iter (fun (v, q) -> c2.(v) <- q) (Lp.objective lp);
  set_objective t c2;
  if optimize t ~allowed:(fun j -> j < first_art) then begin
    let values = Array.make n Rat.zero in
    for i = 0 to t.m - 1 do
      if t.basis.(i) < n then values.(t.basis.(i)) <- t.b.(i)
    done;
    Optimal { objective = t.objv; values }
  end
  else Unbounded

let solve (lp : Lp.t) =
  let n = Lp.num_vars lp in
  let constrs = Array.of_list (Lp.constraints lp) in
  let m = Array.length constrs in
  (* Column layout: one slack/surplus column per inequality, one
     artificial per Ge/Eq constraint. *)
  let n_slack = ref 0 and n_art = ref 0 in
  Array.iter
    (fun (c : Lp.constr) ->
      (* Normalising the rhs sign may flip the relation. *)
      let relation = if Rat.sign c.Lp.rhs < 0 then
          (match c.Lp.relation with Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq)
        else c.Lp.relation
      in
      (match relation with
      | Lp.Le -> incr n_slack
      | Lp.Ge ->
        incr n_slack;
        incr n_art
      | Lp.Eq -> incr n_art))
    constrs;
  let ncols = n + !n_slack + !n_art in
  let t =
    {
      m;
      ncols;
      a = Array.init m (fun _ -> Array.make ncols Rat.zero);
      b = Array.make m Rat.zero;
      basis = Array.make (max m 1) (-1);
      obj = Array.make ncols Rat.zero;
      objv = Rat.zero;
    }
  in
  let next_slack = ref n and next_art = ref (n + !n_slack) in
  let first_art = n + !n_slack in
  Array.iteri
    (fun i (c : Lp.constr) ->
      let flip = Rat.sign c.Lp.rhs < 0 in
      let coeff v = if flip then Rat.neg v else v in
      List.iter (fun (v, q) -> t.a.(i).(v) <- coeff q) c.Lp.coeffs;
      t.b.(i) <- coeff c.Lp.rhs;
      let relation =
        if flip then
          match c.Lp.relation with Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq
        else c.Lp.relation
      in
      match relation with
      | Lp.Le ->
        let s = !next_slack in
        incr next_slack;
        t.a.(i).(s) <- Rat.one;
        t.basis.(i) <- s
      | Lp.Ge ->
        let s = !next_slack in
        incr next_slack;
        t.a.(i).(s) <- Rat.minus_one;
        let art = !next_art in
        incr next_art;
        t.a.(i).(art) <- Rat.one;
        t.basis.(i) <- art
      | Lp.Eq ->
        let art = !next_art in
        incr next_art;
        t.a.(i).(art) <- Rat.one;
        t.basis.(i) <- art)
    constrs;
  (* Phase 1: drive the artificials to zero. *)
  if first_art < ncols then begin
    let c1 = Array.make ncols Rat.zero in
    for j = first_art to ncols - 1 do
      c1.(j) <- Rat.minus_one
    done;
    set_objective t c1;
    let bounded = optimize t ~allowed:(fun _ -> true) in
    assert bounded;
    if Rat.sign t.objv < 0 then Infeasible
    else begin
      (* Pivot basic artificials out; drop redundant rows. *)
      let i = ref 0 in
      while !i < t.m do
        if t.basis.(!i) >= first_art then begin
          let col = ref (-1) in
          (try
             for j = 0 to first_art - 1 do
               if not (Rat.is_zero t.a.(!i).(j)) then begin
                 col := j;
                 raise Exit
               end
             done
           with Exit -> ());
          if !col >= 0 then begin
            pivot t ~row:!i ~col:!col;
            incr i
          end
          else drop_row t !i (* all-zero row: redundant *)
        end
        else incr i
      done;
      run_phase2 t lp n first_art
    end
  end
  else run_phase2 t lp n first_art


(* --- branch and bound over [solve] --------------------------------------- *)

type cut = {
  var : Lp.var;
  relation : Lp.relation;
  bound : Bigint.t;
}

let rebuild base cuts =
  let lp = Lp.create () in
  for _ = 1 to Lp.num_vars base do
    ignore (Lp.add_var lp ())
  done;
  List.iter
    (fun (c : Lp.constr) -> Lp.add_constr lp ~name:c.Lp.cname c.Lp.coeffs c.Lp.relation c.Lp.rhs)
    (Lp.constraints base);
  List.iter
    (fun cut -> Lp.add_constr lp [ (cut.var, Rat.one) ] cut.relation (Rat.of_bigint cut.bound))
    cuts;
  Lp.set_objective lp (Lp.objective base);
  lp

let first_fractional base (sol : solution) =
  let n = Array.length sol.values in
  let rec go v =
    if v >= n then None
    else if Lp.is_integer base v && not (Rat.is_integer sol.values.(v)) then
      Some (v, sol.values.(v))
    else go (v + 1)
  in
  go 0

(* Depth-first, first fractional variable, incumbent pruning; no node
   budget. Same result type as [solve]: [Unbounded] when the root
   relaxation is. *)
let branch_bound base =
  let incumbent = ref None in
  let root_unbounded = ref false in
  let rec branch cuts =
    match solve (rebuild base cuts) with
    | Infeasible -> ()
    | Unbounded -> root_unbounded := true
    | Optimal sol ->
      let dominated =
        match !incumbent with
        | Some (inc : solution) -> Rat.compare sol.objective inc.objective <= 0
        | None -> false
      in
      if not dominated then begin
        match first_fractional base sol with
        | None -> incumbent := Some sol
        | Some (v, value) ->
          branch ({ var = v; relation = Lp.Le; bound = Rat.floor value } :: cuts);
          if not !root_unbounded then
            branch ({ var = v; relation = Lp.Ge; bound = Rat.ceil value } :: cuts)
      end
  in
  branch [];
  if !root_unbounded then Unbounded
  else match !incumbent with Some sol -> Optimal sol | None -> Infeasible

(* The unbudgeted solver ladder: the ceiling of the exact ILP optimum
   (rung [Exact]) or of the relaxation (rung [Relaxed]). *)
let bounded_objective ~exact lp =
  let ceil_int r = Bigint.to_int_exn (Rat.ceil r) in
  match (if exact then branch_bound lp else solve lp) with
  | Optimal sol -> Some (ceil_int sol.objective, if exact then Robust.Rung.Exact else Robust.Rung.Relaxed)
  | Infeasible | Unbounded -> None
