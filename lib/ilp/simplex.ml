module Rat = Numeric.Rat

type solution = {
  objective : Rat.t;
  values : Rat.t array;
}

type result =
  | Optimal of solution
  | Unbounded
  | Infeasible

(* Tableau, stored dense but eliminated sparsely:
     a     : m rows over [ncols] columns (structural ++ slack/surplus ++ artificial)
     b     : m right-hand sides, kept >= 0 (primal feasibility)
     basis : basic column of each row
     obj   : current reduced-cost row (entering candidates have obj > 0)
     objv  : current objective value
     nz    : scratch buffer for the nonzero columns of one row *)
type tableau = {
  mutable m : int;
  ncols : int;
  a : Rat.t array array;
  b : Rat.t array;
  basis : int array;
  obj : Rat.t array;
  mutable objv : Rat.t;
  nz : int array;
}

(* A feasible basis of a constraint system after phase 1, artificial
   columns dropped: [rows] are over the system's [nvars] structural
   columns followed by its [nslack] slack/surplus columns. Never mutated
   once built, so one value can seed solves on several domains. *)
type start = {
  rows : Rat.t array array;
  rhs : Rat.t array;
  basic : int array;
  nvars : int;
  nslack : int;
  constrs : Lp.constr list;  (* the system itself, for the prefix check *)
}

let empty = { rows = [||]; rhs = [||]; basic = [||]; nvars = 0; nslack = 0; constrs = [] }

(* Collect the nonzero columns of [r] into [t.nz]; returns their count. *)
let nonzeros t r =
  let k = ref 0 in
  for j = 0 to t.ncols - 1 do
    if not (Rat.is_zero r.(j)) then begin
      t.nz.(!k) <- j;
      incr k
    end
  done;
  !k

(* [r <- r - f * src] over the [k] columns listed in [t.nz]: every
   other column of [src] is zero, and [x - f*0 = x] exactly, so this is
   the dense update restricted to the columns it can change. *)
let eliminate t r f src k =
  for q = 0 to k - 1 do
    let j = t.nz.(q) in
    r.(j) <- Rat.sub r.(j) (Rat.mul f src.(j))
  done

let pivot t ~row ~col =
  let arow = t.a.(row) in
  let p = arow.(col) in
  (* Normalise the pivot row. *)
  let k = nonzeros t arow in
  for q = 0 to k - 1 do
    let j = t.nz.(q) in
    arow.(j) <- Rat.div arow.(j) p
  done;
  t.b.(row) <- Rat.div t.b.(row) p;
  (* Eliminate the column from every other row and from the objective. *)
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let f = t.a.(i).(col) in
      if not (Rat.is_zero f) then begin
        eliminate t t.a.(i) f arow k;
        t.b.(i) <- Rat.sub t.b.(i) (Rat.mul f t.b.(row))
      end
    end
  done;
  let f = t.obj.(col) in
  if not (Rat.is_zero f) then begin
    eliminate t t.obj f arow k;
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
      eliminate t t.obj f irow (nonzeros t irow);
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

let flip_relation = function Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq

(* The tableau of [lp] plus the [cuts] rows, seeded with the feasible
   basis [st] of a prefix of [lp]'s system. Column layout: the
   structural variables, [st]'s slacks, one slack/surplus per fresh
   inequality, one artificial per fresh Ge/Eq row. Each fresh row is
   first written in [st]'s nonbasic columns (subtracting the basis row
   of every basic variable it mentions); a row whose right-hand side
   is then negative is negated. So a fresh row needs an artificial only
   when it is an equation or ends up a [>=]: with [st = empty] this is
   the textbook two-phase layout, and a fresh [<=] row with a
   nonnegative right-hand side (every IPET first-miss counter) enters
   with its slack basic and leaves the basis feasible. Returns the
   tableau and the first artificial column. *)
let tableau_of st lp cuts =
  let n = Lp.num_vars lp in
  let n0 = st.nvars and s0 = st.nslack in
  if n < n0 then invalid_arg "Simplex.solve: the LP has fewer variables than its start";
  let rec fresh_of base all =
    match (base, all) with
    | [], rest -> rest
    | c :: base, c' :: all when c == c' -> fresh_of base all
    | _ -> invalid_arg "Simplex.solve: the LP does not extend its start's system"
  in
  let fresh = Array.of_list (fresh_of st.constrs (Lp.constraints lp) @ cuts) in
  (* [st]'s columns in the wider layout. *)
  let col j = if j < n0 then j else j - n0 + n in
  let basic_row = Array.make (n0 + s0) (-1) in
  Array.iteri (fun i c -> basic_row.(c) <- i) st.basic;
  let width = n + s0 in
  let fresh =
    Array.map
      (fun (c : Lp.constr) ->
        let r = Array.make width Rat.zero in
        List.iter (fun (v, q) -> r.(v) <- q) c.Lp.coeffs;
        let rhs = ref c.Lp.rhs in
        List.iter
          (fun (v, q) ->
            if v < n0 && basic_row.(v) >= 0 then begin
              let i = basic_row.(v) in
              Array.iteri
                (fun j x -> if not (Rat.is_zero x) then r.(col j) <- Rat.sub r.(col j) (Rat.mul q x))
                st.rows.(i);
              rhs := Rat.sub !rhs (Rat.mul q st.rhs.(i))
            end)
          c.Lp.coeffs;
        if Rat.sign !rhs < 0 then (Array.map Rat.neg r, Rat.neg !rhs, flip_relation c.Lp.relation)
        else (r, !rhs, c.Lp.relation))
      fresh
  in
  let n_slack = ref 0 and n_art = ref 0 in
  Array.iter
    (fun (_, _, relation) ->
      match relation with
      | Lp.Le -> incr n_slack
      | Lp.Ge ->
        incr n_slack;
        incr n_art
      | Lp.Eq -> incr n_art)
    fresh;
  let first_art = width + !n_slack in
  let ncols = first_art + !n_art in
  let m0 = Array.length st.rows in
  let m = m0 + Array.length fresh in
  let t =
    {
      m;
      ncols;
      a = Array.init m (fun _ -> Array.make ncols Rat.zero);
      b = Array.make m Rat.zero;
      basis = Array.make (max m 1) (-1);
      obj = Array.make ncols Rat.zero;
      objv = Rat.zero;
      nz = Array.make ncols 0;
    }
  in
  Array.iteri
    (fun i row ->
      Array.iteri (fun j x -> if not (Rat.is_zero x) then t.a.(i).(col j) <- x) row;
      t.b.(i) <- st.rhs.(i);
      t.basis.(i) <- col st.basic.(i))
    st.rows;
  let next_slack = ref width and next_art = ref first_art in
  Array.iteri
    (fun k (r, rhs, relation) ->
      let i = m0 + k in
      Array.blit r 0 t.a.(i) 0 width;
      t.b.(i) <- rhs;
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
    fresh;
  (t, first_art)

(* Phase 1: drive the artificials to zero. Returns false when the
   system is infeasible; otherwise no artificial is left basic. *)
let phase1 t ~first_art =
  if first_art >= t.ncols then true
  else begin
    let c1 = Array.make t.ncols Rat.zero in
    for j = first_art to t.ncols - 1 do
      c1.(j) <- Rat.minus_one
    done;
    set_objective t c1;
    let bounded = optimize t ~allowed:(fun _ -> true) in
    assert bounded;
    if Rat.sign t.objv < 0 then false
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
      true
    end
  end

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

let start lp =
  let t, first_art = tableau_of empty lp [] in
  if not (phase1 t ~first_art) then None
  else
    Some
      {
        rows = Array.init t.m (fun i -> Array.sub t.a.(i) 0 first_art);
        rhs = Array.sub t.b 0 t.m;
        basic = Array.sub t.basis 0 t.m;
        nvars = Lp.num_vars lp;
        nslack = first_art - Lp.num_vars lp;
        constrs = Lp.constraints lp;
      }

let solve ?(start = empty) ?(cuts = []) lp =
  let t, first_art = tableau_of start lp cuts in
  if phase1 t ~first_art then run_phase2 t lp (Lp.num_vars lp) first_art else Infeasible
