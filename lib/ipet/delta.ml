module Lp = Ilp.Lp
module Chmc = Cache_analysis.Chmc
module Context = Cache_analysis.Context
module Rung = Robust.Rung
module E = Robust.Pwcet_error

(* Per-execution miss indicator of a classification (first-miss counts
   through its one-shot variable instead). *)
let per_exec_miss = function
  | Chmc.Always_miss | Chmc.Not_classified -> 1
  | Chmc.Always_hit | Chmc.First_miss _ -> 0

(* Per-node delta in misses-per-execution and the one-shot deltas, for
   references mapping to a set selected by [member]. *)
let node_delta ~graph ~baseline ~degraded ~member u =
  let node = Cfg.Graph.node graph u in
  let per_exec = ref 0 in
  let shots = ref [] in
  for k = 0 to node.Cfg.Graph.len - 1 do
    if member.(Chmc.cache_set baseline ~node:u ~offset:k) then begin
      let base = Chmc.classification baseline ~node:u ~offset:k in
      let degr = degraded ~node:u ~offset:k in
      if base <> degr then begin
        (* Per-execution part, clamped non-negative (the SRB can
           genuinely improve on the baseline; the paper only removes
           misses, never credits). *)
        per_exec := !per_exec + max 0 (per_exec_miss degr - per_exec_miss base);
        (* One-shot part: degraded first-miss where the baseline was
           strictly better (always-hit), or first-miss with a different
           (smaller) scope. The baseline's own one-shot allowance is
           dropped, never subtracted — conservative. *)
        match (degr, base) with
        | Chmc.First_miss scope, (Chmc.Always_hit | Chmc.First_miss _) ->
          shots := (scope, 1) :: !shots
        | _ -> ()
      end
    end
  done;
  (!per_exec, !shots)

(* Shared candidate-node enumeration: with a context, only the sets'
   touching nodes (the others cannot reference the sets, hence
   contribute nothing); otherwise every reachable node. *)
let candidate_nodes ~graph ~sets ?ctx () =
  match ctx with
  | Some ctx ->
    List.concat_map (fun s -> Array.to_list ctx.Context.touching.(s)) sets
    |> List.sort_uniq compare
  | None ->
    let n = Cfg.Graph.node_count graph in
    let reachable = Array.make n false in
    Array.iter (fun u -> reachable.(u) <- true) (Cfg.Graph.reverse_postorder graph);
    List.filter (fun u -> reachable.(u)) (List.init n Fun.id)

let member_of_sets ~config ~sets =
  let member = Array.make config.Cache.Config.sets false in
  List.iter (fun s -> member.(s) <- true) sets;
  member

(* The [Structural] rung for miss deltas: each reference to a selected
   set turns into at most one extra miss per execution of its node, and
   executions are bounded by the loop-bound product. Needs neither a
   degraded classification nor a solver, so it also serves as the
   fallback FMM row for a crashed or deadline-starved worker. *)
let structural_of_candidates ~graph ~loops ~baseline ~member candidates =
  List.fold_left
    (fun acc u ->
      let node = Cfg.Graph.node graph u in
      let refs = ref 0 in
      for k = 0 to node.Cfg.Graph.len - 1 do
        if member.(Chmc.cache_set baseline ~node:u ~offset:k) then incr refs
      done;
      Model.sat_add acc (Model.sat_mul !refs (Model.execution_count_bound loops u)))
    0 candidates

let structural_extra_misses ~graph ~loops ~config ~baseline ~sets ?ctx () =
  let member = member_of_sets ~config ~sets in
  let candidates = candidate_nodes ~graph ~sets ?ctx () in
  structural_of_candidates ~graph ~loops ~baseline ~member candidates

(* The cell's nonzero per-node deltas; candidates are reachable. *)
let node_costs ~graph ~baseline ~degraded ~member candidates =
  List.filter_map
    (fun u ->
      let per_exec, shots = node_delta ~graph ~baseline ~degraded ~member u in
      if per_exec > 0 || shots <> [] then Some (u, per_exec, shots) else None)
    candidates

let cost_lp ~model ~config ~baseline ~degraded ~sets ?ctx () =
  let graph = Model.graph model in
  let member = member_of_sets ~config ~sets in
  match node_costs ~graph ~baseline ~degraded ~member (candidate_nodes ~graph ~sets ?ctx ()) with
  | [] -> None
  | costs -> Some (Model.cost_lp model ~prefix:"dfm" costs)

let extra_misses_ilp ~graph ~loops ~baseline ~degraded ~member ~candidates ~exact ?budget ?model
    () =
  match node_costs ~graph ~baseline ~degraded ~member candidates with
  | [] -> Ok (0, Rung.Exact)
  | costs -> (
    let model = match model with Some m -> m | None -> Model.build graph loops in
    let lp, constant = Model.cost_lp model ~prefix:"dfm" costs in
    match Model.maximize model ?budget ~exact lp with
    | Ok { Ilp.Solver.value; rung } -> Ok (max 0 (value + constant), rung)
    | Error (E.Unbounded _ | E.Budget_exhausted _) ->
      Ok
        ( structural_of_candidates ~graph ~loops ~baseline ~member candidates,
          Rung.Structural )
    | Error e -> Error e)

let extra_misses_path ~graph ~loops ~baseline ~degraded ~member ~candidates =
  let n = Cfg.Graph.node_count graph in
  let per_exec = Array.make n 0 in
  let one_shots = ref [] in
  let any_delta = ref false in
  List.iter
    (fun u ->
      let d, shots = node_delta ~graph ~baseline ~degraded ~member u in
      per_exec.(u) <- d;
      if d > 0 || shots <> [] then any_delta := true;
      List.iter (fun (scope, amount) -> one_shots := (Model.path_scope scope, amount) :: !one_shots) shots)
    candidates;
  if not !any_delta then 0
  else
    Path_engine.longest ~graph ~loops ~node_cost:(fun u -> per_exec.(u)) ~one_shots:!one_shots

let extra_misses_result ~graph ~loops ~config ~baseline ~degraded ~sets ?ctx ?(engine = `Path)
    ?(exact = false) ?budget ?model () =
  let member = member_of_sets ~config ~sets in
  let candidates = candidate_nodes ~graph ~sets ?ctx () in
  match engine with
  | `Path -> Ok (extra_misses_path ~graph ~loops ~baseline ~degraded ~member ~candidates, Rung.Exact)
  | `Ilp ->
    extra_misses_ilp ~graph ~loops ~baseline ~degraded ~member ~candidates ~exact ?budget ?model ()

let extra_misses ~graph ~loops ~config ~baseline ~degraded ~sets ?ctx ?(engine = `Path)
    ?(exact = false) ?model () =
  match
    extra_misses_result ~graph ~loops ~config ~baseline ~degraded ~sets ?ctx ~engine ~exact ?model
      ()
  with
  | Ok (v, _) -> v
  | Error e -> E.raise_error e
