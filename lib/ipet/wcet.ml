module Lp = Ilp.Lp
module Chmc = Cache_analysis.Chmc
module Rung = Robust.Rung
module E = Robust.Pwcet_error

type result = {
  wcet : int;
  lp_size : int * int;
}

(* Per-execution fetch cost of a node and the one-shot (first-miss)
   penalties of its references. *)
let node_costs ~graph ~chmc ~config u =
  let node = Cfg.Graph.node graph u in
  let hit = config.Cache.Config.hit_latency in
  let miss = config.Cache.Config.miss_latency in
  let penalty = Cache.Config.miss_penalty config in
  let per_exec = ref 0 in
  let shots = ref [] in
  for k = 0 to node.Cfg.Graph.len - 1 do
    match Chmc.classification chmc ~node:u ~offset:k with
    | Chmc.Always_hit -> per_exec := !per_exec + hit
    | Chmc.First_miss scope ->
      per_exec := !per_exec + hit;
      shots := (scope, penalty) :: !shots
    | Chmc.Always_miss | Chmc.Not_classified -> per_exec := !per_exec + miss
  done;
  (!per_exec, !shots)

(* The bottom rung of the degradation ladder: every fetch pays the full
   miss latency, every node runs its loop-bound-product count. No LP is
   involved, so this bound is available even when the solver cannot
   finish; it dominates both the exact ILP optimum and the relaxation. *)
let structural_bound ~graph ~loops ~config =
  let miss = config.Cache.Config.miss_latency in
  let reachable = Array.make (Cfg.Graph.node_count graph) false in
  Array.iter (fun u -> reachable.(u) <- true) (Cfg.Graph.reverse_postorder graph);
  let total = ref 0 in
  Array.iteri
    (fun u r ->
      if r then begin
        let node = Cfg.Graph.node graph u in
        let per_exec = Model.sat_mul node.Cfg.Graph.len miss in
        total := Model.sat_add !total (Model.sat_mul per_exec (Model.execution_count_bound loops u))
      end)
    reachable;
  !total

let cost_lp ~model ~chmc ~config =
  let graph = Model.graph model in
  let costs =
    List.filter_map
      (fun u ->
        if Model.reachable model u then
          let per_exec, shots = node_costs ~graph ~chmc ~config u in
          Some (u, per_exec, shots)
        else None)
      (List.init (Cfg.Graph.node_count graph) Fun.id)
  in
  Model.cost_lp model ~prefix:"fm" costs

let compute_ilp ~graph ~loops ~chmc ~config ~exact ?budget ?model () =
  let model = match model with Some m -> m | None -> Model.build graph loops in
  let lp, constant = cost_lp ~model ~chmc ~config in
  let lp_size = (Lp.num_vars lp, List.length (Lp.constraints lp)) in
  match Model.maximize model ?budget ~exact lp with
  | Ok { Ilp.Solver.value; rung } ->
    Ok ({ wcet = Model.sat_add value constant; lp_size }, rung)
  | Error (E.Unbounded _ | E.Budget_exhausted _) ->
    (* Both remaining LP rungs are unusable; fall to the structural
       bound, which needs no solver at all. *)
    Ok ({ wcet = structural_bound ~graph ~loops ~config; lp_size }, Rung.Structural)
  | Error e -> Error e

let compute_path ~graph ~loops ~chmc ~config =
  let n = Cfg.Graph.node_count graph in
  let per_exec = Array.make n 0 in
  let one_shots = ref [] in
  let reachable = Array.make n false in
  Array.iter (fun u -> reachable.(u) <- true) (Cfg.Graph.reverse_postorder graph);
  for u = 0 to n - 1 do
    if reachable.(u) then begin
      let cost, shots = node_costs ~graph ~chmc ~config u in
      per_exec.(u) <- cost;
      List.iter (fun (scope, amount) -> one_shots := (Model.path_scope scope, amount) :: !one_shots) shots
    end
  done;
  let wcet =
    Path_engine.longest ~graph ~loops ~node_cost:(fun u -> per_exec.(u)) ~one_shots:!one_shots
  in
  { wcet; lp_size = (0, 0) }

let compute_result ~graph ~loops ~chmc ~config ?(engine = `Path) ?(exact = false) ?budget ?model
    () =
  match engine with
  | `Path -> Ok (compute_path ~graph ~loops ~chmc ~config, Rung.Exact)
  | `Ilp -> compute_ilp ~graph ~loops ~chmc ~config ~exact ?budget ?model ()

let compute ~graph ~loops ~chmc ~config ?(engine = `Path) ?(exact = false) ?budget () =
  match compute_result ~graph ~loops ~chmc ~config ~engine ~exact ?budget () with
  | Ok (r, _) -> r
  | Error e -> E.raise_error e
