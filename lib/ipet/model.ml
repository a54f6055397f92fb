module Lp = Ilp.Lp
module Chmc = Cache_analysis.Chmc

type t = {
  lp : Lp.t;  (* the flow system alone: never extended in place *)
  graph : Cfg.Graph.t;
  loops : Cfg.Loop.loop list;
  edge_vars : (int * int, Lp.var) Hashtbl.t;
  reachable : bool array;
  start : Ilp.Simplex.start option;
}

let flow_lp graph loops =
  let lp = Lp.create () in
  let n = Cfg.Graph.node_count graph in
  let reachable = Array.make n false in
  Array.iter (fun u -> reachable.(u) <- true) (Cfg.Graph.reverse_postorder graph);
  let edge_vars = Hashtbl.create 64 in
  List.iter
    (fun (u, v) ->
      if reachable.(u) && reachable.(v) then
        Hashtbl.replace edge_vars (u, v)
          (Lp.add_var lp ~name:(Printf.sprintf "e_%d_%d" u v) ()))
    (Cfg.Graph.edges graph);
  let exit_vars = Hashtbl.create 4 in
  List.iter
    (fun u ->
      if reachable.(u) then
        Hashtbl.replace exit_vars u (Lp.add_var lp ~name:(Printf.sprintf "exit_%d" u) ()))
    graph.Cfg.Graph.exits;
  (* Flow conservation: in + [entry] = out + [exit]. *)
  for u = 0 to n - 1 do
    if reachable.(u) then begin
      let in_terms =
        List.filter_map
          (fun p -> Option.map (fun v -> (v, 1)) (Hashtbl.find_opt edge_vars (p, u)))
          (Cfg.Graph.predecessors graph u)
      in
      let out_terms =
        List.filter_map
          (fun s -> Option.map (fun v -> (v, -1)) (Hashtbl.find_opt edge_vars (u, s)))
          (Cfg.Graph.successors graph u)
      in
      let exit_term =
        match Hashtbl.find_opt exit_vars u with Some v -> [ (v, -1) ] | None -> []
      in
      let entry_const = if u = graph.Cfg.Graph.entry then 1 else 0 in
      Lp.add_constr_int lp
        ~name:(Printf.sprintf "flow_%d" u)
        (in_terms @ out_terms @ exit_term)
        Lp.Eq (-entry_const)
    end
  done;
  (* Exactly one exit is taken. *)
  Lp.add_constr_int lp ~name:"sink"
    (Hashtbl.fold (fun _ v acc -> (v, 1) :: acc) exit_vars [])
    Lp.Eq 1;
  (* Loop bounds: sum(back) - bound * sum(entries) <= bound * [header=entry]. *)
  List.iter
    (fun (l : Cfg.Loop.loop) ->
      let back =
        List.filter_map (fun e -> Option.map (fun v -> (v, 1)) (Hashtbl.find_opt edge_vars e)) l.Cfg.Loop.back_edges
      in
      let entries =
        List.filter_map
          (fun e -> Option.map (fun v -> (v, -l.Cfg.Loop.bound)) (Hashtbl.find_opt edge_vars e))
          l.Cfg.Loop.entry_edges
      in
      let const = if l.Cfg.Loop.header = graph.Cfg.Graph.entry then l.Cfg.Loop.bound else 0 in
      Lp.add_constr_int lp
        ~name:(Printf.sprintf "loop_%d" l.Cfg.Loop.header)
        (back @ entries) Lp.Le const)
    loops;
  (lp, edge_vars, reachable)

let build graph loops =
  let lp, edge_vars, reachable = flow_lp graph loops in
  { lp; graph; loops; edge_vars; reachable; start = Ilp.Simplex.start lp }

let graph t = t.graph
let reachable t u = t.reachable.(u)

(* A node's execution count as (linear terms, constant): its incoming
   edges, plus 1 at the entry. *)
let execution_terms t u =
  let terms =
    List.filter_map
      (fun p -> Option.map (fun v -> (v, 1)) (Hashtbl.find_opt t.edge_vars (p, u)))
      (Cfg.Graph.predecessors t.graph u)
  in
  let const = if u = t.graph.Cfg.Graph.entry then 1 else 0 in
  (terms, const)

(* A loop's entry count, likewise. *)
let entry_terms_of_loop t (l : Cfg.Loop.loop) =
  let terms =
    List.filter_map
      (fun e -> Option.map (fun v -> (v, 1)) (Hashtbl.find_opt t.edge_vars e))
      l.Cfg.Loop.entry_edges
  in
  let const = if l.Cfg.Loop.header = t.graph.Cfg.Graph.entry then 1 else 0 in
  (terms, const)

(* How often a first-miss reference of [scope] can pay its miss: once
   per program run, or once per entry of its loop. *)
let scope_cap t = function
  | Chmc.Global -> ([], 1)
  | Chmc.Loop header -> (
    match List.find_opt (fun (l : Cfg.Loop.loop) -> l.Cfg.Loop.header = header) t.loops with
    | Some l -> entry_terms_of_loop t l
    | None -> ([], 1) (* cannot happen: scopes come from the same loop list *))

let path_scope = function
  | Chmc.Global -> Path_engine.Whole_program
  | Chmc.Loop header -> Path_engine.Loop_scope header

(* Saturating arithmetic for the structural bounds: deep loop nests can
   overflow a product of (bound + 1) factors; clamping at [max_int]
   keeps the bound sound (it only ever gets looser). Operands are
   non-negative. *)
let sat_add a b = if a > max_int - b then max_int else a + b
let sat_mul a b = if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b

let execution_count_bound loops u =
  List.fold_left
    (fun acc (l : Cfg.Loop.loop) -> sat_mul acc (sat_add l.Cfg.Loop.bound 1))
    1
    (Cfg.Loop.loops_containing loops u)

(* A fresh [y] with [y <= execution count of node] and [y <= cap]: the
   shape of every first-miss counter. Both rows are [y - sum x <= c]
   with [c >= 0], so they are feasible at any feasible flow basis. *)
let add_capped_counter t lp ~name ~node ~cap =
  let y = Lp.add_var lp ~name () in
  let exec_terms, exec_const = execution_terms t node in
  Lp.add_constr_int lp
    ~name:(name ^ "_exec")
    ((y, 1) :: List.map (fun (v, c) -> (v, -c)) exec_terms)
    Lp.Le exec_const;
  let cap_terms, cap_const = cap in
  Lp.add_constr_int lp
    ~name:(name ^ "_cap")
    ((y, 1) :: List.map (fun (v, c) -> (v, -c)) cap_terms)
    Lp.Le cap_const;
  y

let cost_lp t ~prefix costs =
  let lp = Lp.copy t.lp in
  let coeffs : (Lp.var, int) Hashtbl.t = Hashtbl.create 64 in
  let constant = ref 0 in
  let add_terms terms const factor =
    List.iter
      (fun (v, c) ->
        Hashtbl.replace coeffs v (Option.value ~default:0 (Hashtbl.find_opt coeffs v) + (c * factor)))
      terms;
    constant := !constant + (const * factor)
  in
  List.iter
    (fun (u, per_exec, shots) ->
      List.iteri
        (fun idx (scope, amount) ->
          let y =
            add_capped_counter t lp
              ~name:(Printf.sprintf "%s_%d_%d" prefix u idx)
              ~node:u ~cap:(scope_cap t scope)
          in
          add_terms [ (y, 1) ] 0 amount)
        shots;
      if per_exec > 0 then begin
        let terms, const = execution_terms t u in
        add_terms terms const per_exec
      end)
    costs;
  Lp.set_objective_int lp (Hashtbl.fold (fun v c acc -> (v, c) :: acc) coeffs []);
  (lp, !constant)

let maximize t ?budget ~exact lp = Ilp.Solver.bounded_objective ?budget ~exact ?start:t.start lp
