module Rat = Numeric.Rat

type var = int

type relation =
  | Le
  | Ge
  | Eq

type constr = {
  cname : string;
  coeffs : (var * Rat.t) list;
  relation : relation;
  rhs : Rat.t;
}

type t = {
  mutable names : string list;  (* reversed *)
  mutable integer : bool list;  (* reversed *)
  mutable count : int;
  mutable constrs : constr list;  (* reversed *)
  mutable objective : (var * Rat.t) list;
}

let create () = { names = []; integer = []; count = 0; constrs = []; objective = [] }

(* The fields are immutable lists, so a copy shares them and each side
   conses its own additions. *)
let copy t = { t with count = t.count }

let add_var t ?name ?(integer = true) () =
  let id = t.count in
  let name = match name with Some n -> n | None -> Printf.sprintf "x%d" id in
  t.names <- name :: t.names;
  t.integer <- integer :: t.integer;
  t.count <- id + 1;
  id

let check_var t v = if v < 0 || v >= t.count then invalid_arg "Lp: unknown variable"

(* Sum duplicate terms and drop zeros so the tableau stays clean. *)
let normalize_terms t coeffs =
  let tbl = Hashtbl.create (List.length coeffs) in
  List.iter
    (fun (v, c) ->
      check_var t v;
      let prev = Option.value ~default:Rat.zero (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (Rat.add prev c))
    coeffs;
  Hashtbl.fold (fun v c acc -> if Rat.is_zero c then acc else (v, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let add_constr t ?name coeffs relation rhs =
  let cname = match name with Some n -> n | None -> Printf.sprintf "c%d" (List.length t.constrs) in
  t.constrs <- { cname; coeffs = normalize_terms t coeffs; relation; rhs } :: t.constrs

let add_constr_int t ?name coeffs relation rhs =
  add_constr t ?name (List.map (fun (v, c) -> (v, Rat.of_int c)) coeffs) relation (Rat.of_int rhs)

let set_objective t coeffs = t.objective <- normalize_terms t coeffs
let set_objective_int t coeffs = set_objective t (List.map (fun (v, c) -> (v, Rat.of_int c)) coeffs)

let num_vars t = t.count
let var_name t v =
  check_var t v;
  List.nth t.names (t.count - 1 - v)

let is_integer t v =
  check_var t v;
  List.nth t.integer (t.count - 1 - v)

let constraints t = List.rev t.constrs
let objective t = t.objective

let pp_terms t fmt coeffs =
  List.iteri
    (fun i (v, c) ->
      if i > 0 then Format.pp_print_string fmt " + ";
      Format.fprintf fmt "%a %s" Rat.pp c (var_name t v))
    coeffs

let pp fmt t =
  Format.fprintf fmt "maximize: %a@." (pp_terms t) t.objective;
  List.iter
    (fun c ->
      let rel = match c.relation with Le -> "<=" | Ge -> ">=" | Eq -> "=" in
      Format.fprintf fmt "%s: %a %s %a@." c.cname (pp_terms t) c.coeffs rel Rat.pp c.rhs)
    (constraints t)
