(** Linear/integer programming models.

    Variables are non-negative rationals (optionally marked integer);
    the objective is always maximisation — the IPET convention. This is
    the model layer the exact simplex ({!Simplex}) and branch-and-bound
    ({!Branch_bound}) operate on; it replaces the Cplex dependency of
    the paper's toolchain. *)

type var = int

type relation =
  | Le
  | Ge
  | Eq

type constr = {
  cname : string;
  coeffs : (var * Numeric.Rat.t) list;
  relation : relation;
  rhs : Numeric.Rat.t;
}

type t

val create : unit -> t

val copy : t -> t
(** An independent model with the same variables, constraints and
    objective. O(1): both share the existing constraint records, so the
    copy's system physically extends the original's (what
    {!Simplex.solve} [~start] requires). Reading a model is safe from
    several domains; keep additions to one copy per domain. *)

val add_var : t -> ?name:string -> ?integer:bool -> unit -> var
(** A fresh non-negative variable (default: integer). *)

val add_constr :
  t -> ?name:string -> (var * Numeric.Rat.t) list -> relation -> Numeric.Rat.t -> unit
(** Terms with duplicate variables are summed; zero coefficients are
    dropped. @raise Invalid_argument on an unknown variable. *)

val add_constr_int : t -> ?name:string -> (var * int) list -> relation -> int -> unit

val set_objective : t -> (var * Numeric.Rat.t) list -> unit
val set_objective_int : t -> (var * int) list -> unit

val num_vars : t -> int
val var_name : t -> var -> string
val is_integer : t -> var -> bool
val constraints : t -> constr list
(** In insertion order. *)

val objective : t -> (var * Numeric.Rat.t) list

val pp : Format.formatter -> t -> unit
(** LP-file-style dump, for debugging. *)
