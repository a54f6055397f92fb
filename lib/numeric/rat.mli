(** Exact rational arithmetic over {!Bigint}.

    Values are kept in canonical form: the denominator is strictly
    positive and coprime with the numerator. This is the number type of
    the exact simplex in [lib/ilp]. Arithmetic on a zero operand or on
    two integers skips the gcd normalisation (its result is canonical
    already), which keeps network-like simplex tableaux cheap. *)

type t

val zero : t
val one : t
val minus_one : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the canonical form of [num/den].
    @raise Division_by_zero when [den] is zero. *)

val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints num den]. @raise Division_by_zero when [den = 0]. *)

val of_bigint : Bigint.t -> t

val num : t -> Bigint.t
val den : t -> Bigint.t
(** Always strictly positive. *)

val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero on a zero divisor. *)

val inv : t -> t
(** @raise Division_by_zero on zero. *)

val min : t -> t -> t
val max : t -> t -> t

val floor : t -> Bigint.t
(** Largest integer [<=] the value (true floor, also for negatives). *)

val ceil : t -> Bigint.t

val to_float : t -> float
val to_int_exn : t -> int
(** @raise Failure when the value is not an integer fitting in [int]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
