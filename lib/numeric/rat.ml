type t = { num : Bigint.t; den : Bigint.t }

let canonical num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
  else begin
    let num, den = if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
    let g = Bigint.gcd num den in
    { num = Bigint.div num g; den = Bigint.div den g }
  end

let make num den = canonical num den
let of_bigint n = { num = n; den = Bigint.one }
let of_int n = of_bigint (Bigint.of_int n)
let of_ints num den = canonical (Bigint.of_int num) (Bigint.of_int den)

let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)

let num t = t.num
let den t = t.den

let sign t = Bigint.sign t.num
let is_zero t = Bigint.is_zero t.num
let is_integer t = Bigint.equal t.den Bigint.one

(* Integer fast path: an integer numerator over 1 is already canonical,
   and so is every result that stays an integer, so these cases skip the
   gcd and the two bignum divisions of [canonical]. *)
let both_integers a b = is_integer a && is_integer b

let compare a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den
     (denominators are positive). *)
  let sa = sign a and sb = sign b in
  if sa <> sb then Stdlib.compare sa sb
  else if sa = 0 then 0
  else if both_integers a b then Bigint.compare a.num b.num
  else Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)

let equal a b = compare a b = 0

let neg t = { t with num = Bigint.neg t.num }
let abs t = { t with num = Bigint.abs t.num }

let add a b =
  if is_zero a then b
  else if is_zero b then a
  else if both_integers a b then of_bigint (Bigint.add a.num b.num)
  else
    canonical
      (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
      (Bigint.mul a.den b.den)

let sub a b = add a (neg b)

let mul a b =
  if is_zero a || is_zero b then zero
  else if both_integers a b then of_bigint (Bigint.mul a.num b.num)
  else canonical (Bigint.mul a.num b.num) (Bigint.mul a.den b.den)

(* Swapping a canonical pair keeps it coprime; only the sign moves. *)
let inv t =
  if is_zero t then raise Division_by_zero;
  if sign t > 0 then { num = t.den; den = t.num }
  else { num = Bigint.neg t.den; den = Bigint.neg t.num }

let div a b =
  if is_zero b then raise Division_by_zero;
  if is_zero a then zero
  else if is_integer b && Bigint.equal b.num Bigint.one then a
  else if both_integers a b then canonical a.num b.num
  else mul a (inv b)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let floor t =
  let q, r = Bigint.divmod t.num t.den in
  if Bigint.sign r < 0 then Bigint.sub q Bigint.one else q

let ceil t =
  let q, r = Bigint.divmod t.num t.den in
  if Bigint.sign r > 0 then Bigint.add q Bigint.one else q

let to_float t = Bigint.to_float t.num /. Bigint.to_float t.den

let to_int_exn t =
  if not (is_integer t) then failwith "Rat.to_int_exn: not an integer";
  Bigint.to_int_exn t.num

let to_string t =
  if is_integer t then Bigint.to_string t.num
  else Bigint.to_string t.num ^ "/" ^ Bigint.to_string t.den

let pp fmt t = Format.pp_print_string fmt (to_string t)
