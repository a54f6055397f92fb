(* Order statistics for the benchmark's reported numbers. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank on an ascending array, [p] in [0, 1]. *)
let nearest_rank a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* The tail percentile a run of [n] samples can support: p99 when at
   least ten samples lie beyond it, else the highest percentile that
   still has ten beyond it. Below 20 samples every such percentile is
   at or under the median, so the maximum is reported instead. *)
let tail_percentile n =
  if n >= 20 then Float.min 0.99 (1.0 -. (10.0 /. float_of_int n)) else 1.0

let tail_label p = if p >= 1.0 then "max" else Printf.sprintf "p%.4g" (p *. 100.0)

(* (value, percentile used) of the tail of [xs]. *)
let tail xs =
  let a = sorted xs in
  let p = tail_percentile (Array.length a) in
  (nearest_rank a p, p)

(* Quartiles with the same method as Python's
   [statistics.quantiles(data, n=4)] ("exclusive"). *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then (nan, nan, nan)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median; 0 below 2 samples. *)
let spread xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let q1, _, q3 = quartiles xs in
    let m = median xs in
    if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

let geomean = function
  | [] -> nan
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))
