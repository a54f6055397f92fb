(* Checked-operation tallies, metric rows, and the benchmark's output:
   a human-readable table, then the result as one JSON line. *)

open Perfbench_helpers

type tally = { mutable ops : int; mutable failed : int; mutable problems : string list }

let tally () = { ops = 0; failed = 0; problems = [] }

(* One operation, failed when any of its checks fails. *)
let judge t checks =
  t.ops <- t.ops + 1;
  match List.filter_map (fun (ok, what) -> if ok then None else Some what) checks with
  | [] -> ()
  | bad ->
    t.failed <- t.failed + 1;
    t.problems <- List.rev_append bad t.problems

type metric = { name : string; unit_ : string; value : float; samples : float list; note : string }

let metric ?(samples = []) ?(note = "") name unit_ value = { name; unit_; value; samples; note }

(* Median of [samples], keeping them for the spread column. *)
let median_of ?note name unit_ samples =
  metric ~samples ?note name unit_ (Stats.median samples)

let print_table title ms =
  Printf.printf "\n%s\n%-30s %16s %-7s %8s %6s  %s\n" title "metric" "value" "unit" "spread" "n"
    "note";
  List.iter
    (fun m ->
      let n = List.length m.samples in
      Printf.printf "%-30s %16.6g %-7s %8s %6s  %s\n" m.name m.value m.unit_
        (if n > 1 then Printf.sprintf "%.1f%%" (100.0 *. Stats.spread m.samples) else "-")
        (if n > 0 then string_of_int n else "-")
        m.note)
    ms

let json_float v =
  if Float.is_nan v then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if v = infinity then "1.7976931348623157e308"
  else Printf.sprintf "%.17g" v

let json_line ~correct ~attempted ~failed ms =
  let field m =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (Spans.json_string m.name)
      (json_float m.value) (Spans.json_string m.unit_)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map field ms))
