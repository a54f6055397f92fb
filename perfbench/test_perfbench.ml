(* Tests for the benchmark's own helpers: the tail-percentile rule,
   self time under nested spans, and the seeded request generator. *)

open Perfbench_helpers

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let test_tail_rule () =
  check "p99 once ten samples lie beyond it" (close (Stats.tail_percentile 1000) 0.99);
  check "p99 capped above 1000 samples" (close (Stats.tail_percentile 5000) 0.99);
  check "highest percentile with ten beyond" (close (Stats.tail_percentile 200) 0.95);
  check "20 samples: the median" (close (Stats.tail_percentile 20) 0.5);
  check "under 20 samples: the maximum" (Stats.tail_percentile 19 = 1.0);
  check "labels" (Stats.tail_label 0.99 = "p99" && Stats.tail_label 1.0 = "max");
  (* 1..1000: p99 is the 990th value, with exactly ten beyond it. *)
  let xs = List.init 1000 (fun i -> float_of_int (i + 1)) in
  let v, p = Stats.tail xs in
  check "tail of 1..1000" (close v 990.0 && close p 0.99);
  let beyond = List.length (List.filter (fun x -> x > v) xs) in
  check "ten samples beyond the tail" (beyond = 10);
  let v, p = Stats.tail [ 3.0; 1.0; 2.0 ] in
  check "tail of a short run is its maximum" (close v 3.0 && p = 1.0);
  check "median, odd" (close (Stats.median [ 5.0; 1.0; 3.0 ]) 3.0);
  check "median, even" (close (Stats.median [ 4.0; 1.0; 3.0; 2.0 ]) 2.5);
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles match Python's exclusive method"
    (close q1 2.75 && close q2 5.5 && close q3 8.25)

let span id ?parent ?(tid = 0) start stop =
  { Spans.id; name = Printf.sprintf "s%d" id; parent; tid; start; stop }

let test_self_time () =
  (* root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9]; c [6,8] and d
     [7,9.5] are children of b from two threads, overlapping, and d
     runs past its parent's end. *)
  let spans =
    [ span 0 0.0 10.0;
      span 1 ~parent:0 1.0 4.0;
      span 2 ~parent:1 2.0 3.0;
      span 3 ~parent:0 5.0 9.0;
      span 4 ~parent:3 ~tid:1 6.0 8.0;
      span 5 ~parent:3 ~tid:2 7.0 9.5 ]
  in
  let self = List.map (fun (s, v) -> (s.Spans.id, v)) (Spans.self_times spans) in
  let self_of id = List.assoc id self in
  check "root self time" (close (self_of 0) 3.0);
  check "nested child self time" (close (self_of 1) 2.0);
  check "leaf self time" (close (self_of 2) 1.0);
  check "overlapping children counted once, clipped to the parent" (close (self_of 3) 1.0);
  (* root, a, a1, b and the union [6,9] of b's children tile [0,10]. *)
  check "self times tile the root"
    (close (self_of 0 +. self_of 1 +. self_of 2 +. self_of 3 +. 3.0) 10.0);
  let by_name = Spans.self_by_name [ span 0 0.0 4.0; { (span 1 ~parent:0 1.0 2.0) with name = "s0" } ] in
  check "self time summed per name" (close (List.assoc "s0" by_name) 4.0);
  let json = Spans.to_chrome_json spans in
  check "chrome trace has one event per span"
    (List.length (List.filter (fun l -> String.starts_with ~prefix:"{\"name\"" l)
                    (String.split_on_char '\n' json))
    = List.length spans)

let test_reqgen () =
  let mix = { Reqgen.keys = 50; repeats = 100; grids = 3; scheds = 2; pings = 7 } in
  let a = Reqgen.generate ~seed:1 mix and b = Reqgen.generate ~seed:1 mix in
  let c = Reqgen.generate ~seed:2 mix in
  check "same seed, same stream" (a = b);
  check "another seed, another stream" (a <> c);
  check "stream length" (Array.length a = 162);
  let seen = Hashtbl.create 64 in
  let ok = ref true in
  Array.iter
    (function
      | Reqgen.Analyze { key; first = true } ->
        if Hashtbl.mem seen key then ok := false;
        Hashtbl.replace seen key ()
      | Reqgen.Analyze { key; first = false } -> if not (Hashtbl.mem seen key) then ok := false
      | _ -> ())
    a;
  check "each key first-seen once, every repeat after it" (!ok && Hashtbl.length seen = 50);
  let counts = List.map (fun (cls, k, _) -> (cls, k)) (Reqgen.shares a) in
  check "class counts"
    (counts
    = [ ("analyze-first", 50); ("analyze-repeat", 100); ("grid", 3); ("sched", 2); ("ping", 7) ])

let () =
  test_tail_rule ();
  test_self_time ();
  test_reqgen ();
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
