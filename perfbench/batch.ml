(* fig4-path and paper-ilp: the calls [pwcet_tool suite] and [analyze]
   make, once per benchmark: [Estimator.prepare], then
   [Estimator.estimate] per mechanism. One operation is one benchmark
   under all three mechanisms (a suite row, an [analyze] run). *)

open Perfbench_helpers

type t = {
  names : string list;
  engine : [ `Path | `Ilp ];
  exact : bool;
  ref_file : string;
}

let fig4 = { names = Inputs.fig4_benchmarks; engine = `Path; exact = false; ref_file = "fig4.txt" }

let paper_ilp =
  { names = Inputs.ilp_benchmarks; engine = `Ilp; exact = true; ref_file = "paper_ilp.txt" }

let row_fields ~wcet_ff pwcets = string_of_int wcet_ff :: List.map string_of_int pwcets

(* Reference equality, every rung exact, mechanism dominance (SRB and
   RW never above none) and, for the exact ILP, never above the path
   engine's bound. *)
let check_row b tally ~refs ~path_refs name ~wcet_ff results =
  let pwcets = List.map (fun (_, p, _) -> p) results in
  let pwcet_of m = List.find_map (fun (m', p, _) -> if m' = m then Some p else None) results in
  let none = pwcet_of Pwcet.Mechanism.No_protection in
  let dominated m = match (pwcet_of m, none) with Some p, Some n -> p <= n | _ -> false in
  let below_path =
    b.engine = `Path
    ||
    match Hashtbl.find_opt path_refs name with
    | Some (_ :: path) ->
      List.for_all2 (fun p q -> p <= int_of_string q) pwcets path
    | _ -> false
  in
  Report.judge tally
    [ (Hashtbl.find_opt refs name = Some (row_fields ~wcet_ff pwcets), name ^ ": differs from reference");
      ( List.for_all (fun (_, _, r) -> Robust.Rung.equal r Robust.Rung.Exact) results,
        name ^ ": a bound is not exact" );
      ( dominated Pwcet.Mechanism.Shared_reliable_buffer && dominated Pwcet.Mechanism.Reliable_way,
        name ^ ": a mechanism exceeds no protection" );
      (below_path, name ^ ": exact ILP above the path engine") ]

(* One untraced pass; returns each benchmark's latency. *)
let pass b ~jobs ~program_of tally ~refs ~path_refs names =
  List.map
    (fun name ->
      let t0 = Proc.now () in
      let program = program_of name in
      let task =
        Pwcet.Estimator.prepare ~program ~config:Inputs.paper_config ~engine:b.engine
          ~exact:b.exact ()
      in
      let results =
        List.map
          (fun mechanism ->
            let est =
              Pwcet.Estimator.estimate task ~pfail:Inputs.pfail ~mechanism ~engine:b.engine
                ~exact:b.exact ~jobs ()
            in
            (mechanism, Pwcet.Estimator.pwcet est ~target:Inputs.target,
             Pwcet.Estimator.worst_rung est))
          Inputs.mechanisms
      in
      let latency = Proc.now () -. t0 in
      check_row b tally ~refs ~path_refs name ~wcet_ff:(Pwcet.Estimator.fault_free_wcet task)
        results;
      latency)
    names

(* The same work through the traced pipeline, compile included. *)
let traced_pass b tally ~refs ~path_refs names =
  let t = Traced.create () in
  Spans.with_span t.Traced.spans "pass" (fun root ->
      List.iter
        (fun name ->
          Spans.with_span t.Traced.spans ~parent:root "benchmark" (fun parent ->
              let compiled = Traced.compile t ~parent name in
              let a =
                Traced.analyse t ~parent ~program:compiled.Minic.Compile.program
                  ~config:Inputs.paper_config ~engine:b.engine ~exact:b.exact
                  ~pfail:Inputs.pfail ~target:Inputs.target
              in
              check_row b tally ~refs ~path_refs name ~wcet_ff:a.Traced.wcet_ff
                (List.map
                   (fun r -> (r.Traced.mechanism, r.Traced.pwcet, r.Traced.rung))
                   a.Traced.results)))
        names);
  t
