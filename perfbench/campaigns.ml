(* campaigns: the two batch consumers of the pWCET laws.
   (a) [pwcet_tool sched analyze]'s calls: [Sched.Campaign.laws], then
       [analyze_set] per set on a pool (what [run_with_laws] does),
       each set timed where it runs.
   (b) [pwcet_tool validate]'s calls per benchmark: [prepare], then per
       mechanism [estimate] and a replay campaign with the analytic
       bound attached ([Pwcet.Validate.check]).
   One operation is one task set or one benchmark's validation. *)

open Perfbench_helpers

let sets_for ~seconds = max 1 (seconds * 4 / 10)

let check_set tally ~refs (r : Sched.Campaign.set_result) =
  let id = Printf.sprintf "set%d" r.Sched.Campaign.set_index in
  Report.judge tally
    [ ( Hashtbl.find_opt refs id = Some [ Sched.Campaign.digest_of_results [ r ] ],
        id ^ ": sched result differs from reference" ) ]

(* Bound never violated, pWCET at least the largest observed time, and
   pWCET equal to the Fig. 4 reference. *)
let validation_checks ~fig4_refs name ~mechanism ~pwcet ~violations ~max_cycles =
  let expected =
    match Hashtbl.find_opt fig4_refs name with
    | Some (_ :: pwcets) ->
      List.nth_opt pwcets
        (Option.get (List.find_index (fun m -> m = mechanism) Inputs.mechanisms))
    | _ -> None
  in
  let label = name ^ "/" ^ Pwcet.Mechanism.short_name mechanism in
  [ (violations = 0, label ^ ": samples exceeded their per-pattern bound");
    (pwcet >= max_cycles, label ^ ": pWCET below an observed time");
    (expected = Some (string_of_int pwcet), label ^ ": pWCET differs from reference") ]

type pass_result = {
  latencies : float list;
  sched_s : float;
  validate_s : float;
  ratios : float list;  (* pWCET / max observed, per (benchmark, mechanism) *)
}

let pass ~jobs ~program_of ~count ~sim_seed tally ~refs ~fig4_refs names =
  let spec = Inputs.campaign_spec ~count in
  let t0 = Proc.now () in
  let laws = Sched.Campaign.laws ~jobs spec in
  let sets =
    Parallel.Pool.map ~jobs
      (fun index ->
        let t = Proc.now () in
        let r, _ = Sched.Campaign.analyze_set spec laws ~index in
        (r, Proc.now () -. t))
      (Array.init count Fun.id)
  in
  let sched_s = Proc.now () -. t0 in
  Array.iter (fun (r, _) -> check_set tally ~refs r) sets;
  let ratios = ref [] in
  let t1 = Proc.now () in
  let validations =
    List.map
      (fun name ->
        let t = Proc.now () in
        let compiled = program_of name in
        let program = compiled.Minic.Compile.program and data = compiled.Minic.Compile.data in
        let task = Pwcet.Estimator.prepare ~program ~config:Inputs.paper_config () in
        let checks =
          List.concat_map
            (fun mechanism ->
              let est = Pwcet.Estimator.estimate task ~pfail:Inputs.pfail ~mechanism ~jobs () in
              let c =
                Pwcet.Validate.check ~program ~data ~est ~samples:Inputs.validation_samples
                  ~seed:sim_seed ~jobs ()
              in
              let r = c.Pwcet.Validate.result in
              let pwcet = Pwcet.Estimator.pwcet est ~target:Inputs.target in
              ratios := (float_of_int pwcet /. float_of_int r.Sim.Campaign.max_cycles) :: !ratios;
              (Pwcet.Validate.ok c, name ^ ": validation failed")
              :: validation_checks ~fig4_refs name ~mechanism ~pwcet
                   ~violations:r.Sim.Campaign.bound_violations ~max_cycles:r.Sim.Campaign.max_cycles)
            Inputs.mechanisms
        in
        let latency = Proc.now () -. t in
        Report.judge tally checks;
        latency)
      names
  in
  { latencies = Array.to_list (Array.map snd sets) @ validations;
    sched_s;
    validate_s = Proc.now () -. t1;
    ratios = !ratios }

(* The same work through the traced layer calls, at jobs=1. *)
let traced_pass ~count ~sim_seed tally ~refs ~fig4_refs names =
  let t = Traced.create () in
  let ratios = ref [] in
  Spans.with_span t.Traced.spans "pass" (fun root ->
      let spec = Inputs.campaign_spec ~count in
      let laws = Traced.call t ~parent:root "sched.laws" (fun () -> Sched.Campaign.laws ~jobs:1 spec) in
      for index = 0 to count - 1 do
        let r =
          Traced.call t ~parent:root "sched.set" (fun () ->
              fst (Sched.Campaign.analyze_set spec laws ~index))
        in
        if r.Sched.Campaign.capped then Traced.count t "sched.capped_sets" 1.0;
        check_set tally ~refs r
      done;
      List.iter
        (fun name ->
          Spans.with_span t.Traced.spans ~parent:root "benchmark" (fun parent ->
              let compiled = Traced.compile t ~parent name in
              let program = compiled.Minic.Compile.program in
              let a =
                Traced.analyse t ~parent ~program ~config:Inputs.paper_config ~engine:`Path
                  ~exact:false ~pfail:Inputs.pfail ~target:Inputs.target
              in
              let checks =
                List.concat_map
                  (fun (m : Traced.mech_result) ->
                    let spec =
                      { Sim.Campaign.program;
                        data = compiled.Minic.Compile.data;
                        config = Inputs.paper_config;
                        mechanism = Pwcet.Validate.sim_mechanism m.Traced.mechanism;
                        pbf = m.Traced.pbf;
                        samples = Inputs.validation_samples;
                        seed = sim_seed;
                        jobs = 1;
                        engine = `Replay;
                        bound =
                          Some
                            { Sim.Campaign.bound_base = a.Traced.wcet_ff;
                              bound_misses = Pwcet.Fmm.table m.Traced.fmm } }
                    in
                    let c = Traced.call t ~parent "sim.prepare" (fun () -> Sim.Campaign.prepare spec) in
                    let r = Traced.call t ~parent "sim.run" (fun () -> Sim.Campaign.run c) in
                    Traced.count t "sim.accesses" (float_of_int r.Sim.Campaign.accesses);
                    Traced.count t "sim.samples" (float_of_int r.Sim.Campaign.samples);
                    Traced.count t "sim.bound_violations"
                      (float_of_int r.Sim.Campaign.bound_violations);
                    ratios :=
                      (float_of_int m.Traced.pwcet /. float_of_int r.Sim.Campaign.max_cycles)
                      :: !ratios;
                    validation_checks ~fig4_refs name ~mechanism:m.Traced.mechanism
                      ~pwcet:m.Traced.pwcet ~violations:r.Sim.Campaign.bound_violations
                      ~max_cycles:r.Sim.Campaign.max_cycles)
                  a.Traced.results
              in
              Report.judge tally checks))
        names);
  (t, !ratios)
