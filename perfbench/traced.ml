(* The traced pipeline: the calls [Pwcet.Estimator.prepare] and
   [estimate] make, issued one by one through each layer's public
   function and timed from outside. A span wraps every call; the
   layer's [Gc.minor_words] delta is counted around it. [Gc.minor_words]
   sees the calling domain only, so traced passes run at jobs=1, where
   it covers all the work and repeats exactly. *)

open Perfbench_helpers

type t = { spans : Spans.t; counters : (string, float) Hashtbl.t }

let create () = { spans = Spans.create (); counters = Hashtbl.create 32 }

let count t name v =
  Hashtbl.replace t.counters name (v +. Option.value ~default:0.0 (Hashtbl.find_opt t.counters name))

let layer_of name = String.sub name 0 (String.index name '.')

let call t ~parent name f =
  let w0 = Gc.minor_words () in
  let v = Spans.with_span t.spans ~parent name (fun _ -> f ()) in
  count t (layer_of name ^ ".minor_words") (Gc.minor_words () -. w0);
  v

let compile t ~parent name = call t ~parent "minic.compile" (fun () -> Inputs.compile name)

type mech_result = {
  mechanism : Pwcet.Mechanism.t;
  pwcet : int;
  rung : Robust.Rung.t;
  fmm : Pwcet.Fmm.t;
  pbf : float;
}

type analysis = { wcet_ff : int; results : mech_result list }

let analyse t ~parent ~program ~config ~engine ~exact ~pfail ~target =
  let graph, loops =
    call t ~parent "cfg.build" (fun () ->
        let graph = Cfg.Graph.build program in
        (graph, Cfg.Loop.detect graph))
  in
  count t "cfg.nodes" (float_of_int (Cfg.Graph.node_count graph));
  let ctx =
    call t ~parent "cache_analysis.context" (fun () ->
        Cache_analysis.Context.make ~graph ~loops ~config)
  in
  let chmc =
    call t ~parent "cache_analysis.chmc" (fun () ->
        Cache_analysis.Chmc.analyze ~ctx ~graph ~loops ~config ())
  in
  let result, wcet_rung =
    call t ~parent "ipet.wcet" (fun () ->
        match Ipet.Wcet.compute_result ~graph ~loops ~chmc ~config ~engine ~exact () with
        | Ok r -> r
        | Error e -> Robust.Pwcet_error.raise_error e)
  in
  let vars, rows = result.Ipet.Wcet.lp_size in
  count t "ipet.lp_vars" (float_of_int vars);
  count t "ipet.lp_rows" (float_of_int rows);
  let wcet_ff = result.Ipet.Wcet.wcet in
  let results =
    List.map
      (fun mechanism ->
        let fmm =
          call t ~parent "fmm.compute" (fun () ->
              Pwcet.Fmm.compute ~graph ~loops ~config ~mechanism ~engine ~exact ~jobs:1
                ~impl:`Sliced ~ctx ~baseline:chmc ())
        in
        count t "fmm.cells"
          (float_of_int (config.Cache.Config.sets * (config.Cache.Config.ways + 1)));
        count t "fmm.degraded_cells" (float_of_int (Pwcet.Fmm.degraded_cells fmm));
        let pbf = Fault.Model.pbf_of_config ~pfail config in
        let penalty =
          call t ~parent "penalty.total" (fun () ->
              Pwcet.Penalty.total_distribution ~jobs:1 ~fmm ~pbf ())
        in
        count t "penalty.support_points" (float_of_int (Prob.Dist.size penalty));
        let q = call t ~parent "prob.quantile" (fun () -> Prob.Dist.quantile penalty ~target) in
        { mechanism;
          pwcet = wcet_ff + q;
          rung = Robust.Rung.worst wcet_rung (Pwcet.Fmm.worst_rung fmm);
          fmm;
          pbf })
      Inputs.mechanisms
  in
  { wcet_ff; results }

(* The layer spans whose self time is a per-layer metric. *)
let layer_spans =
  [ "minic.compile"; "cfg.build"; "cache_analysis.context"; "cache_analysis.chmc"; "ipet.wcet";
    "fmm.compute"; "penalty.total"; "prob.quantile"; "sched.laws"; "sched.set"; "sim.prepare";
    "sim.run" ]
