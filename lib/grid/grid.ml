module Mechanism = Pwcet.Mechanism
module Estimator = Pwcet.Estimator
module Fmm = Pwcet.Fmm
module Rung = Robust.Rung
module E = Robust.Pwcet_error

type spec = {
  benchmarks : (string * Isa.Program.t) list;
  configs : Cache.Config.t list;
  mechanisms : Mechanism.t list;
  pfail_grid : float list;
  targets : float list;
  engine : [ `Path | `Ilp ];
  exact : bool;
  impl : [ `Naive | `Sliced ];
}

type point = {
  bench : string;
  config : Cache.Config.t;
  mechanism : Mechanism.t;
  pfail : float;
}

type cell = {
  point : point;
  wcet_ff : int;
  pbf : float;
  pwcets : (float * int) list;
  rung : Rung.t;
  degraded : int;
}

let panel_key bench config =
  Printf.sprintf "%s/%dx%dx%d+%d+%d" bench config.Cache.Config.sets config.Cache.Config.ways
    config.Cache.Config.line_bytes config.Cache.Config.hit_latency
    config.Cache.Config.miss_latency

let point_key p =
  Printf.sprintf "%s/%s/%s" (panel_key p.bench p.config) (Mechanism.short_name p.mechanism)
    (Store.Artifact.float_key p.pfail)

(* Canonical cell order: benchmark x geometry x mechanism x pfail, each
   axis in spec order.  Every consumer — the DAG result merge, the
   digest, the journal replay, the JSON matrix — walks cells in this
   order, which is what makes outputs comparable byte-for-byte across
   runs, processes and job counts. *)
let points spec =
  List.concat_map
    (fun (bench, _) ->
      List.concat_map
        (fun config ->
          List.concat_map
            (fun mechanism ->
              List.map (fun pfail -> { bench; config; mechanism; pfail }) spec.pfail_grid)
            spec.mechanisms)
        spec.configs)
    spec.benchmarks

(* Labelled content identity of the whole grid — program digests,
   geometries, axes and engine flags — for resume-journal run keys and
   daemon request dedup.  Reuses the per-(program, geometry) identity
   the estimator derives, so anything that would change a cell's value
   changes the grid's key. *)
let identity spec =
  List.concat_map
    (fun (name, program) ->
      List.concat_map
        (fun config -> ("bench", name) :: Estimator.identity_of ~program ~config)
        spec.configs)
    spec.benchmarks
  @ [ ("mechanisms", String.concat "," (List.map Mechanism.short_name spec.mechanisms));
      ("pfail-grid", String.concat "," (List.map Store.Artifact.float_key spec.pfail_grid));
      ("targets", String.concat "," (List.map Store.Artifact.float_key spec.targets));
      ("engine", Estimator.engine_tag spec.engine);
      ("exact", string_of_bool spec.exact);
      ("impl", Estimator.impl_tag spec.impl) ]

(* --- canonical cell serialization (journal payloads, digests) ----------- *)

let cell_to_wire c =
  let w = Store.Wire.writer () in
  Store.Wire.put_string w c.point.bench;
  Store.Wire.put_int w c.point.config.Cache.Config.sets;
  Store.Wire.put_int w c.point.config.Cache.Config.ways;
  Store.Wire.put_int w c.point.config.Cache.Config.line_bytes;
  Store.Wire.put_int w c.point.config.Cache.Config.hit_latency;
  Store.Wire.put_int w c.point.config.Cache.Config.miss_latency;
  Store.Wire.put_string w (Mechanism.short_name c.point.mechanism);
  Store.Wire.put_float w c.point.pfail;
  Store.Wire.put_int w c.wcet_ff;
  Store.Wire.put_float w c.pbf;
  Store.Wire.put_int w (List.length c.pwcets);
  List.iter
    (fun (target, value) ->
      Store.Wire.put_float w target;
      Store.Wire.put_int w value)
    c.pwcets;
  Store.Wire.put_int w (Rung.to_tag c.rung);
  Store.Wire.put_int w c.degraded;
  Store.Wire.contents w

let cell_of_wire data =
  Store.Wire.decode data (fun r ->
      let bench = Store.Wire.get_string r in
      let sets = Store.Wire.get_int r in
      let ways = Store.Wire.get_int r in
      let line_bytes = Store.Wire.get_int r in
      let hit_latency = Store.Wire.get_int r in
      let miss_latency = Store.Wire.get_int r in
      let config =
        match Cache.Config.make ~sets ~ways ~line_bytes ~hit_latency ~miss_latency () with
        | c -> c
        | exception Invalid_argument msg -> Store.Wire.malformed msg
      in
      let mechanism =
        match Mechanism.of_string (Store.Wire.get_string r) with
        | Some m -> m
        | None -> Store.Wire.malformed "Grid.cell_of_wire: unknown mechanism"
      in
      let pfail = Store.Wire.get_float r in
      let wcet_ff = Store.Wire.get_int r in
      if wcet_ff < 0 then Store.Wire.malformed "Grid.cell_of_wire: negative WCET";
      let pbf = Store.Wire.get_float r in
      let n = Store.Wire.get_int r in
      if n < 0 || n > 1024 then Store.Wire.malformed "Grid.cell_of_wire: implausible target count";
      let pwcets =
        List.init n (fun _ ->
            let target = Store.Wire.get_float r in
            let value = Store.Wire.get_int r in
            if value < 0 then Store.Wire.malformed "Grid.cell_of_wire: negative pWCET";
            (target, value))
      in
      let rung =
        match Rung.of_tag (Store.Wire.get_int r) with
        | Some rung -> rung
        | None -> Store.Wire.malformed "Grid.cell_of_wire: unknown rung tag"
      in
      let degraded = Store.Wire.get_int r in
      if degraded < 0 then Store.Wire.malformed "Grid.cell_of_wire: negative degraded count";
      { point = { bench; config; mechanism; pfail }; wcet_ff; pbf; pwcets; rung; degraded })

let digest results =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (point, r) ->
      match r with
      | Ok cell -> Buffer.add_string buf (cell_to_wire cell)
      | Error e ->
        Buffer.add_string buf (point_key point);
        Buffer.add_string buf (E.category e);
        Buffer.add_string buf (E.message e))
    results;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- the one-pass evaluator --------------------------------------------- *)

(* DAG node values: each (benchmark, geometry) panel contributes one
   prepare node (CFG, context, CHMC, fault-free WCET — shared by every
   mechanism and pfail at that geometry), one multi-mechanism FMM node
   (the f < W row prefixes are mechanism-independent, so all
   mechanisms' maps cost roughly one), and one cheap node per
   (mechanism, pfail) cell (binomial reweight + convolution +
   quantiles).  The DAG itself is the parallelism, and every stage
   inside a node runs at jobs:1 — unless fewer panels need computing
   than there are domains.  Then the DAG runs on one domain per panel
   and each node's own fan-out (the FMM's per-set analyses, the
   penalty's per-set builds) gets [jobs / panels]: a single-panel grid
   is then as parallel as a standalone estimate, with no DAG worker
   idling beside the FMM's own domains (measured ~15% slower at jobs
   2 on one panel), and a wide grid never nests fan-outs. *)
type value =
  | Panel of Estimator.task * (Mechanism.t * Fmm.t) list
  | Cell of cell

let run ?(jobs = 1) ?budget ?store ?skip ?on_cell ?chaos spec =
  let skip = match skip with Some f -> f | None -> fun _ -> None in
  (* Each canonical point resolves to either its replayed cell or the
     DAG node that computes it. *)
  let slots =
    List.map
      (fun point ->
        match skip point with Some cell -> `Replayed (point, cell) | None -> `Node point)
      (points spec)
  in
  let panels_to_compute =
    List.sort_uniq compare
      (List.filter_map
         (function `Node p -> Some (panel_key p.bench p.config) | `Replayed _ -> None)
         slots)
  in
  let n_panels = List.length panels_to_compute in
  let dag_jobs, inner_jobs =
    if n_panels > 0 && n_panels < jobs then (n_panels, jobs / n_panels) else (jobs, 1)
  in
  let nodes = ref [] in
  let n_nodes = ref 0 in
  let push node =
    let idx = !n_nodes in
    nodes := node :: !nodes;
    incr n_nodes;
    idx
  in
  let panel_index : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let programs = Hashtbl.create 16 in
  List.iter (fun (name, program) -> Hashtbl.replace programs name program) spec.benchmarks;
  (* A panel node is created lazily, only when some cell of that panel
     actually needs computing — a fully replayed panel costs nothing. *)
  let panel_node bench config =
    let key = panel_key bench config in
    match Hashtbl.find_opt panel_index key with
    | Some idx -> idx
    | None ->
      let program = Hashtbl.find programs bench in
      let idx =
        push
          {
            Parallel.Pool.deps = [||];
            run =
              (fun _ ->
                let task =
                  Estimator.prepare ~program ~config ~engine:spec.engine ~exact:spec.exact
                    ?budget ?store ()
                in
                let fmms =
                  Estimator.fmm_grid task ~mechanisms:spec.mechanisms ~engine:spec.engine
                    ~exact:spec.exact ~jobs:inner_jobs ~impl:spec.impl ?budget ?store ()
                in
                Panel (task, fmms));
          }
      in
      Hashtbl.replace panel_index key idx;
      idx
  in
  let resolved =
    List.map
      (fun slot ->
        match slot with
        | `Replayed (point, cell) -> `Replayed (point, cell)
        | `Node point ->
          let panel = panel_node point.bench point.config in
          let idx =
            push
              {
                Parallel.Pool.deps = [| panel |];
                run =
                  (fun deps ->
                    let task, fmms =
                      match deps.(0) with Panel (t, f) -> (t, f) | Cell _ -> assert false
                    in
                    let _, fmm =
                      List.find (fun (m, _) -> Mechanism.equal m point.mechanism) fmms
                    in
                    let e =
                      Estimator.estimate_of_fmm task ~fmm ~pfail:point.pfail
                        ~engine:spec.engine ~exact:spec.exact ~jobs:inner_jobs ~impl:spec.impl
                        ?budget ?store ()
                    in
                    let cell =
                      {
                        point;
                        wcet_ff = Estimator.fault_free_wcet task;
                        pbf = e.Estimator.pbf;
                        pwcets =
                          List.map
                            (fun target -> (target, Estimator.pwcet e ~target))
                            spec.targets;
                        rung = Estimator.worst_rung e;
                        degraded = Fmm.degraded_cells fmm;
                      }
                    in
                    (match on_cell with Some f -> f cell e | None -> ());
                    Cell cell);
              }
          in
          `Computed (point, idx))
      slots
  in
  let node_array = Array.of_list (List.rev !nodes) in
  (* The budget is threaded into every stage (prepare, FMM, penalty),
     each of which degrades internally and completes — a starved grid
     yields looser cells, not missing ones.  [run_dag]'s own deadline
     refusal is deliberately not armed here for that reason. *)
  let outcomes = Parallel.Pool.run_dag ?chaos ~jobs:dag_jobs node_array in
  List.map
    (fun slot ->
      match slot with
      | `Replayed (point, cell) -> (point, Ok cell)
      | `Computed (point, idx) -> (
        match outcomes.(idx) with
        | Ok (Cell cell) -> (point, Ok cell)
        | Ok (Panel _) -> assert false
        | Error e -> (point, Error e)))
    resolved
