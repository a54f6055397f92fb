(* The workloads' inputs and the reference outputs stored beside them. *)

let pfail = 1e-4
let target = 1e-15
let mechanisms = Pwcet.Mechanism.all
let config_of (sets, ways, line) = Cache.Config.make ~sets ~ways ~line_bytes:line ()
let paper_config = config_of (16, 4, 16)

let compile name =
  match Benchmarks.Registry.find name with
  | Some e -> Minic.Compile.compile e.Benchmarks.Registry.program
  | None -> invalid_arg ("unknown benchmark " ^ name)

(* The seed only orders the benchmarks of the fixed paper workloads. *)
let seeded_order ~seed names =
  let st = Random.State.make [| 0x04de; seed |] in
  let a = Array.of_list names in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* --- fig4-path, paper-ilp, campaigns ------------------------------------- *)

let fig4_benchmarks = Benchmarks.Registry.names
let ilp_benchmarks = [ "adpcm"; "jfdctint"; "fft" ]
let campaign_benchmarks = [ "nsichneu"; "fft"; "statemate"; "edn"; "adpcm" ]

(* The CLI's [sched analyze] defaults (RM, SRB, 512-point cap, k_max 3,
   seed 42) on 3-task sets. The sets are fixed: their analysis costs
   range from 0.01 s to 9 s, so a seeded draw of the few a run can
   afford would measure the draw, not the code. *)
let campaign_spec ~count =
  match Sched.Campaign.make ~count ~n_tasks:3 ~benchmarks:campaign_benchmarks () with
  | Ok spec -> spec
  | Error msg -> invalid_arg msg

let validation_samples = 200_000

(* --- daemon-mix ------------------------------------------------------------ *)

let key_geometries = [| (16, 4, 16); (64, 4, 16) |]
let key_pfails = [| 1e-5; 1e-4; 1e-3 |]
let key_mechanisms = Array.of_list mechanisms
(* The registry minus the three programs whose cold 64-set analysis
   alone takes 0.9-2.4 s (cover, fft, nsichneu): they would turn the
   stream into an analysis benchmark, which fig4-path already is. *)
let key_benchmarks =
  Array.of_list
    (List.filter
       (fun b -> not (List.mem b [ "cover"; "fft"; "nsichneu" ]))
       Benchmarks.Registry.names)

let n_keys =
  Array.length key_benchmarks * Array.length key_mechanisms * Array.length key_pfails
  * Array.length key_geometries

type key = { bench : string; mechanism : Pwcet.Mechanism.t; kpfail : float; geometry : int * int * int }

let key i =
  let ng = Array.length key_geometries and np = Array.length key_pfails in
  let nm = Array.length key_mechanisms in
  { geometry = key_geometries.(i mod ng);
    kpfail = key_pfails.(i / ng mod np);
    mechanism = key_mechanisms.(i / (ng * np) mod nm);
    bench = key_benchmarks.(i / (ng * np * nm)) }

let key_id k =
  let s, w, l = k.geometry in
  Printf.sprintf "%s/%s/%g/%dx%dx%d" k.bench (Pwcet.Mechanism.short_name k.mechanism) k.kpfail s w
    l

let analyze_request k =
  let sets, ways, line = k.geometry in
  { (Service.Protocol.default_analyze ~bench:k.bench) with
    Service.Protocol.pfail = k.kpfail;
    mechanism = k.mechanism;
    sets;
    ways;
    line }

(* Bulk grids: four pairs of key benchmarks, both key geometries, every
   mechanism, the CLI's four-point pfail grid. *)
let grid_catalogue =
  Array.init 4 (fun i ->
      let benchmarks = [ key_benchmarks.(2 * i); key_benchmarks.((2 * i) + 1) ] in
      { (Service.Protocol.default_grid ~benchmarks) with
        Service.Protocol.g_geometries = Array.to_list key_geometries })

let grid_spec (g : Service.Protocol.grid) =
  { Grid.benchmarks =
      List.map (fun b -> (b, (compile b).Minic.Compile.program)) g.Service.Protocol.g_benchmarks;
    configs = List.map config_of g.g_geometries;
    mechanisms = g.g_mechanisms;
    pfail_grid = g.g_pfails;
    targets = g.g_targets;
    engine = g.g_engine;
    exact = g.g_exact;
    impl = g.g_impl }

(* Bulk sched ops: two 3-task sets at a 64-point cap over a window of
   four registry benchmarks. *)
let sched_catalogue =
  Array.init 6 (fun i ->
      let names = key_benchmarks in
      let n = Array.length names in
      { Service.Protocol.default_sched with
        Service.Protocol.count = 2;
        n_tasks = 3;
        seed = 100 + i;
        max_points = 64;
        benchmarks = List.init 4 (fun j -> names.(((3 * i) + j) mod n)) })

let sched_spec (s : Service.Protocol.sched) =
  match
    Sched.Campaign.make ~count:s.Service.Protocol.count ~n_tasks:s.n_tasks
      ~utilisation:s.utilisation ~seed:s.seed ~policy:s.policy ~reexec_budget:s.reexec
      ~k_max:s.k_max ~targets:s.targets ~pfail:s.s_pfail ~mechanism:s.s_mechanism ~sets:s.s_sets
      ~ways:s.s_ways ~line:s.s_line ~fault_rate:s.fault_rate ~clock_mhz:s.clock_mhz
      ~rep_target:s.rep_target ~max_points:s.max_points ~benchmarks:s.benchmarks ()
  with
  | Ok spec -> spec
  | Error msg -> invalid_arg msg

(* --- stored references ----------------------------------------------------- *)

(* One record per line: an id, then its fields, space-separated. *)
let ref_dir = ref "perfbench/ref"

let load_ref name =
  let tbl = Hashtbl.create 64 in
  In_channel.with_open_text (Filename.concat !ref_dir name) (fun ic ->
      Seq.iter
        (fun line ->
          match String.split_on_char ' ' (String.trim line) with
          | id :: fields when id <> "" && id.[0] <> '#' -> Hashtbl.replace tbl id fields
          | _ -> ())
        (Seq.of_dispenser (fun () -> In_channel.input_line ic)));
  tbl

let save_ref name ~header rows =
  Out_channel.with_open_text (Filename.concat !ref_dir name) (fun oc ->
      Printf.fprintf oc "# %s\n" header;
      List.iter (fun (id, fields) -> Printf.fprintf oc "%s %s\n" id (String.concat " " fields)) rows)
