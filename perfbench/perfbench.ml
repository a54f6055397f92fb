(* The pWCET pipeline benchmark: one run of one workload, printing every
   metric by name and unit, then the result as one JSON line. See
   perfbench/README.md for the workloads and metrics. *)

open Perfbench_helpers

let workloads = [ "fig4-path"; "paper-ilp"; "daemon-mix"; "campaigns" ]

let programs_of = function
  | "fig4-path" -> Inputs.fig4_benchmarks
  | "paper-ilp" -> Inputs.ilp_benchmarks
  | "campaigns" -> Inputs.campaign_benchmarks
  | _ -> []

(* --- set-up ---------------------------------------------------------------- *)

(* Batch set-up: process start plus compiling the workload's programs,
   measured from spawn to the child's "ready" line. *)
let setup_probe workload =
  List.iter (fun name -> ignore (Inputs.compile name)) (programs_of workload);
  print_endline "ready";
  exit 0

let setup_runs = 15

let batch_setup workload =
  List.init setup_runs (fun _ ->
      Proc.time_until_ready [| Sys.executable_name; "--setup-probe"; workload |])

(* --- metrics --------------------------------------------------------------- *)

let end_to_end ~setup ~walls ~cpus ~rss ~latencies ~throughputs =
  let lat_ms = List.map (fun l -> l *. 1000.0) latencies in
  let n = List.length lat_ms in
  let tail, p = Stats.tail lat_ms in
  [ Report.median_of "setup_s" "s" setup;
    Report.median_of "wall_s" "s" walls;
    Report.median_of "cpu_s" "s" cpus;
    Report.median_of "peak_rss_mb" "MiB" rss;
    Report.metric "lat_p50_ms" "ms" (Stats.median lat_ms)
      ~note:(Printf.sprintf "median of %d operations" n);
    Report.metric "lat_p99_ms" "ms" tail
      ~note:(Printf.sprintf "%s of %d operations" (Stats.tail_label p) n);
    Report.median_of "throughput_rps" "1/s" throughputs ]

let per_layer_names =
  [ ("minic.compile_s", "s"); ("minic.minor_words", "count");
    ("cfg.build_s", "s"); ("cfg.nodes", "count"); ("cfg.minor_words", "count");
    ("cache_analysis.context_s", "s"); ("cache_analysis.chmc_s", "s");
    ("cache_analysis.minor_words", "count");
    ("ipet.wcet_s", "s"); ("ipet.lp_vars", "count"); ("ipet.lp_rows", "count");
    ("ipet.minor_words", "count");
    ("fmm.compute_s", "s"); ("fmm.cells", "count"); ("fmm.degraded_cells", "count");
    ("fmm.minor_words", "count");
    ("penalty.total_s", "s"); ("penalty.support_points", "count"); ("penalty.minor_words", "count");
    ("prob.quantile_s", "s"); ("prob.minor_words", "count");
    ("store.hits", "count"); ("store.misses", "count"); ("store.puts", "count");
    ("store.hit_ratio", "ratio"); ("store.bytes", "bytes");
    ("service.ping_ms", "ms"); ("service.analyze_warm_ms", "ms"); ("service.analyze_cold_ms", "ms");
    ("service.grid_ms", "ms"); ("service.sched_ms", "ms"); ("service.computations", "count");
    ("service.deduped", "count"); ("service.overloaded", "count");
    ("service.compute_ratio", "ratio");
    ("sched.laws_s", "s"); ("sched.set_s", "s"); ("sched.capped_sets", "count");
    ("sched.minor_words", "count");
    ("sim.prepare_s", "s"); ("sim.run_s", "s"); ("sim.samples_per_s", "1/s");
    ("sim.bound_violations", "count"); ("sim.accesses", "count"); ("sim.minor_words", "count");
    ("sim.pwcet_over_observed", "ratio");
    ("trace.unattributed_s", "s"); ("trace.overhead_ratio", "ratio");
    ("error_ratio", "ratio") ]

(* Every per-layer metric; a layer the workload does not touch reads 0. *)
let per_layer values =
  List.map
    (fun (name, unit_) ->
      Report.metric name unit_ (Option.value ~default:0.0 (List.assoc_opt name values)))
    per_layer_names

let mean = function [] -> 0.0 | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let pass_span_duration (t : Traced.t) =
  List.fold_left
    (fun acc (s : Spans.span) -> if s.Spans.name = "pass" then acc +. Spans.duration s else acc)
    0.0 (Spans.spans t.Traced.spans)

(* Per-layer self times, counters and the breakdown's sanity checks
   from traced passes of identical work; [reference_wall] is the same
   work untraced. The counters must repeat exactly across the passes. *)
let traced_values (passes : Traced.t list) ~reference_wall =
  let self = List.map (fun (t : Traced.t) -> Spans.self_by_name (Spans.spans t.Traced.spans)) passes in
  let layer_self name = mean (List.map (fun s -> Option.value ~default:0.0 (List.assoc_opt name s)) self) in
  let layer_times = List.map (fun name -> (name ^ "_s", layer_self name)) Traced.layer_spans in
  let totals = List.map pass_span_duration passes in
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layer_times in
  let counters (t : Traced.t) =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.Traced.counters [])
  in
  let first = counters (List.hd passes) in
  let repeat = List.for_all (fun t -> counters t = first) passes in
  List.iter
    (fun t ->
      List.iter
        (fun (k, v) ->
          if List.assoc_opt k first <> Some v then
            Printf.printf "counter %s did not repeat: %.0f\n" k v)
        (counters t))
    (List.tl passes);
  ( layer_times @ first
    @ [ ("trace.unattributed_s", mean totals -. attributed);
        ("trace.overhead_ratio", mean totals /. reference_wall) ],
    repeat )

let error_ratio (t : Report.tally) = float_of_int t.Report.failed /. float_of_int t.Report.ops

let print_self_table values =
  Printf.printf "\nper-layer self time (traced, jobs=1)\n";
  List.iter
    (fun name ->
      match List.assoc_opt (name ^ "_s") values with
      | Some v when v > 0.0 -> Printf.printf "  %-24s %10.4f s\n" name v
      | _ -> ())
    Traced.layer_spans;
  Printf.printf "  %-24s %10.4f s\n" "(unattributed)"
    (Option.value ~default:0.0 (List.assoc_opt "trace.unattributed_s" values))

let write_trace ~out_dir ~workload ~seed (t : Traced.t) =
  Proc.mkdir_p out_dir;
  let path = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" workload seed) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Spans.to_chrome_json (Spans.spans t.Traced.spans)));
  Printf.printf "trace written to %s\n" path

(* Host CPU steal during the measured passes: not a metric of the
   program, but the main source of run-to-run spread on shared VMs. *)
let steal_row steals ~ran =
  Report.median_of "host_steal" "ratio" steals
    ~note:
      (Printf.sprintf "share of CPU time the hypervisor stole, max %.3f; kept %d of %d passes"
         (List.fold_left Float.max 0.0 steals) (List.length steals) ran)

(* --- workloads ------------------------------------------------------------- *)

type outcome = { metrics : Report.metric list; extra : Report.metric list; tally : Report.tally; sound : bool }

type measured = { wall : float; cpu : float; rss_mb : float; steal : float }

(* One pass: wall and CPU time, the process's peak RSS during it, and
   the share of CPU time the hypervisor stole meanwhile. *)
let timed f =
  Proc.reset_peak_rss ();
  let k0 = Proc.cpu_ticks () in
  let c0 = Proc.self_cpu_s () and t0 = Proc.now () in
  let v = f () in
  let wall = Proc.now () -. t0 and cpu = Proc.self_cpu_s () -. c0 in
  let steal = Proc.steal_share k0 (Proc.cpu_ticks ()) in
  (v, { wall; cpu; rss_mb = Proc.peak_rss_mb "self"; steal })

(* Runs passes until [planned] of them saw under 5% host CPU steal, or
   a quarter as many again (at least one more) have run, and keeps the
   [planned] passes with the least steal. Steal is the hypervisor
   running other machines on this machine's CPUs: noise from outside
   the program, which on a shared VM swings whole runs by up to 2x. *)
let least_stolen ~planned ~steal run =
  let cap = planned + max 1 (planned / 4) in
  let rec go acc n quiet =
    if n >= cap || quiet >= planned then List.rev acc
    else
      let r = run () in
      go (r :: acc) (n + 1) (if steal r < 0.05 then quiet + 1 else quiet)
  in
  let all = go [] 0 0 in
  let kept =
    List.filteri (fun i _ -> i < planned)
      (List.stable_sort (fun a b -> Float.compare (steal a) (steal b)) all)
  in
  (kept, List.length all)

let batch_of = function "paper-ilp" -> Batch.paper_ilp | _ -> Batch.fig4

let run_batch workload ~seed ~seconds ~trace ~out_dir =
  let b = batch_of workload in
  let names = Inputs.seeded_order ~seed b.Batch.names in
  let refs = Inputs.load_ref b.Batch.ref_file and path_refs = Inputs.load_ref "fig4.txt" in
  let tally = Report.tally () in
  if not trace then begin
    let setup = batch_setup workload in
    let programs = List.map (fun n -> (n, (Inputs.compile n).Minic.Compile.program)) names in
    let program_of n = List.assoc n programs in
    (* A fixed number of passes per run, sized from --seconds on a
       2-core box, so sample counts and percentiles match across
       commits. *)
    let n_passes = match workload with "paper-ilp" -> max 1 (seconds / 5) | _ -> max 2 (seconds * 8 / 5) in
    let passes, ran =
      least_stolen ~planned:n_passes ~steal:(fun (_, m) -> m.steal) (fun () ->
          timed (fun () -> Batch.pass b ~jobs:2 ~program_of tally ~refs ~path_refs names))
    in
    let latencies = List.concat_map fst passes in
    let m = List.map snd passes in
    { metrics =
        end_to_end ~setup
          ~walls:(List.map (fun m -> m.wall) m)
          ~cpus:(List.map (fun m -> m.cpu) m)
          ~rss:(List.map (fun m -> m.rss_mb) m)
          ~latencies
          ~throughputs:(List.map (fun (l, m) -> float_of_int (List.length l) /. m.wall) passes);
      extra = [ steal_row (List.map (fun m -> m.steal) m) ~ran ];
      tally;
      sound = true }
  end
  else begin
    let program_of n = (Inputs.compile n).Minic.Compile.program in
    let _, { wall = reference_wall; _ } =
      timed (fun () -> Batch.pass b ~jobs:1 ~program_of tally ~refs ~path_refs names)
    in
    let passes = List.init 2 (fun _ -> Batch.traced_pass b tally ~refs ~path_refs names) in
    write_trace ~out_dir ~workload ~seed (List.hd passes);
    let values, repeat = traced_values passes ~reference_wall in
    print_self_table values;
    let values = ("error_ratio", error_ratio tally) :: values in
    { metrics = per_layer values; extra = []; tally; sound = repeat }
  end

let run_campaigns ~seed ~seconds ~trace ~out_dir =
  let names = Inputs.seeded_order ~seed Inputs.campaign_benchmarks in
  let refs = Inputs.load_ref "campaign_sets.txt" and fig4_refs = Inputs.load_ref "fig4.txt" in
  let count = Campaigns.sets_for ~seconds in
  let sim_seed = seed in
  let tally = Report.tally () in
  if not trace then begin
    let setup = batch_setup "campaigns" in
    let programs = List.map (fun n -> (n, Inputs.compile n)) names in
    let program_of n = List.assoc n programs in
    let passes, ran =
      least_stolen ~planned:(max 1 (seconds / 5)) ~steal:(fun (_, m) -> m.steal) (fun () ->
          timed (fun () ->
              Campaigns.pass ~jobs:2 ~program_of ~count ~sim_seed tally ~refs ~fig4_refs names))
    in
    let results = List.map fst passes and m = List.map snd passes in
    let ratio = Stats.geomean (List.concat_map (fun r -> r.Campaigns.ratios) results) in
    { metrics =
        end_to_end ~setup
          ~walls:(List.map (fun m -> m.wall) m)
          ~cpus:(List.map (fun m -> m.cpu) m)
          ~rss:(List.map (fun m -> m.rss_mb) m)
          ~latencies:(List.concat_map (fun r -> r.Campaigns.latencies) results)
          ~throughputs:
            (List.map
               (fun (r, m) -> float_of_int (List.length r.Campaigns.latencies) /. m.wall)
               passes);
      extra =
        [ Report.median_of "sched_s" "s" (List.map (fun r -> r.Campaigns.sched_s) results)
            ~note:(Printf.sprintf "%d task sets" count);
          Report.median_of "validate_s" "s" (List.map (fun r -> r.Campaigns.validate_s) results);
          Report.metric "pwcet_over_observed" "ratio" ratio ~note:"geometric mean, must be >= 1";
          steal_row (List.map (fun m -> m.steal) m) ~ran ];
      tally;
      sound = ratio >= 1.0 }
  end
  else begin
    let _, { wall = reference_wall; _ } =
      timed (fun () ->
          Campaigns.pass ~jobs:1 ~program_of:Inputs.compile ~count ~sim_seed tally ~refs
            ~fig4_refs names)
    in
    let passes =
      List.init 2 (fun _ -> Campaigns.traced_pass ~count ~sim_seed tally ~refs ~fig4_refs names)
    in
    let traces = List.map fst passes and ratios = snd (List.hd passes) in
    write_trace ~out_dir ~workload:"campaigns" ~seed (List.hd traces);
    let values, repeat = traced_values traces ~reference_wall in
    print_self_table values;
    let get k = Option.value ~default:0.0 (List.assoc_opt k values) in
    let ratio = Stats.geomean ratios in
    let values =
      ("sim.samples_per_s", get "sim.samples" /. get "sim.run_s")
      :: ("sim.pwcet_over_observed", ratio)
      :: ("error_ratio", error_ratio tally)
      :: values
    in
    { metrics = per_layer values; extra = []; tally; sound = repeat && ratio >= 1.0 }
  end

let run_daemon ~tool ~seed ~seconds ~trace ~out_dir =
  let refs = Daemon.load_refs () in
  let ops = Reqgen.generate ~seed (Daemon.mix ~seconds) in
  List.iter
    (fun (cls, k, share) -> Printf.printf "stream: %-15s %5d  %5.1f%%\n" cls k (100.0 *. share))
    (Reqgen.shares ops);
  let tally = Report.tally () in
  let run_dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let stream i ~traced =
    Daemon.run ~tool ~dir:(Filename.concat run_dir (string_of_int i)) ~refs ~traced ops
  in
  Fun.protect
    ~finally:(fun () ->
      Proc.kill_all ();
      Proc.rm_rf run_dir)
    (fun () ->
      if not trace then begin
        (* Set-up is sampled on extra daemons too, each started, pinged
           and stopped; the last one serves the measured stream. *)
        let probes =
          List.init 6 (fun i ->
              let d, setup = Proc.spawn_daemon ~tool ~dir:(Filename.concat run_dir (Printf.sprintf "probe%d" i)) in
              Proc.stop_daemon d;
              setup)
        in
        (* Two streams, each on a fresh daemon with an empty store. *)
        let next = ref 0 in
        let streams, ran =
          least_stolen ~planned:2 ~steal:(fun s -> s.Daemon.steal) (fun () ->
              incr next;
              let s = stream !next ~traced:false in
              Daemon.judge tally s;
              s)
        in
        let completed (s : Daemon.stream) =
          Array.fold_left (fun acc x -> if x.Daemon.ok then acc + 1 else acc) 0 s.Daemon.samples
        in
        { metrics =
            end_to_end
              ~setup:(List.map (fun s -> s.Daemon.setup) streams @ probes)
              ~walls:(List.map (fun s -> s.Daemon.wall) streams)
              ~cpus:(List.map (fun s -> s.Daemon.cpu) streams)
              ~rss:(List.map (fun s -> s.Daemon.rss_mb) streams)
              ~latencies:
                (List.concat_map
                   (fun s -> Array.to_list (Array.map Daemon.latency s.Daemon.samples))
                   streams)
              ~throughputs:
                (List.map (fun s -> float_of_int (completed s) /. s.Daemon.wall) streams);
          extra = [ steal_row (List.map (fun s -> s.Daemon.steal) streams) ~ran ];
          tally;
          sound = true }
      end
      else begin
        let u = stream 0 ~traced:false in
        let a = stream 1 ~traced:true and b = stream 2 ~traced:true in
        List.iter (Daemon.judge tally) [ u; a; b ];
        let t = Traced.create () in
        Daemon.record_spans t a;
        write_trace ~out_dir ~workload:"daemon-mix" ~seed t;
        let self = Spans.self_by_name (Spans.spans t.Traced.spans) in
        Printf.printf "\nself time per request class (client spans, two clients)\n";
        List.iter (fun (name, v) -> Printf.printf "  %-24s %10.4f s\n" name v) self;
        let median_ms cls s =
          let l =
            Array.to_list s.Daemon.samples
            |> List.filter (fun x -> Reqgen.class_name x.Daemon.op = cls)
            |> List.map (fun x -> 1000.0 *. Daemon.latency x)
          in
          if l = [] then 0.0 else Stats.median l
        in
        let both f = mean [ f a; f b ] in
        let delta s f = match s.Daemon.stats with Some (b0, b1) -> float_of_int (f b1 - f b0) | None -> 0.0 in
        let store_delta s f =
          match s.Daemon.stats with
          | Some ({ Service.Protocol.store = Some x0; _ }, { Service.Protocol.store = Some x1; _ }) ->
            float_of_int (f x1 - f x0)
          | _ -> 0.0
        in
        let hits = store_delta a (fun (h, _, _) -> h) and misses = store_delta a (fun (_, m, _) -> m) in
        let disk s = Option.get s.Daemon.disk in
        let requests = delta a (fun x -> x.Service.Protocol.requests) in
        (* Store contents are a function of the requests alone; puts and
           the dedup split also depend on which requests overlap. *)
        let repeat =
          (disk a).Store.Artifact.object_bytes = (disk b).Store.Artifact.object_bytes
          && (disk a).Store.Artifact.objects = (disk b).Store.Artifact.objects
        in
        let values =
          [ ("store.hits", hits); ("store.misses", misses);
            ("store.puts", store_delta a (fun (_, _, p) -> p));
            ("store.hit_ratio", if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0);
            ("store.bytes", float_of_int (disk a).Store.Artifact.object_bytes);
            ("service.ping_ms", both (median_ms "ping"));
            ("service.analyze_warm_ms", both (median_ms "analyze-repeat"));
            ("service.analyze_cold_ms", both (median_ms "analyze-first"));
            ("service.grid_ms", both (median_ms "grid"));
            ("service.sched_ms", both (median_ms "sched"));
            ("service.computations", delta a (fun x -> x.Service.Protocol.computations));
            ("service.deduped", delta a (fun x -> x.Service.Protocol.deduped));
            ("service.overloaded", delta a (fun x -> x.Service.Protocol.overloaded));
            ("service.compute_ratio", delta a (fun x -> x.Service.Protocol.computations) /. requests);
            ("trace.unattributed_s", List.assoc "stream" self);
            ("trace.overhead_ratio", both (fun s -> s.Daemon.wall) /. u.Daemon.wall);
            ("error_ratio", error_ratio tally) ]
        in
        { metrics = per_layer values; extra = []; tally; sound = repeat }
      end)

(* --- references ------------------------------------------------------------ *)

let record () =
  let row engine exact name =
    let program = (Inputs.compile name).Minic.Compile.program in
    let task = Pwcet.Estimator.prepare ~program ~config:Inputs.paper_config ~engine ~exact () in
    let ests =
      List.map
        (fun mechanism ->
          Pwcet.Estimator.estimate task ~pfail:Inputs.pfail ~mechanism ~engine ~exact ())
        Inputs.mechanisms
    in
    List.iter
      (fun e ->
        if not (Robust.Rung.equal (Pwcet.Estimator.worst_rung e) Robust.Rung.Exact) then
          failwith (name ^ ": reference is not exact"))
      ests;
    ( name,
      Batch.row_fields ~wcet_ff:(Pwcet.Estimator.fault_free_wcet task)
        (List.map (fun e -> Pwcet.Estimator.pwcet e ~target:Inputs.target) ests) )
  in
  let mechs = String.concat " " (List.map Pwcet.Mechanism.short_name Inputs.mechanisms) in
  Inputs.save_ref "fig4.txt" ~header:("benchmark wcet_ff pWCET(1e-15) per mechanism: " ^ mechs)
    (List.map (row `Path false) Inputs.fig4_benchmarks);
  Inputs.save_ref "paper_ilp.txt"
    ~header:("benchmark wcet_ff pWCET(1e-15) per mechanism, exact ILP: " ^ mechs)
    (List.map (row `Ilp true) Inputs.ilp_benchmarks);
  let keys =
    List.concat_map
      (fun bench ->
        List.concat_map
          (fun geometry ->
            let program = (Inputs.compile bench).Minic.Compile.program in
            let task = Pwcet.Estimator.prepare ~program ~config:(Inputs.config_of geometry) () in
            List.concat_map
              (fun mechanism ->
                List.map
                  (fun e ->
                    ( Inputs.key_id { Inputs.bench; mechanism; kpfail = e.Pwcet.Estimator.pfail; geometry },
                      [ string_of_int (Pwcet.Estimator.pwcet e ~target:Inputs.target);
                        string_of_int (Pwcet.Estimator.fault_free_wcet task);
                        Robust.Rung.to_string (Pwcet.Estimator.worst_rung e) ] ))
                  (Pwcet.Estimator.sweep task ~pfail_grid:(Array.to_list Inputs.key_pfails)
                     ~mechanism ()))
              Inputs.mechanisms)
          (Array.to_list Inputs.key_geometries))
      (Array.to_list Inputs.key_benchmarks)
  in
  Inputs.save_ref "keys.txt" ~header:"key pWCET(1e-15) wcet_ff rung" keys;
  Inputs.save_ref "grids.txt" ~header:"grid cells failed digest"
    (Array.to_list
       (Array.mapi
          (fun i g ->
            let results = Grid.run ~jobs:1 (Inputs.grid_spec g) in
            ( Printf.sprintf "grid%d" i,
              [ string_of_int (List.length results);
                string_of_int (List.length (List.filter (fun (_, r) -> Result.is_error r) results));
                Grid.digest results ] ))
          Inputs.grid_catalogue));
  Inputs.save_ref "scheds.txt" ~header:"sched analyzed digest"
    (Array.to_list
       (Array.mapi
          (fun i s ->
            let c = Sched.Campaign.run ~jobs:1 (Inputs.sched_spec s) in
            ( Printf.sprintf "sched%d" i,
              [ string_of_int (List.length c.Sched.Campaign.results); c.Sched.Campaign.digest ] ))
          Inputs.sched_catalogue));
  let spec = Inputs.campaign_spec ~count:8 in
  let laws = Sched.Campaign.laws ~jobs:1 spec in
  Inputs.save_ref "campaign_sets.txt" ~header:"set digest"
    (List.init spec.Sched.Campaign.count (fun index ->
         let r, _ = Sched.Campaign.analyze_set spec laws ~index in
         (Printf.sprintf "set%d" index, [ Sched.Campaign.digest_of_results [ r ] ])))

(* --- main ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let tool = ref "" and out_dir = ref ".perfbench" and mode = ref `Run in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S run length the work is sized to");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or traced per-layer run");
      ("--tool", Arg.Set_string tool, "PATH pwcet_tool executable (daemon-mix)");
      ("--ref-dir", Arg.Set_string Inputs.ref_dir, "DIR stored reference outputs");
      ("--out-dir", Arg.Set_string out_dir, "DIR traces and daemon scratch space");
      ("--setup-probe", Arg.String (fun w -> mode := `Probe w), "NAME (internal) set-up probe");
      ("--record", Arg.Unit (fun () -> mode := `Record), " recompute the reference outputs") ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "perfbench [options]";
  match !mode with
  | `Probe w -> setup_probe w
  | `Record -> record ()
  | `Run ->
    if not (List.mem !workload workloads) then begin
      prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
      exit 2
    end;
    let trace = !trace = 1 and seed = !seed and seconds = max 1 !seconds and out_dir = !out_dir in
    let o =
      match !workload with
      | "daemon-mix" -> run_daemon ~tool:!tool ~seed ~seconds ~trace ~out_dir
      | "campaigns" -> run_campaigns ~seed ~seconds ~trace ~out_dir
      | w -> run_batch w ~seed ~seconds ~trace ~out_dir
    in
    let t = o.tally in
    List.iter (fun p -> Printf.printf "check failed: %s\n" p) (List.rev t.Report.problems);
    if not o.sound then print_endline "check failed: an invariant of the run did not hold";
    Report.print_table
      (Printf.sprintf "%s, seed %d, %s" !workload seed (if trace then "traced" else "end-to-end"))
      (o.metrics @ o.extra);
    Printf.printf "operations %d, failed %d\n" t.Report.ops t.Report.failed;
    print_endline
      (Report.json_line ~correct:(t.Report.failed = 0 && o.sound) ~attempted:t.Report.ops
         ~failed:t.Report.failed o.metrics)
