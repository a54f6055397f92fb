(* Golden pin on key derivation. Store artifact keys decide whether a
   warm store stays warm, and journal run keys whether a resume finds
   its journal: a refactoring that moves where a key is derived must
   not change a single key string. The expected values were recorded
   before key derivation was consolidated (float components as IEEE
   bits via Store.Artifact.float_key, engine/impl names via
   Pwcet.Estimator.engine_tag/impl_tag). *)

let compile name =
  let entry = Option.get (Benchmarks.Registry.find name) in
  (Minic.Compile.compile entry.Benchmarks.Registry.program).Minic.Compile.program

let config_8x2 = Cache.Config.make ~sets:8 ~ways:2 ~line_bytes:16 ()

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* fibcall at 8x2: one WCET, three FMM and three penalty artifacts per
   engine setting (path, relaxed ILP, exact ILP) at pfail 1e-4. *)
let expected_objects =
  [ "026a5be17fd8cd45586b71de328b0734"; "0f39c7040ea0a26ba5b732add52cb813";
    "34e7bb17f805f5238c21eb6f4d677407"; "37103d6d4d11d763a9445e6c23cb03df";
    "3bf2024d331e84c9111093686e270028"; "435a41ff374eb62100b90bf0a9d2ddf1";
    "742e48373695e77345cfd1a6bf4ff439"; "76327fa2a7d4fbbeef6e54aedc1b5b03";
    "85cbf5a242f01679fe1d8f32811bb80d"; "923b48dd177329fb0477445d7ed37837";
    "9e671042ac3873e7ddbae740e62636a2"; "b60d24dfebaec37de42320c94f17a335";
    "cb21ef42f56bf34a9411585924503fa9"; "cd2662aa367c87fc383e2b7fcc581824";
    "d380e527a3f579b6bd36ab38004e7ee3"; "da4e6585aa967180dcbbfc55c57af27b";
    "e2e3f104e7f34f2c862be3d18121687d"; "ed6b90ee8434ed914c8565616d291827";
    "f7ff4f68f708a86f8f69cec1fa72756b"; "fa18912093c3ce11a83a1d5a7c56857a";
    "fabb04117131ef73327ad7f51d00c315" ]

let test_store_keys () =
  let dir = Filename.temp_dir "pwcet_keys" "" in
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let store = Store.Artifact.open_store ~dir () in
      let program = compile "fibcall" in
      List.iter
        (fun (engine, exact) ->
          let task =
            Pwcet.Estimator.prepare ~program ~config:config_8x2 ~engine ~exact ~store ()
          in
          List.iter
            (fun mechanism ->
              ignore
                (Pwcet.Estimator.estimate task ~pfail:1e-4 ~mechanism ~engine ~exact ~store ()))
            Pwcet.Mechanism.all)
        [ (`Path, false); (`Ilp, false); (`Ilp, true) ];
      let objects = Filename.concat dir "objects" in
      let names =
        List.concat_map
          (fun prefix -> Array.to_list (Sys.readdir (Filename.concat objects prefix)))
          (Array.to_list (Sys.readdir objects))
      in
      Alcotest.(check (list string)) "artifact keys" expected_objects (List.sort compare names))

let test_grid_run_key () =
  let spec =
    { Grid.benchmarks = [ ("fibcall", compile "fibcall"); ("bs", compile "bs") ];
      configs = [ config_8x2; Cache.Config.make ~sets:4 ~ways:4 ~line_bytes:16 () ];
      mechanisms = Pwcet.Mechanism.all; pfail_grid = [ 1e-5; 1e-4 ]; targets = [ 1e-9; 1e-15 ];
      engine = `Path; exact = false; impl = `Sliced }
  in
  Alcotest.(check string) "grid run key" "fb2d18482958d2960a0f8624d33a21e7"
    (Store.Artifact.key (("run", "grid") :: Grid.identity spec))

let test_sched_run_key () =
  let spec =
    Result.get_ok
      (Sched.Campaign.make ~count:6 ~n_tasks:3 ~benchmarks:[ "fibcall"; "bs"; "crc" ] ~sets:8
         ~ways:2 ())
  in
  Alcotest.(check string) "sched run key" "a565caadb0fdb740c16de4d0004c5973"
    (Store.Artifact.key (Sched.Campaign.identity spec))

let () =
  Alcotest.run "keys"
    [ ( "golden",
        [ Alcotest.test_case "store artifact keys" `Quick test_store_keys;
          Alcotest.test_case "grid journal run key" `Quick test_grid_run_key;
          Alcotest.test_case "sched journal run key" `Quick test_sched_run_key ] ) ]
