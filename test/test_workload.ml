(* The measurement layer: the drivers must run, check safety, and report
   sane numbers; the registry must know every experiment. *)

open Simcore

let test_run_point () =
  let mem = Memory.create Config.small in
  let c = Memory.alloc mem ~tag:"c" ~size:1 in
  let pt =
    Workload.Measure.run_point ~config:Config.small ~threads:3 ~horizon:5_000
      ~op:(fun _ _ -> ignore (Memory.faa mem c 1))
      ~sample:(fun () -> 7)
      ()
  in
  Alcotest.(check int) "threads recorded" 3 pt.Workload.Measure.threads;
  Alcotest.(check int) "ops counted" (Memory.peek mem c) pt.Workload.Measure.ops;
  Alcotest.(check bool) "makespan covers horizon" true
    (pt.Workload.Measure.makespan >= 5_000);
  Alcotest.(check (float 0.001)) "sampling" 7.0 pt.Workload.Measure.mem_metric;
  Alcotest.(check bool) "throughput positive" true
    (pt.Workload.Measure.throughput > 0.0)

let test_run_point_reports_faults () =
  let mem = Memory.create Config.small in
  Alcotest.(check bool) "faults become failures" true
    (try
       ignore
         (Workload.Measure.run_point ~config:Config.small ~threads:1
            ~horizon:1_000
            ~op:(fun _ _ -> ignore (Memory.read mem 999_999))
            ());
       false
     with Failure _ -> true)

(* An adversary can park a process mid-benchmark, which only the closure
   driver's loop accounts for: a compiled body beside one is refused. *)
let test_run_point_rejects_compiled_adversary () =
  let mem = Memory.create Config.small in
  let adv = Adversary.create ~procs:1 { Adversary.stalls = []; delays = [] } in
  Alcotest.check_raises "adversary with a compiled body"
    (Invalid_argument
       "Measure.run_point: an adversary needs the closure driver")
    (fun () ->
      ignore
        (Workload.Measure.run_point ~config:Config.small ~adversary:adv
           ~compiled:(mem, fun a ~pid:_ -> Vm.Asm.payi a 1)
           ~threads:1 ~horizon:1_000 ~op:(fun _ _ -> Proc.pay 1) ()))

let test_registry_complete () =
  let ids = List.map (fun e -> e.Workload.Registry.id) Workload.Registry.all in
  List.iter
    (fun required ->
      Alcotest.(check bool) ("registry has " ^ required) true
        (List.mem required ids))
    [ "6a"; "6b"; "6c"; "6e"; "6f"; "6g"; "6h"; "7a"; "7b"; "7c"; "7d"; "7e"; "7f" ]

let test_registry_unknown () =
  Alcotest.(check bool) "unknown id rejected" true
    (try
       Workload.Registry.run_ids Workload.Registry.default_ctx [ "nope" ];
       false
     with Failure _ -> true)

(* Tiny end-to-end runs of each figure driver: they must complete
   without faults or leaks (the drivers assert both internally). *)
let test_fig6_driver () =
  Workload.Fig6.loadstore ~threads:[ 2 ] ~horizon:4_000 ~n_locs:4 ~p_store:0.3
    ~title:"test" ~with_memory:true ()

let test_fig6_stack_driver () =
  Workload.Fig6.stack ~threads:[ 2 ] ~horizon:4_000 ~n_stacks:2 ~init_size:4
    ~p_update:0.3 ~title:"test" ()

let test_fig7_drivers () =
  List.iter
    (fun s ->
      Workload.Fig7.run ~threads:[ 2 ] ~horizon:4_000 ~structure:s ~size:16
        ~update_pct:20 ~title:"test" ())
    [ Workload.Fig7.List_set; Workload.Fig7.Hash_set; Workload.Fig7.Bst_set ]

let test_audits () =
  Workload.Audits.bounds ~threads:[ 2 ] ();
  Workload.Audits.cost ~threads:[ 2 ] ();
  Workload.Audits.acquire_mode ~threads:[ 2 ] ()


let test_point_determinism () =
  let go () =
    let mem = Memory.create Config.small in
    let c = Memory.alloc mem ~tag:"c" ~size:1 in
    let pt =
      Workload.Measure.run_point ~config:Config.small ~seed:7 ~threads:4
        ~horizon:8_000
        ~op:(fun _ rng -> ignore (Memory.faa mem c (Rng.int rng 3)))
        ()
    in
    (pt.Workload.Measure.ops, pt.Workload.Measure.makespan, Memory.peek mem c)
  in
  Alcotest.(check (triple int int int)) "identical reruns" (go ()) (go ())

let test_registry_ids_unique () =
  let ids = List.map (fun e -> e.Workload.Registry.id) Workload.Registry.all in
  Alcotest.(check int) "no duplicate ids"
    (List.length ids)
    (List.length (List.sort_uniq compare ids))

let suite =
  [
    Alcotest.test_case "run_point" `Quick test_run_point;
    Alcotest.test_case "run_point faults" `Quick test_run_point_reports_faults;
    Alcotest.test_case "run_point adversary needs closures" `Quick
      test_run_point_rejects_compiled_adversary;
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "registry ids unique" `Quick test_registry_ids_unique;
    Alcotest.test_case "point determinism" `Quick test_point_determinism;
    Alcotest.test_case "registry unknown id" `Quick test_registry_unknown;
    Alcotest.test_case "fig6 loadstore driver" `Slow test_fig6_driver;
    Alcotest.test_case "fig6 stack driver" `Slow test_fig6_stack_driver;
    Alcotest.test_case "fig7 drivers" `Slow test_fig7_drivers;
    Alcotest.test_case "audits" `Slow test_audits;
  ]
