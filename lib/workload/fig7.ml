module M = Simcore.Memory
module Pool = Simcore.Domain_pool
module Rng = Simcore.Rng
module Sets = Cds.Set_catalogue

type structure = Sets.structure = List_set | Hash_set | Bst_set

let scheme_names =
  [ "EBR"; "HP"; "HPopt"; "IBR"; "HE"; "No MM"; "DRC"; "DRC (+snap)" ]

let prefill ~seed ~size (inst : Sets.instance) =
  let keys = Array.init (2 * size) (fun i -> i) in
  Rng.shuffle (Rng.create ~seed:(seed + 7)) keys;
  for i = 0 to size - 1 do
    ignore (inst.insert (-1) keys.(i))
  done

let point ?policy ?fastpath ?tracer ?(config = Simcore.Config.default)
    ?(profile = false) ~structure ~scheme ~threads ~horizon ~seed ~size
    ~update_pct () =
  let profiler = Fig6.cell_profiler ~profile scheme in
  let mem = M.create config in
  let inst = Sets.create structure scheme mem ~procs:threads ~buckets:size in
  prefill ~seed ~size inst;
  let key_range = 2 * size in
  let half = update_pct in
  (* update_pct is a percentage; draw in [0, 200) so that half the update
     budget goes to inserts and half to deletes. *)
  let op pid rng =
    let k = Rng.int rng key_range in
    let r = Rng.int rng 200 in
    if r < half then ignore (inst.insert pid k)
    else if r < 2 * half then ignore (inst.delete pid k)
    else ignore (inst.contains pid k)
  in
  let pt =
    (* Structure ops are deep closures: the closure driver runs them. *)
    Measure.run_point ?policy ?fastpath ?tracer ?profiler
      ~telemetry:(M.telemetry mem) ~config ~seed ~threads ~horizon ~op
      ~sample:inst.extra_nodes ()
  in
  Fig6.assert_conservation scheme profiler;
  inst.flush ();
  pt

let run ?(arm = Measure.unarmed) ?(threads = Measure.default_threads)
    ?(horizon = 150_000) ?(seed = 42) ~structure ~size ~update_pct ~title () =
  let results =
    Pool.map_grid arm.Measure.pool ~rows:threads ~cols:scheme_names
      ~label:(fun th scheme -> Printf.sprintf "%s [%s, P=%d]" title scheme th)
      (fun th scheme ->
        point ?tracer:arm.tracer ~config:arm.config ~profile:arm.profile
          ~structure ~scheme ~threads:th ~horizon ~seed ~size ~update_pct ())
  in
  Tables.print_series ~title ~unit_label:"throughput: operations per megatick"
    ~columns:scheme_names
    ~rows:
      (List.map
         (fun (th, ps) -> (th, List.map (fun p -> p.Measure.throughput) ps))
         results)
    ();
  Tables.print_series
    ~title:(title ^ " — memory")
    ~unit_label:"extra nodes (removed, not yet reclaimed; sampled average)"
    ~columns:scheme_names
    ~rows:
      (List.map
         (fun (th, ps) -> (th, List.map (fun p -> p.Measure.mem_metric) ps))
         results)
    ()
