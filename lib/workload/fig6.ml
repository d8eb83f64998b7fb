module M = Simcore.Memory
module Pool = Simcore.Domain_pool
module Rng = Simcore.Rng
module Word = Simcore.Word
module Prof = Simcore.Profiler
module Rc_intf = Rc_baselines.Rc_intf

(* One profiler per benchmark cell, labelled by scheme so the report
   merges a sweep's cells into per-scheme rows; registered globally
   (like telemetry) for the registry's profile block. Conservation —
   per-phase sums equal the cell's total simulated ticks — is asserted
   here, for every profiled cell of every figure. *)
let cell_profiler ~profile name =
  if profile then Some (Prof.create ~label:name ()) else None

let assert_conservation name profiler =
  match profiler with
  | None -> ()
  | Some t ->
      if not (Prof.conservation_ok t) then
        failwith
          (Printf.sprintf
             "%s: profiler conservation violated (phases sum to %d, clocks \
              sum to %d)"
             name (Prof.total t) (Prof.expected t))

let schemes : (string * (module Rc_intf.S)) list =
  [
    ("GNU C++", (module Rc_baselines.Locked_rc));
    ("just::thread", (module Rc_baselines.Dwcas_rc));
    ("Folly", (module Rc_baselines.Split_rc));
    ("Herlihy", (module Rc_baselines.Herlihy_rc.Plain));
    ("Herlihy (opt)", (module Rc_baselines.Herlihy_rc.Optimized));
    ("OrcGC", (module Rc_baselines.Orcgc_rc));
    ("DRC", (module Rc_baselines.Drc_scheme.Plain));
    ("DRC (+snap)", (module Rc_baselines.Drc_scheme.Snapshots));
  ]

(* {1 Load/store microbenchmark (6a-6d)} *)

(* [sanitize] and [race] override [config]'s modes, and [profile] is a
   flag rather than an arm record, only because perfbench calls this
   point that way; every other caller passes [config]. *)
let loadstore_point ?policy ?fastpath ?tracer ?sanitize ?race
    ?(config = Simcore.Config.default) ?(profile = false) ?(on_heap = ignore)
    (module R : Rc_intf.S) ~threads ~horizon ~seed ~n_locs ~p_store =
  let profiler = cell_profiler ~profile R.name in
  let config =
    {
      config with
      sanitize = Option.value sanitize ~default:config.Simcore.Config.sanitize;
      race = Option.value race ~default:config.race;
    }
  in
  let mem = M.create config in
  let t = R.create mem ~procs:threads in
  let cls = R.register_class t ~tag:"obj" ~fields:1 ~ref_fields:[] in
  let h0 = R.handle t (-1) in
  let locs = Array.init n_locs (fun _ -> M.alloc mem ~tag:"cell" ~size:1) in
  Array.iter (fun c -> R.store h0 c (R.make h0 cls [| 0 |])) locs;
  let handles = Array.init threads (R.handle t) in
  let op pid rng =
    let c = locs.(Rng.int rng n_locs) in
    let h = handles.(pid) in
    if Rng.below rng p_store then
      R.store h c (R.make h cls [| Rng.int rng 1000 |])
    else begin
      let r = R.load h c in
      if not (Word.is_null r) then begin
        ignore (M.read mem (R.field_addr r 0));
        R.destruct h r
      end
    end
  in
  (* The compiled op body: the same churn, emitted instruction by
     instruction around the scheme's {!Rc_intf.vm_ops} — identical RNG
     draws (location, store coin, payload) and tick sequence as [op]
     above, which stays as the closure form (and oracle, [test_vm]).
     Allocation stays a host call. Schemes without compiled ops instead
     run [op] behind a host call in the compiled driver loop. Sanitized
     and raced runs compile too: the memory opcodes call the same
     observer as {!M}, and DRC's acquire emits its slot-protection
     notes. *)
  let vm_body =
    match R.vm_ops t with
    | Some vops ->
        Some
          (fun a ~pid ->
            let module A = Simcore.Vm.Asm in
            let h = handles.(pid) in
            let t_locs = A.table a locs in
            let f_store = A.fconst a p_store in
            let r_i = A.reg a and r_c = A.reg a and r_sb = A.reg a in
            A.rngi a r_i n_locs;
            A.tab a r_c t_locs r_i;
            A.rngb a r_sb f_store;
            let load_path = A.label a and done_ = A.label a in
            A.beqi a r_sb 0 load_path;
            let r_new = A.reg a in
            A.host a (fun fr ->
                fr.Simcore.Vm.regs.(r_new) <-
                  R.make h cls [| Rng.int fr.Simcore.Vm.rng 1000 |]);
            vops.Rc_intf.vm_store_fresh a ~pid ~dst:r_c ~value:r_new;
            A.jmp a done_;
            A.place a load_path;
            let r_w = vops.Rc_intf.vm_load a ~pid ~src:r_c in
            let r_p = A.reg a in
            A.shri a r_p r_w 2;
            A.beqi a r_p 0 done_;
            let r_f = A.reg a and r_d = A.reg a in
            A.addi a r_f r_p vops.Rc_intf.vm_header;
            A.read a r_d r_f;
            vops.Rc_intf.vm_destruct a ~pid ~ptr:r_w;
            A.place a done_)
    | None -> None
  in
  let pt =
    Measure.run_point ?policy ?fastpath ?tracer ?profiler
      ~telemetry:(M.telemetry mem) ~vm:(mem, vm_body) ~config ~seed ~threads
      ~horizon ~op
      ~sample:(fun () -> M.live_with_tag mem "obj")
      ()
  in
  assert_conservation R.name profiler;
  (* Teardown doubles as a leak check for every benchmark point. *)
  Array.iter (fun c -> R.store h0 c Word.null) locs;
  R.flush t;
  on_heap mem;
  let leftover = M.live_with_tag mem "obj" in
  if leftover <> 0 then begin
    (* With the [leaks] mode on, attribute the leak to its sites. *)
    let sites =
      M.leaks_by_site mem
      |> List.filter (fun (tag, _, _, _) -> tag = "obj")
      |> List.map (fun (tag, pid, blocks, _) ->
             Printf.sprintf "%d x %s from pid %d" blocks tag pid)
    in
    failwith
      (Printf.sprintf "%s: %d objects leaked%s" R.name leftover
         (if sites = [] then ""
          else " (" ^ String.concat ", " sites ^ ")"))
  end;
  pt

let loadstore ?(arm = Measure.unarmed) ?(threads = Measure.default_threads)
    ?(horizon = 150_000) ?(seed = 42) ~n_locs ~p_store ~title ~with_memory () =
  (* The sweep is a flat (thread-count × scheme) cell grid: every cell
     owns its own heap/telemetry/RNG universe, so the pool may run them
     on any worker in any order — [map_grid] returns them row-major,
     exactly as the sequential nest produced them. *)
  let results =
    Pool.map_grid arm.Measure.pool ~rows:threads ~cols:schemes
      ~label:(fun th (name, _) -> Printf.sprintf "%s [%s, P=%d]" title name th)
      (fun th (_, m) ->
        loadstore_point ?tracer:arm.tracer ~config:arm.config
          ~profile:arm.profile m ~threads:th ~horizon ~seed ~n_locs ~p_store)
  in
  Tables.print_series ~title ~unit_label:"throughput: operations per megatick"
    ~columns:(List.map fst schemes)
    ~rows:(List.map (fun (th, ps) -> (th, List.map (fun p -> p.Measure.throughput) ps)) results)
    ();
  if with_memory then
    Tables.print_series
      ~title:"Figure 6d: average allocated objects (same microbenchmark)"
      ~unit_label:"objects (live, including deferred reclamation)"
      ~columns:(List.map fst schemes)
      ~rows:
        (List.map
           (fun (th, ps) -> (th, List.map (fun p -> p.Measure.mem_metric) ps))
           results)
      ()

(* {1 Concurrent stack benchmark (6e-6h)} *)

let stack_point ?tracer ?(config = Simcore.Config.default) ?(profile = false)
    (module R : Rc_intf.S) ~threads ~horizon ~seed ~n_stacks ~init_size
    ~p_update =
  let profiler = cell_profiler ~profile R.name in
  let module S = Cds.Stack.Make (R) in
  let mem = M.create config in
  let t = S.create mem ~procs:threads ~stacks:n_stacks in
  let h0 = S.handle t (-1) in
  for s = 0 to n_stacks - 1 do
    for v = 0 to init_size - 1 do
      S.push h0 ~stack:s v
    done
  done;
  let handles = Array.init threads (S.handle t) in
  let op pid rng =
    let h = handles.(pid) in
    let s = Rng.int rng n_stacks in
    if Rng.below rng p_update then begin
      match S.pop h ~stack:s with
      | Some v -> S.push h ~stack:(Rng.int rng n_stacks) v
      | None -> ()
    end
    else ignore (S.find h ~stack:s (Rng.int rng (init_size + (init_size / 4) + 1)))
  in
  let pt =
    (* Structure ops are deep closures; the compiled driver still runs
       the loop flat with [op] as a host call. *)
    Measure.run_point ?tracer ?profiler ~telemetry:(M.telemetry mem)
      ~vm:(mem, None) ~config ~seed ~threads ~horizon ~op
      ~sample:(fun () -> S.live_nodes t)
      ()
  in
  assert_conservation R.name profiler;
  S.flush t;
  pt

let stack ?(arm = Measure.unarmed) ?(threads = Measure.default_threads)
    ?(horizon = 200_000) ?(seed = 42) ~n_stacks ~init_size ~p_update ~title () =
  let results =
    Pool.map_grid arm.Measure.pool ~rows:threads ~cols:schemes
      ~label:(fun th (name, _) -> Printf.sprintf "%s [%s, P=%d]" title name th)
      (fun th (_, m) ->
        (stack_point ?tracer:arm.tracer ~config:arm.config ~profile:arm.profile
           m ~threads:th ~horizon ~seed ~n_stacks ~init_size ~p_update)
          .Measure.throughput)
  in
  Tables.print_series ~title ~unit_label:"throughput: operations per megatick"
    ~columns:(List.map fst schemes) ~rows:results ()

let stack_memory ?(arm = Measure.unarmed)
    ?(sizes = [ 16; 64; 256; 1024; 4096 ]) ?(threads = 128)
    ?(horizon = 120_000) ?(seed = 42) () =
  let columns = List.map fst schemes in
  let rows =
    Pool.map_grid arm.Measure.pool ~rows:sizes ~cols:schemes
      ~label:(fun size (name, _) ->
        Printf.sprintf "Fig 6h [%s, size=%d]" name size)
      (fun size (_, m) ->
        (stack_point ?tracer:arm.tracer ~config:arm.config ~profile:arm.profile
           m ~threads ~horizon ~seed ~n_stacks:10 ~init_size:size
           ~p_update:0.5)
          .Measure.mem_metric)
    |> List.map (fun (size, values) -> (size * 10, values))
  in
  Tables.print_series
    ~title:
      (Printf.sprintf
         "Figure 6h: allocated nodes vs live nodes (%d threads; row label = \
          live nodes)"
         threads)
    ~unit_label:"average allocated node objects" ~columns ~rows ()
