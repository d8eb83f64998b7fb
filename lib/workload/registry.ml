type ctx = {
  threads : int list option;
  quick : bool;
  seed : int;
  stats : bool;
  profile_out : string option;
  arm : Measure.arm;
}

let default_ctx =
  {
    threads = None;
    quick = false;
    seed = 42;
    stats = false;
    profile_out = None;
    arm = Measure.unarmed;
  }

type exp = { id : string; title : string; run : ctx -> unit }

let sweep ctx =
  match ctx.threads with
  | Some l -> l
  | None -> if ctx.quick then Measure.quick_threads else Measure.default_threads

let horizon ctx full = if ctx.quick then full / 2 else full

(* Scaled workload sizes (DESIGN.md §3: N=10^7 → 10^5 for 6c, hash 100K →
   8192 buckets, BST 100K → 16384 and 100M → 131072). *)
let all =
  [
    {
      id = "6a";
      title = "Fig 6a: load/store microbenchmark, N=10, 10% stores";
      run =
        (fun ctx ->
          Fig6.loadstore ~arm:ctx.arm ~threads:(sweep ctx) ~horizon:(horizon ctx 150_000)
            ~seed:ctx.seed ~n_locs:10 ~p_store:0.1
            ~title:"Figure 6a: load/store, N=10, 10% stores (+ Fig 6d memory)"
            ~with_memory:true ());
    };
    {
      id = "6b";
      title = "Fig 6b: load/store microbenchmark, N=10, 50% stores";
      run =
        (fun ctx ->
          Fig6.loadstore ~arm:ctx.arm ~threads:(sweep ctx) ~horizon:(horizon ctx 150_000)
            ~seed:ctx.seed ~n_locs:10 ~p_store:0.5
            ~title:"Figure 6b: load/store, N=10, 50% stores" ~with_memory:false
            ());
    };
    {
      id = "6c";
      title = "Fig 6c: load/store microbenchmark, large N, 10% stores";
      run =
        (fun ctx ->
          let n = if ctx.quick then 20_000 else 100_000 in
          Fig6.loadstore ~arm:ctx.arm ~threads:(sweep ctx) ~horizon:(horizon ctx 150_000)
            ~seed:ctx.seed ~n_locs:n ~p_store:0.1
            ~title:
              (Printf.sprintf
                 "Figure 6c: load/store, N=%d (paper: 10^7), 10%% stores" n)
            ~with_memory:false ());
    };
    {
      id = "6e";
      title = "Fig 6e: stacks, 1% pushes/pops";
      run =
        (fun ctx ->
          Fig6.stack ~arm:ctx.arm ~threads:(sweep ctx) ~horizon:(horizon ctx 200_000)
            ~seed:ctx.seed ~n_stacks:10 ~init_size:20 ~p_update:0.01
            ~title:"Figure 6e: stacks, N=10, 1% pushes/pops" ());
    };
    {
      id = "6f";
      title = "Fig 6f: stacks, 10% pushes/pops";
      run =
        (fun ctx ->
          Fig6.stack ~arm:ctx.arm ~threads:(sweep ctx) ~horizon:(horizon ctx 200_000)
            ~seed:ctx.seed ~n_stacks:10 ~init_size:20 ~p_update:0.1
            ~title:"Figure 6f: stacks, N=10, 10% pushes/pops" ());
    };
    {
      id = "6g";
      title = "Fig 6g: stacks, 50% pushes/pops";
      run =
        (fun ctx ->
          Fig6.stack ~arm:ctx.arm ~threads:(sweep ctx) ~horizon:(horizon ctx 200_000)
            ~seed:ctx.seed ~n_stacks:10 ~init_size:20 ~p_update:0.5
            ~title:"Figure 6g: stacks, N=10, 50% pushes/pops" ());
    };
    {
      id = "6h";
      title = "Fig 6h: stack memory, allocated vs live nodes";
      run =
        (fun ctx ->
          let sizes = if ctx.quick then [ 16; 256; 4096 ] else [ 16; 64; 256; 1024; 4096 ] in
          Fig6.stack_memory ~arm:ctx.arm ~sizes
            ~threads:(if ctx.quick then 48 else 128)
            ~horizon:(horizon ctx 120_000) ~seed:ctx.seed ());
    };
    {
      id = "7a";
      title = "Fig 7a: Harris-Michael list, 10% updates";
      run =
        (fun ctx ->
          let n = if ctx.quick then 64 else 128 in
          Fig7.run ~arm:ctx.arm ~threads:(sweep ctx) ~horizon:(horizon ctx 120_000)
            ~seed:ctx.seed ~structure:Fig7.List_set ~size:n ~update_pct:10
            ~title:
              (Printf.sprintf "Figure 7a: list, N=%d (paper: 1000), 10%% updates" n)
            ());
    };
    {
      id = "7b";
      title = "Fig 7b: Michael hash table, 10% updates";
      run =
        (fun ctx ->
          let n = if ctx.quick then 2048 else 8192 in
          Fig7.run ~arm:ctx.arm ~threads:(sweep ctx) ~horizon:(horizon ctx 120_000)
            ~seed:ctx.seed ~structure:Fig7.Hash_set ~size:n ~update_pct:10
            ~title:
              (Printf.sprintf
                 "Figure 7b: hash table, N=%d (paper: 100K), 10%% updates" n)
            ());
    };
    {
      id = "7c";
      title = "Fig 7c: Natarajan-Mittal BST, 10% updates";
      run =
        (fun ctx ->
          let n = if ctx.quick then 4096 else 16384 in
          Fig7.run ~arm:ctx.arm ~threads:(sweep ctx) ~horizon:(horizon ctx 120_000)
            ~seed:ctx.seed ~structure:Fig7.Bst_set ~size:n ~update_pct:10
            ~title:
              (Printf.sprintf "Figure 7c: BST, N=%d (paper: 100K), 10%% updates" n)
            ());
    };
    {
      id = "7d";
      title = "Fig 7d: large Natarajan-Mittal BST, 10% updates";
      run =
        (fun ctx ->
          let n = if ctx.quick then 32_768 else 131_072 in
          let threads =
            match ctx.threads with
            | Some l -> l
            | None -> if ctx.quick then [ 48; 144 ] else [ 1; 48; 144; 192 ]
          in
          Fig7.run ~arm:ctx.arm ~threads ~horizon:(horizon ctx 120_000) ~seed:ctx.seed
            ~structure:Fig7.Bst_set ~size:n ~update_pct:10
            ~title:
              (Printf.sprintf "Figure 7d: BST, N=%d (paper: 100M), 10%% updates" n)
            ());
    };
    {
      id = "7e";
      title = "Fig 7e: Natarajan-Mittal BST, 1% updates";
      run =
        (fun ctx ->
          let n = if ctx.quick then 4096 else 16384 in
          Fig7.run ~arm:ctx.arm ~threads:(sweep ctx) ~horizon:(horizon ctx 120_000)
            ~seed:ctx.seed ~structure:Fig7.Bst_set ~size:n ~update_pct:1
            ~title:
              (Printf.sprintf "Figure 7e: BST, N=%d (paper: 100K), 1%% updates" n)
            ());
    };
    {
      id = "7f";
      title = "Fig 7f: Natarajan-Mittal BST, 50% updates";
      run =
        (fun ctx ->
          let n = if ctx.quick then 4096 else 16384 in
          Fig7.run ~arm:ctx.arm ~threads:(sweep ctx) ~horizon:(horizon ctx 120_000)
            ~seed:ctx.seed ~structure:Fig7.Bst_set ~size:n ~update_pct:50
            ~title:
              (Printf.sprintf "Figure 7f: BST, N=%d (paper: 100K), 50%% updates" n)
            ());
    };
    {
      id = "serve";
      title = "Fig S: KV serving benchmark, tail latency vs offered load";
      run =
        (fun ctx ->
          Serve.run ~arm:ctx.arm ~seed:ctx.seed
            (Serve.default ~quick:ctx.quick));
    };
    {
      id = "audit-bounds";
      title = "Theorem 1/2 audit: deferred decrements vs O(P^2)";
      run =
        (fun ctx ->
          Audits.bounds ~arm:ctx.arm
            ~threads:(if ctx.quick then [ 4; 48 ] else [ 4; 16; 48; 96; 144 ])
            ~seed:ctx.seed ());
    };
    {
      id = "audit-cost";
      title = "Theorem 1 audit: constant per-operation overhead";
      run =
        (fun ctx ->
          Audits.cost ~arm:ctx.arm
            ~threads:(if ctx.quick then [ 1; 48 ] else [ 1; 4; 16; 48; 96; 144 ])
            ~seed:ctx.seed ());
    };
    {
      id = "audit-latency";
      title = "Audit: per-operation tail latency across schemes";
      run =
        (fun ctx ->
          Audits.latency ~arm:ctx.arm ~threads:(if ctx.quick then 32 else 96) ~seed:ctx.seed ());
    };
    {
      id = "ablation-eject";
      title = "Ablation: eject deamortization constant";
      run = (fun ctx -> Audits.eject_work ~arm:ctx.arm ~seed:ctx.seed ());
    };
    {
      id = "ablation-skew";
      title = "Ablation: Zipfian read skew (hash table lookups)";
      run =
        (fun ctx ->
          Audits.skew ~arm:ctx.arm ~threads:(if ctx.quick then 32 else 96) ~seed:ctx.seed ());
    };
    {
      id = "ablation-acquire";
      title = "Ablation: lock-free vs wait-free acquire";
      run =
        (fun ctx ->
          Audits.acquire_mode ~arm:ctx.arm
            ~threads:(if ctx.quick then [ 1; 48 ] else [ 1; 16; 48; 96; 144 ])
            ~seed:ctx.seed ());
    };
    {
      id = "robust";
      title = "Fig R: reclamation robustness under fault injection";
      run =
        (fun ctx ->
          let threads = match ctx.threads with Some (t :: _) -> t | _ -> 8 in
          Fig_robust.run ~arm:ctx.arm ~threads
            ~horizon:(horizon ctx 60_000)
            ~seed:ctx.seed
            ~size:16
            ~update_pct:50
            ~title:
              (Printf.sprintf
                 "Figure R: list robustness under faults, P=%d, 50%% updates"
                 threads)
            ());
    };
    {
      id = "audit-races";
      title = "Audit: race-freedom certification (FastTrack analyzer, Chaos)";
      run =
        (fun ctx ->
          Audits.races ~arm:ctx.arm ~seed:ctx.seed ~quick:ctx.quick ());
    };
  ]

let find id = List.find_opt (fun e -> e.id = id) all

(* Run [f] under the instruments [ctx] arms, then print their
   strippable blocks for experiment [id]: racecheck, telemetry,
   profile. Each block is self-contained (no blank separator lines
   inside its markers), so tools/identity.sh can cut exactly the
   marker-to-marker range and recover the unarmed output. *)
let report ctx ~id f =
  let raced = not (Simcore.Racecheck.is_off ctx.arm.config.race) in
  if ctx.stats then Simcore.Telemetry.mark ();
  if ctx.arm.profile then Simcore.Profiler.mark ();
  if raced then Simcore.Racecheck.mark ();
  f ();
  if raced then begin
    (* Reports are in cell completion order, so only a sequential pool
       is deterministic; the count always is. *)
    let reports, total = Simcore.Racecheck.recent_reports () in
    Printf.printf "--- racecheck (%s; %d reports) ---\n" id total;
    List.iter (fun r -> Printf.printf "%s\n" r) reports;
    if total > List.length reports then
      Printf.printf "  ... %d more (retention cap)\n"
        (total - List.length reports);
    Printf.printf "--- end racecheck ---\n"
  end;
  if ctx.stats then begin
    (* One heap, hence one telemetry registry, per benchmark point;
       [mark]/[merged_recent] aggregate them into the whole experiment. *)
    Printf.printf
      "\n--- telemetry (%s; summed across points, peaks maxed) ---\n" id;
    (match Simcore.Telemetry.merged_recent () with
    | [] -> print_string "  (no telemetry recorded)\n"
    | merged ->
        List.iter (fun (k, v) -> Printf.printf "  %-32s %d\n" k v) merged);
    print_newline ()
  end;
  if not ctx.arm.profile then ""
  else begin
    let profilers = Simcore.Profiler.recent () in
    Printf.printf
      "--- profile (%s; ticks by phase, cells merged by scheme) ---\n\
       %s--- end profile ---\n"
      id
      (Simcore.Profiler.report_string profilers);
    Simcore.Profiler.collapsed_string profilers
  end

let run_ids ctx ids =
  let ids =
    if List.mem "all" ids then List.map (fun e -> e.id) all else ids
  in
  (* Collapsed stacks accumulate across all requested experiments and
     land in one [--profile-out] file at the end. *)
  let collapsed = Buffer.create 256 in
  List.iter
    (fun id ->
      match find id with
      | Some e ->
          Printf.printf "\n##### %s #####\n%!" e.title;
          Buffer.add_string collapsed (report ctx ~id (fun () -> e.run ctx))
      | None ->
          failwith
            (Printf.sprintf "unknown experiment %S; known: %s" id
               (String.concat ", " (List.map (fun e -> e.id) all))))
    ids;
  match ctx.profile_out with
  | Some file ->
      let oc = open_out file in
      Buffer.output_buffer oc collapsed;
      close_out oc;
      (* stderr: stdout must stay byte-identical to an unprofiled run
         once the profile blocks are stripped. *)
      Printf.eprintf "wrote collapsed stacks to %s (flamegraph.pl input)\n"
        file
  | None -> ()
