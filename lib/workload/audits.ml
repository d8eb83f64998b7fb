module M = Simcore.Memory
module Pool = Simcore.Domain_pool
module Rng = Simcore.Rng
module Word = Simcore.Word
module Drc = Cdrc.Drc
module Ar = Acquire_retire.Ar
module Tele = Simcore.Telemetry

(* A DRC load/store mix instrumented for a given purpose. *)
let drc_run ?policy ?(mode = `Lockfree) ?(eject_work = 4) ?tracer
    ?(config = Simcore.Config.default) ~threads ~horizon ~seed ~p_store ~n_locs
    ~on_sample () =
  let mem = M.create config in
  let drc = Drc.create ~mode ~eject_work mem ~procs:threads in
  let cls = Drc.register_class drc ~tag:"obj" ~fields:1 ~ref_fields:[] in
  let h0 = Drc.handle drc (-1) in
  let locs = Array.init n_locs (fun _ -> M.alloc mem ~tag:"cell" ~size:1) in
  Array.iter (fun c -> Drc.store h0 c (Drc.make h0 cls [| 0 |])) locs;
  let handles = Array.init threads (Drc.handle drc) in
  let op pid rng =
    let c = locs.(Rng.int rng n_locs) in
    let h = handles.(pid) in
    if Rng.below rng p_store then
      Drc.store h c (Drc.make h cls [| Rng.int rng 1000 |])
    else begin
      let r = Drc.load h c in
      if not (Word.is_null r) then begin
        ignore (M.read mem (Drc.field_addr r 0));
        Drc.destruct h r
      end
    end
  in
  let pt =
    Measure.run_point ?policy ?tracer ~telemetry:(M.telemetry mem) ~config
      ~seed ~threads ~horizon ~op
      ~sample:(fun () -> on_sample drc)
      ()
  in
  Array.iter (fun c -> Drc.store h0 c Word.null) locs;
  Drc.flush drc;
  assert (M.live_with_tag mem "obj" = 0);
  (pt, M.telemetry mem)

let bounds ?(arm = Measure.unarmed)
    ?(threads = [ 4; 16; 48; 96; 144 ]) ?(seed = 42) () =
  let rows =
    Pool.map_ordered arm.Measure.pool
      ~label:(fun th -> Printf.sprintf "audit-bounds [P=%d]" th)
      (fun th ->
        let _, tele =
          drc_run ?tracer:arm.tracer ~config:arm.config ~threads:th
            ~horizon:120_000 ~seed ~p_store:0.5 ~n_locs:10
            ~on_sample:Drc.deferred_decrements ()
        in
        (* The gauges track every retire/eject, so their high-water marks
           are the exact peaks — not the sampled approximation the seed
           reported. [drc.deferred_decs] is Theorem 1's quantity,
           [ar.delayed] Theorem 2's (retired but not yet ejected). *)
        let peak_def = Tele.gauge_peak (Tele.gauge tele "drc.deferred_decs") in
        let peak_ar = Tele.gauge_peak (Tele.gauge tele "ar.delayed") in
        let bound = 8 * th * th in
        if peak_def > bound then
          failwith
            (Printf.sprintf
               "Theorem 1 bound violated at P=%d: %d deferred decrements > %d"
               th peak_def bound);
        if peak_ar > bound then
          failwith
            (Printf.sprintf
               "Theorem 2 bound violated at P=%d: %d retired-not-ejected > %d"
               th peak_ar bound);
        ( th,
          [
            float_of_int peak_def;
            float_of_int peak_ar;
            float_of_int bound;
            float_of_int peak_def /. float_of_int (th * th);
          ] ))
      threads
  in
  Tables.print_series
    ~title:
      "Audit: deferred decrements vs Theorem 1/2's O(P^2) bounds (50% \
       stores, N=10; telemetry peaks, asserted <= slots*P^2)"
    ~unit_label:"peak deferred | peak retired | slots*P^2 bound | deferred/P^2"
    ~columns:[ "peak deferred"; "peak retired"; "bound"; "ratio/P^2" ]
    ~rows ();
  (* DEBRA+'s robustness bound, audited under active adversity: with a
     reader stalled inside its critical region (the case that unbounds
     plain EBR), neutralization keeps the limbo-bag population O(P *
     batch) — each handle holds at most a bag in flight plus the chain
     a scan clears once the stalled epoch is reclaimed. The constant is
     generous; the shape (linear in P, not quadratic, not unbounded) is
     the claim. *)
  let debra_batch = 8 in
  let debra_rows =
    Pool.map_ordered arm.Measure.pool
      ~label:(fun th -> Printf.sprintf "audit-bounds [DEBRA+, P=%d]" th)
      (fun th ->
        let pt, _ =
          Fig_robust.point ?tracer:arm.tracer ~config:arm.config
            ~scheme:"DEBRA+"
            ~fault:Fig_robust.Stall_one ~threads:th ~horizon:30_000 ~seed
            ~size:16 ~update_pct:50 ()
        in
        let peak = Fig_robust.counter pt "smr.limbo_occupancy/peak" in
        let bound = 8 * th * debra_batch in
        if peak > bound then
          failwith
            (Printf.sprintf
               "DEBRA+ robustness bound violated at P=%d: %d limbo entries > %d"
               th peak bound);
        ( th,
          [
            float_of_int peak;
            float_of_int bound;
            float_of_int peak /. float_of_int th;
          ] ))
      threads
  in
  Tables.print_series
    ~title:
      "Audit: DEBRA+ limbo occupancy under a stalled pinned reader vs the \
       O(P*batch) neutralization bound"
    ~unit_label:"peak limbo entries | 8*P*batch bound | peak/P"
    ~columns:[ "peak limbo"; "bound"; "peak/P" ]
    ~rows:debra_rows ()

let cost ?(arm = Measure.unarmed)
    ?(threads = [ 1; 4; 16; 48; 96; 144 ]) ?(seed = 42) () =
  let rows =
    Pool.map_ordered arm.Measure.pool
      ~label:(fun th -> Printf.sprintf "audit-cost [P=%d]" th)
      (fun th ->
        let pt, _ =
          drc_run ?tracer:arm.tracer ~config:arm.config ~threads:th
            ~horizon:120_000 ~seed ~p_store:0.1 ~n_locs:100_000
            ~on_sample:(fun _ -> 0)
            ()
        in
        let per_op =
          float_of_int pt.Measure.makespan /. (float_of_int pt.Measure.ops /. float_of_int th)
        in
        (th, [ per_op ]))
      threads
  in
  Tables.print_series
    ~title:
      "Audit: per-operation cost vs P on the uncontended microbenchmark \
       (constant-overhead claim)"
    ~unit_label:"average simulated ticks per operation (per process)"
    ~columns:[ "ticks/op" ] ~rows ()

let eject_work ?(arm = Measure.unarmed)
    ?(work = [ 1; 2; 4; 8; 16 ]) ?(threads = 96) ?(seed = 42) () =
  let rows =
    Pool.map_ordered arm.Measure.pool
      ~label:(fun w -> Printf.sprintf "ablation-eject [work=%d]" w)
      (fun w ->
        let pt, tele =
          drc_run ?tracer:arm.tracer ~config:arm.config ~eject_work:w ~threads
            ~horizon:120_000 ~seed ~p_store:0.5 ~n_locs:10
            ~on_sample:Drc.deferred_decrements ()
        in
        let peak = Tele.gauge_peak (Tele.gauge tele "drc.deferred_decs") in
        (w, [ pt.Measure.throughput; float_of_int peak ]))
      work
  in
  Tables.print_series
    ~title:
      (Printf.sprintf
         "Ablation: eject pacing (scan steps per eject), %d threads" threads)
    ~unit_label:"throughput (ops/Mtick) | max deferred decrements"
    ~columns:[ "throughput"; "max deferred" ]
    ~rows ()

let acquire_mode ?(arm = Measure.unarmed)
    ?(threads = [ 1; 16; 48; 96; 144 ]) ?(seed = 42) () =
  let rows =
    Pool.map_grid arm.Measure.pool ~rows:threads ~cols:[ `Lockfree; `Waitfree ]
      ~label:(fun th mode ->
        Printf.sprintf "ablation-acquire [%s, P=%d]"
          (match mode with `Lockfree -> "lock-free" | `Waitfree -> "wait-free")
          th)
      (fun th mode ->
        (fst
           (drc_run ?tracer:arm.tracer ~config:arm.config ~mode ~threads:th
              ~horizon:120_000 ~seed ~p_store:0.1 ~n_locs:10
              ~on_sample:(fun _ -> 0)
              ()))
          .Measure.throughput)
  in
  Tables.print_series
    ~title:
      "Ablation: lock-free vs wait-free (swcopy) acquire on the contended \
       microbenchmark"
    ~unit_label:"throughput (ops/Mtick)"
    ~columns:[ "lock-free"; "wait-free" ]
    ~rows ()

(* Tail-latency comparison: per-operation virtual-tick distributions on
   the contended microbenchmark. Lock-free schemes retry under
   contention (long tails); the deferred scheme's operations are
   bounded. *)
let latency ?(arm = Measure.unarmed) ?(threads = 96) ?(seed = 42) () =
  let module H = Simcore.Stats.Histogram in
  let config = arm.Measure.config in
  let run (module R : Rc_baselines.Rc_intf.S) =
    let mem = M.create config in
    let t = R.create mem ~procs:threads in
    let cls = R.register_class t ~tag:"obj" ~fields:1 ~ref_fields:[] in
    let h0 = R.handle t (-1) in
    let locs = Array.init 10 (fun _ -> M.alloc mem ~tag:"cell" ~size:1) in
    Array.iter (fun c -> R.store h0 c (R.make h0 cls [| 0 |])) locs;
    let handles = Array.init threads (R.handle t) in
    let hist = H.create () in
    let op pid rng =
      let c = locs.(Rng.int rng 10) in
      let h = handles.(pid) in
      let t0 = Simcore.Proc.now () in
      (if Rng.below rng 0.2 then R.store h c (R.make h cls [| 1 |])
       else begin
         let r = R.load h c in
         if not (Word.is_null r) then R.destruct h r
       end);
      H.add hist (Simcore.Proc.now () - t0)
    in
    let _ =
      Measure.run_point ?tracer:arm.tracer ~config ~seed ~threads
        ~horizon:100_000 ~op ()
    in
    hist
  in
  (* Histograms are computed through the pool (one independent cell per
     scheme), then rendered in legend order on the calling domain. *)
  let contenders =
    List.map
      (fun name -> (name, Rc_baselines.Rc_catalogue.find name))
      [ "Folly"; "Herlihy (opt)"; "OrcGC"; "DRC (+snap)"; "DRC (wait-free)" ]
  in
  let hists =
    Pool.map_ordered arm.Measure.pool
      ~label:(fun (name, _) -> Printf.sprintf "audit-latency [%s]" name)
      (fun (_, m) -> run m)
      contenders
  in
  Printf.printf
    "\n=== Audit: per-operation latency distribution (%d threads, N=10, 20%%%% stores) ===\n\
     (virtual ticks; descheduled time included)\n"
    threads;
  List.iter2
    (fun (name, _) hist ->
      Printf.printf "  %-16s %s\n%!" name (Format.asprintf "%a" H.pp hist))
    contenders hists

(* Skewed-access ablation: Zipfian keys concentrate traffic on a few hot
   nodes; snapshot reads keep hot-node cache lines shared, while counted
   reads fight over them. Not a paper figure — an extension using the
   same machinery. *)
let skew ?(arm = Measure.unarmed) ?(threads = 96) ?(seed = 42) () =
  let size = 4096 in
  let thetas = [ 0.0; 0.5; 0.9; 0.99 ] in
  let schemes = [ "EBR"; "DRC (+snap)"; "DRC" ] in
  let config = arm.Measure.config in
  let run_point theta scheme =
    let mem = M.create config in
    let inst =
      Cds.Set_catalogue.(create Hash_set) scheme mem ~procs:threads
        ~buckets:size
    in
    for k = 0 to size - 1 do
      ignore (inst.insert (-1) (2 * k))
    done;
    let z = Simcore.Dist.Zipf.create ~n:(2 * size) ~theta in
    let op pid rng =
      ignore (inst.contains pid (Simcore.Dist.Zipf.draw z rng))
    in
    let pt =
      Measure.run_point ?tracer:arm.tracer ~config ~seed ~threads
        ~horizon:100_000 ~op ()
    in
    inst.flush ();
    pt.Measure.throughput
  in
  let rows =
    Pool.map_grid arm.Measure.pool ~rows:thetas ~cols:schemes
      ~label:(fun theta name ->
        Printf.sprintf "ablation-skew [%s, theta=%.2f]" name theta)
      run_point
    |> List.map (fun (theta, row) -> (int_of_float (theta *. 100.0), row))
  in
  Tables.print_series
    ~title:
      (Printf.sprintf
         "Ablation: Zipfian read skew on the hash table (theta x100 rows, %d           threads, lookups only)"
         threads)
    ~unit_label:"throughput (ops/Mtick)" ~columns:schemes ~rows ()

(* {1 Race-freedom certification}

   Two phases. First the whole evaluation surface — every Figure 6
   reclamation scheme, every Figure 7 structure/scheme pair, the
   wait-free (swcopy) acquire path, and the pooled allocator — runs
   under the adversarial Chaos policy with the FastTrack analyzer fully
   on, and must produce zero reports. Then three deliberately racy
   workloads run the same way and must each be caught with a two-sided
   report. A verdict table summarizes; any miss raises. *)

let chaos = Simcore.Sim.Chaos { pause_prob = 0.02; pause_steps = 200 }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let races ?(arm = Measure.unarmed) ?(seed = 42) ?(quick = false) () =
  let race = Simcore.Racecheck.default_on in
  let config = { arm.Measure.config with race } in
  let threads = if quick then 4 else 8 in
  let horizon = if quick then 10_000 else 25_000 in
  (* Clean phase. Cells are independent (own heap each) and report into
     the process-global ring, so one mark-then-sweep certifies them all
     at once, at any pool parallelism. *)
  Simcore.Racecheck.mark ();
  let loadstore_cell config (name, m) =
    ( "loadstore/" ^ name,
      fun () ->
        ignore
          (Fig6.loadstore_point ~policy:chaos ~config m ~threads ~horizon ~seed
             ~n_locs:10 ~p_store:0.5) )
  in
  let set_cell config (sname, structure, size) scheme =
    ( sname ^ "/" ^ scheme,
      fun () ->
        ignore
          (Fig7.point ~policy:chaos ~config ~structure ~scheme ~threads
             ~horizon ~seed ~size ~update_pct:30 ()) )
  in
  let fig6_cells = List.map (loadstore_cell config) Fig6.schemes in
  let structures =
    [ ("list", Fig7.List_set, 48); ("hash", Fig7.Hash_set, 64);
      ("bst", Fig7.Bst_set, 64) ]
  in
  let fig7_cells =
    List.concat_map
      (fun s -> List.map (set_cell config s) Fig7.scheme_names)
      structures
  in
  let swcopy_cell =
    ( "drc/wait-free acquire (swcopy)",
      fun () ->
        ignore
          (drc_run ~policy:chaos ~config ~mode:`Waitfree ~threads ~horizon ~seed
             ~p_store:0.3 ~n_locs:10
             ~on_sample:(fun _ -> 0)
             ()) )
  in
  (* The neutralization path is the rare multi-writer one — a scanner
     clearing a victim's announcement word while the victim re-announces
     — so the DEBRA cells run under a stall fault, forcing the DEBRA+
     cell through detection, remote clear and signal delivery with the
     analyzer on. The announcement word is [mark_race_sync]ed; a
     regression that drops that annotation fails here. *)
  let robust_cells =
    List.map
      (fun scheme ->
        ( "robust/" ^ scheme ^ "/stall",
          fun () ->
            ignore
              (Fig_robust.point ~policy:chaos ~config ~scheme
                 ~fault:Fig_robust.Stall_one ~threads ~horizon ~seed ~size:16
                 ~update_pct:50 ()) ))
      [ "DEBRA"; "DEBRA+" ]
  in
  (* The pooled allocator hands blocks between processes through its
     pools and stealing; custody must order those hand-offs too. *)
  let pooled = { config with alloc = Simcore.Config.Pooled } in
  let pooled_cells =
    List.map
      (fun (name, f) -> ("pooled/" ^ name, f))
      [ loadstore_cell pooled ("DRC", List.assoc "DRC" Fig6.schemes);
        set_cell pooled ("hash", Fig7.Hash_set, 64) "DRC" ]
  in
  let cells =
    fig6_cells @ fig7_cells @ robust_cells @ [ swcopy_cell ] @ pooled_cells
  in
  let _ =
    Pool.map_ordered arm.Measure.pool
      ~label:(fun (name, _) -> "audit-races [" ^ name ^ "]")
      (fun (_, f) -> f ())
      cells
  in
  let reports, total = Simcore.Racecheck.recent_reports () in
  if total > 0 then begin
    List.iter print_endline reports;
    failwith
      (Printf.sprintf
         "audit-races: %d race report(s) on supposedly race-free workloads"
         total)
  end;
  (* Seeded phase: each racy workload runs on its own heap (so the
     reports can be read per cell), sequentially — they are tiny. *)
  let unfenced_publication () =
    let mem = M.create config in
    let slot = M.alloc mem ~tag:"slot" ~size:1 in
    ignore
      (Simcore.Sim.run ~policy:chaos ~seed ~config ~procs:2 (fun pid ->
           if pid = 0 then begin
             let b = M.alloc mem ~tag:"payload" ~size:2 in
             M.write mem b 41;
             M.write mem (b + 1) 42;
             (* publish with a plain store: no release edge *)
             M.write mem slot b
           end
           else begin
             let rec wait () =
               let p = M.read mem slot in
               if p = 0 then wait ()
               else begin
                 ignore (M.read mem p);
                 ignore (M.read mem (p + 1))
               end
             in
             wait ()
           end));
    (M.race_reports mem, M.race_report_count mem)
  in
  let racy_counter () =
    let mem = M.create config in
    let ctr = M.alloc mem ~tag:"counter" ~size:1 in
    ignore
      (Simcore.Sim.run ~policy:chaos ~seed ~config ~procs:2 (fun _pid ->
           for _ = 1 to 50 do
             let v = M.read mem ctr in
             M.write mem ctr (v + 1)
           done));
    (M.race_reports mem, M.race_report_count mem)
  in
  let exchange_misuse () =
    let mem = M.create config in
    let slot = M.alloc mem ~tag:"xchg" ~size:1 in
    ignore
      (Simcore.Sim.run ~policy:chaos ~seed ~config ~procs:2 (fun pid ->
           if pid = 0 then begin
             let b = M.alloc mem ~tag:"gift" ~size:1 in
             M.write mem b 7;
             (* hand the block off through the exchange slot (FAS is a
                release)... *)
             ignore (M.fas mem slot b);
             (* ...then misuse it: keep writing after the hand-off. *)
             M.write mem b 8
           end
           else begin
             let rec wait () =
               let p = M.fas mem slot 0 in
               if p = 0 then wait () else ignore (M.read mem p)
             in
             wait ()
           end));
    (M.race_reports mem, M.race_report_count mem)
  in
  let seeded =
    [
      ("unfenced publication", unfenced_publication);
      ("racy plain counter", racy_counter);
      ("exchange hand-off misuse", exchange_misuse);
    ]
  in
  let seeded_rows =
    List.map
      (fun (name, f) ->
        let reports, count = f () in
        if count = 0 then
          failwith
            (Printf.sprintf "audit-races: seeded race %S was not detected" name);
        if not (List.exists (fun r -> contains r "conflicts with earlier") reports)
        then
          failwith
            (Printf.sprintf
               "audit-races: seeded race %S reported without the second side"
               name);
        (name, count))
      seeded
  in
  Tables.print_kv
    ~title:
      (Printf.sprintf
         "Audit: race-freedom certification (Chaos, analyzer %s, P=%d)"
         (Simcore.Racecheck.mode_to_string race)
         threads)
    (( "certified race-free",
       Printf.sprintf "%d/%d cells (0 reports)" (List.length cells)
         (List.length cells) )
     :: List.map
          (fun (name, count) ->
            ( "detected seeded race: " ^ name,
              Printf.sprintf "PASS (%d report%s, two-sided)" count
                (if count = 1 then "" else "s") ))
          seeded_rows)
