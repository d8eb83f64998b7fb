(* Perf smoke: a fixed quick sweep of the Figure 6a microbenchmark
   (every scheme x quick thread counts), timed in wall-clock, with one
   JSON object per run appended to BENCH_sim.json so the simulator's
   perf trajectory is tracked across commits.

     dune exec bench/perf_smoke.exe

   Wall clocks on a shared runner swing ~1.5x run to run, so every
   timed pass reports the median of three identical sweeps (the three
   must also agree bit-for-bit — a free run-to-run determinism check),
   and each row records whether the compiled VM driver was on. The CI
   perf gate lives in tools/bench_check, which compares the appended
   rows against their per-(bench, pass) history. That execution modes
   leave results unchanged is tools/identity.sh's job, not this
   file's: the passes here only time them.

   Sequential passes:
   - "fast":     fastpath on, VM on (the production configuration);
   - "fast_profiled": the fast configuration with a per-cell
                 {!Simcore.Profiler}, bounding profiling overhead;
   - "fast_raced": the fast configuration with the {!Simcore.Racecheck}
                 analyzer armed, bounding the analyzer's overhead;
   - "fast_robust": a small Figure R slice (lib/workload/fig_robust)
                 with the adversary, the sanitizer's protocol auditor
                 and DEBRA+ neutralization armed, appended under its own
                 bench id "robust_quick" — the only timed pass that
                 exercises the fault-injection machinery.

   Parallel pass ("sweep_scaling"): the same quick sweep through a
   [Simcore.Domain_pool] at jobs=1 and jobs=N; the row records the
   wall-clock speedup actually observed on this host.

   Final "service" row: the quick Figure S serving grid (lib/service),
   timed in wall-clock — real-time requests/s plus the simulated
   p99/p99.9 latency over every completed request. *)

module Config = Simcore.Config
module J = Simcore.Bench_json
module Measure = Workload.Measure
module Pool = Simcore.Domain_pool
module Fig6 = Workload.Fig6

let threads = Measure.quick_threads

let horizon = 75_000 (* the registry's quick 6a horizon *)

let seed = 42

(* The configuration every pass runs with: the REPRO_* variables, as
   the CLI reads them, so REPRO_VM=0 times the closure driver. *)
let config =
  match Config.resolve ~getenv:Sys.getenv_opt () with
  | Ok (c, _) -> c
  | Error msg ->
      prerr_endline ("perf_smoke: " ^ msg);
      exit 124

(* Sum of per-point fingerprints, telemetry included: catches any
   run-to-run divergence in results or in probes. *)
let fingerprint pts =
  List.fold_left
    (fun acc (p : Measure.point) ->
      let acc = acc lxor (p.ops * 1_000_003) lxor p.makespan in
      List.fold_left
        (fun acc (k, v) -> (acc * 131) lxor Hashtbl.hash k lxor v)
        acc p.counters)
    0 pts

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.sub s (l - ls) ls = suffix

(* Aggregate point snapshots the way the registries merge: peaks,
   maxima and quantiles max, everything else sums. *)
let merged_counter pts key =
  let is_max =
    ends_with ~suffix:"/peak" key
    || ends_with ~suffix:"/max" key
    || ends_with ~suffix:"/p50" key
    || ends_with ~suffix:"/p99" key
  in
  List.fold_left
    (fun acc (p : Measure.point) ->
      match List.assoc_opt key p.counters with
      | Some v -> if is_max then max acc v else acc + v
      | None -> acc)
    0 pts

type pass = {
  wall : float;
  steps : int;
  fp : int;
  vm : bool;
  pts : Measure.point list;
}

(* One full quick 6a sweep: every (thread count x scheme) cell, mapped
   through [pool] (row-major order — identical cell order at any jobs
   level). *)
let sweep ?(pool = Pool.sequential) ?(profile = false) ?race () =
  let t0 = Unix.gettimeofday () in
  let pts =
    Pool.map_grid pool ~rows:threads ~cols:Fig6.schemes
      ~label:(fun th (name, _) -> Printf.sprintf "6a-quick [%s, P=%d]" name th)
      (fun th (_, m) ->
        Fig6.loadstore_point ~config ~profile ?race m ~threads:th
          ~horizon ~seed ~n_locs:10 ~p_store:0.1)
    |> List.concat_map snd
  in
  let wall = Unix.gettimeofday () -. t0 in
  let steps = List.fold_left (fun a (p : Measure.point) -> a + p.steps) 0 pts in
  { wall; steps; fp = fingerprint pts; vm = config.vm; pts }

(* The single JSON-append point: every row shares the bench id and
   epoch prefix (rendered by {!Simcore.Bench_json}, the same module
   tools/bench_check parses with), each caller contributes only its
   pass-specific fields. *)
let append_row ?(bench = "fig6a_quick") fields =
  let line = J.row ~bench ~epoch:(Unix.time ()) fields in
  J.append_line line;
  print_string ("  " ^ line)

let append_pass ~pass ({ wall; steps; pts; _ } as p) =
  let c = merged_counter pts in
  let reuse = c "mem.alloc.reuse" and fresh = c "mem.alloc.fresh" in
  let reuse_rate =
    if reuse + fresh = 0 then 0.0
    else float_of_int reuse /. float_of_int (reuse + fresh)
  in
  append_row
    [
      J.str "pass" pass;
      J.str "vm" (if p.vm then "on" else "off");
      J.float "wall_s" wall;
      J.int "sim_steps" steps;
      J.float ~dec:0 "steps_per_s" (float_of_int steps /. wall);
      J.int "ar_delayed_peak" (c "ar.delayed/peak");
      J.int "drc_deferred_peak" (c "drc.deferred_decs/peak");
      J.int "ar_scan_passes" (c "ar.scan_passes");
      J.float "alloc_reuse_rate" reuse_rate;
    ]

let divergence ~what a b =
  if a.steps <> b.steps || a.fp <> b.fp then begin
    prerr_endline ("perf_smoke: DIVERGENCE — " ^ what);
    exit 1
  end

(* Median-of-3 timing: three identical sweeps, median wall, and the
   three results asserted bit-identical (run-to-run determinism). *)
let sweep3 ?profile ?race () =
  let r1 = sweep ?profile ?race () in
  let r2 = sweep ?profile ?race () in
  let r3 = sweep ?profile ?race () in
  divergence ~what:"sweep not deterministic across repeats (1 vs 2)" r1 r2;
  divergence ~what:"sweep not deterministic across repeats (1 vs 3)" r1 r3;
  let median3 a b c = max (min a b) (min (max a b) c) in
  { r1 with wall = median3 r1.wall r2.wall r3.wall }

(* Robust-figure smoke: a small Figure R slice — the schemes whose
   stall-cell behaviours differ (EBR diverges, DEBRA+ neutralizes, DRC
   is immune) — timed median-of-3 and appended under its own bench id,
   so its steps/s rides the same bench_check gate as the 6a passes.
   This is the only timed pass that arms the adversary, the sanitizer's
   protocol auditor and the signal machinery: a perf regression in any
   of those is invisible to the plain sweeps but shows up here. *)
let robust_sweep () =
  let module FR = Workload.Fig_robust in
  let cells =
    List.concat_map
      (fun scheme -> [ (scheme, FR.No_fault); (scheme, FR.Stall_one) ])
      [ "EBR"; "DEBRA+"; "DRC" ]
  in
  let one () =
    let t0 = Unix.gettimeofday () in
    let pts =
      List.map
        (fun (scheme, fault) ->
          fst
            (FR.point ~config ~scheme ~fault ~threads:8 ~horizon:8_000 ~seed
               ~size:16 ~update_pct:50 ()))
        cells
    in
    let wall = Unix.gettimeofday () -. t0 in
    let steps =
      List.fold_left (fun a (p : Measure.point) -> a + p.steps) 0 pts
    in
    { wall; steps; fp = fingerprint pts; vm = config.vm; pts }
  in
  let r1 = one () and r2 = one () and r3 = one () in
  divergence ~what:"robust slice not deterministic across repeats (1 vs 2)" r1
    r2;
  divergence ~what:"robust slice not deterministic across repeats (1 vs 3)" r1
    r3;
  let median3 a b c = max (min a b) (min (max a b) c) in
  let wall = median3 r1.wall r2.wall r3.wall in
  let c = merged_counter r1.pts in
  append_row ~bench:"robust_quick"
    [
      J.str "pass" "fast_robust";
      J.str "vm" (if r1.vm then "on" else "off");
      J.float "wall_s" wall;
      J.int "sim_steps" r1.steps;
      J.float ~dec:0 "steps_per_s" (float_of_int r1.steps /. wall);
      J.int "adv_stalls" (c "adv.stalls");
      J.int "adv_signals" (c "adv.signals");
      J.int "limbo_peak" (c "smr.limbo_occupancy/peak");
    ]

(* Parallel-sweep scaling: jobs=1 vs jobs=N wall clock. *)
let jobs_sweep () =
  let jobs = max 2 (min 4 (Domain.recommended_domain_count ())) in (* lint: allow-atomic *)
  let seq = sweep () in
  let par = Pool.with_pool ~jobs (fun pool -> sweep ~pool ()) in
  append_row
    [
      J.str "pass" "sweep_scaling";
      J.str "vm" (if seq.vm then "on" else "off");
      J.int "jobs" jobs;
      J.int "cores" (Domain.recommended_domain_count ()); (* lint: allow-atomic *)
      J.float "wall_jobs1_s" seq.wall;
      J.float "wall_jobsN_s" par.wall;
      J.float ~dec:2 "speedup" (seq.wall /. par.wall);
    ]

(* Serving-benchmark smoke: the quick Figure S grid, timed in
   wall-clock. requests/s is real-time serving throughput of the whole
   grid; p99 is the simulated tail latency over every completed request
   (latency histograms merged across cells). *)
let service_pass () =
  let module Serve = Workload.Serve in
  let module H = Simcore.Stats.Histogram in
  let p = Serve.default ~quick:true in
  let t0 = Unix.gettimeofday () in
  let reports =
    Serve.grid ~arm:{ Measure.unarmed with config } ~seed p
    |> List.concat_map snd
  in
  let wall = Unix.gettimeofday () -. t0 in
  let completed =
    List.fold_left (fun a (r : Service.Slo.report) -> a + r.completed) 0 reports
  in
  let shed =
    List.fold_left (fun a (r : Service.Slo.report) -> a + r.shed) 0 reports
  in
  let latency =
    List.fold_left
      (fun a (r : Service.Slo.report) -> H.merge a r.latency)
      (H.create ()) reports
  in
  append_row ~bench:"service_quick"
    [
      J.str "pass" "service";
      J.str "vm" (if config.vm then "on" else "off");
      J.float "wall_s" wall;
      J.int "cells" (List.length reports);
      J.int "completed" completed;
      J.int "shed" shed;
      J.float ~dec:0 "requests_per_s" (float_of_int completed /. wall);
      J.float ~dec:0 "p99_ticks" (H.quantile latency 0.99);
      J.float ~dec:0 "p999_ticks" (H.quantile latency 0.999);
    ]

let () =
  print_endline "=== perf smoke: fig 6a quick sweep (appends BENCH_sim.json) ===";
  append_pass ~pass:"fast" (sweep3 ());
  append_pass ~pass:"fast_profiled" (sweep3 ~profile:true ());
  append_pass ~pass:"fast_raced"
    (sweep3 ~race:Simcore.Racecheck.default_on ());
  robust_sweep ();
  jobs_sweep ();
  service_pass ()
