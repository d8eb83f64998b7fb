(* The reproduction CLI: list and run the paper's experiments.

     repro list
     repro run 6a 7c --threads 1,48,144
     repro run all --quick
*)

open Cmdliner

let list_cmd =
  let doc = "List every reproducible experiment (tables/figures/audits)." in
  let run () =
    List.iter
      (fun e -> Printf.printf "%-16s %s\n" e.Workload.Registry.id e.title)
      Workload.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let threads_arg =
  let doc =
    "Comma-separated thread counts to sweep (e.g. 1,48,144,192), each \
     between 1 and 1023."
  in
  Arg.(value & opt (some (list int)) None & info [ "threads"; "t" ] ~doc)

(* Sim.run refuses the same counts; checking them here gives the
   flag's wording before any cell starts. *)
let check_threads = function
  | Some l when List.exists (fun n -> n < 1 || n > Simcore.Sim.max_procs) l ->
      Error
        (Printf.sprintf "--threads values must be between 1 and %d"
           Simcore.Sim.max_procs)
  | _ -> Ok ()

let quick_arg =
  let doc = "Smaller sweeps, horizons and workload sizes." in
  Arg.(value & flag & info [ "quick"; "q" ] ~doc)

let seed_arg =
  let doc = "Deterministic simulation seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc)

let ids_arg =
  let doc = "Experiment ids (see $(b,repro list)); $(b,all) runs everything." in
  Arg.(non_empty & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc)

let stats_arg =
  let doc =
    "Print a merged telemetry summary (counters, gauge peaks, histogram \
     quantiles) after each experiment."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let profile_arg =
  let doc =
    "Attribute every simulated tick of every benchmark cell to a phase \
     (traverse, cas-retry, alloc/free, smr-scan, drc-defer, \
     coherence-penalty, queueing, idle) and print a per-scheme breakdown \
     block after each experiment. Profiling only observes the run: the \
     tables themselves are byte-identical with or without this flag, and \
     per-phase tick sums are asserted to equal total simulated ticks for \
     every cell."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let profile_out_arg =
  let doc =
    "Write flamegraph.pl-compatible collapsed phase stacks (one \
     'scheme;phase;... ticks' line per stack) to $(docv); implies \
     $(b,--profile)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Write a Chrome trace-event JSON file of the most recent simulation \
     events (load in chrome://tracing or Perfetto). Tracing records one \
     sequential story of the run, so it is incompatible with parallel \
     sweep execution: combining $(b,--trace-out) with $(b,--jobs) > 1 is \
     an error."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let sanitize_arg =
  let doc =
    "Run every benchmark cell under the heap sanitizer. $(docv) is a \
     comma-separated subset of $(b,shadow) (allocation/free provenance), \
     $(b,quarantine)[=N] (delay freed-block reuse by N frees, poisoned), \
     $(b,protocol) (SMR protection auditing), $(b,leaks) (leak-site \
     attribution), or $(b,all); bare $(b,--sanitize) enables \
     shadow,protocol,leaks. All modes except $(b,quarantine) leave the \
     simulation unperturbed, so the printed tables stay byte-identical \
     to an unsanitized run. Defaults to the $(b,REPRO_SANITIZE) \
     environment variable, if set."
  in
  Arg.(
    value
    & opt ~vopt:(Some "default") (some string) None
    & info [ "sanitize" ] ~docv:"MODES" ~doc)

let race_arg =
  let doc =
    "Run every benchmark cell under the FastTrack happens-before race \
     and publication analyzer. $(docv) is a comma-separated subset of \
     $(b,hb) (report unsynchronized conflicting accesses) and \
     $(b,custody) (order allocation hand-offs through free/retire), or \
     $(b,all); bare $(b,--race) enables both. The analyzer pays no \
     simulated ticks, so the printed tables stay byte-identical to an \
     unraced run; each experiment is followed by a strippable \
     $(b,--- racecheck ---) report block. Defaults to the \
     $(b,REPRO_RACE) environment variable, if set."
  in
  Arg.(
    value
    & opt ~vopt:(Some "default") (some string) None
    & info [ "race" ] ~docv:"MODES" ~doc)

let no_vm_arg =
  let doc =
    "Run workload inner loops through the closure interpreter instead of \
     the compiled $(b,Simcore.Vm) instruction streams. Output is \
     byte-identical either way (the closure path is the differential \
     oracle); the flag exists for A/B timing and debugging. Also \
     settable with $(b,REPRO_VM=0)."
  in
  Arg.(value & flag & info [ "no-vm" ] ~doc)

let alloc_arg =
  let doc =
    "Allocator backing the simulated heap: $(b,legacy) (single global \
     size-class freelist, the differential oracle) or $(b,pooled) \
     (constant-time per-process pools with balanced stealing through a \
     shared exchange). Benchmark tables are byte-identical either way — \
     the machine model is allocation-oblivious; the policies differ in \
     allocator telemetry ($(b,mem.pool.*)) and in allocator-metadata \
     contention, which only $(b,Config.alloc_contention) models (off in \
     every figure). Also \
     settable with $(b,REPRO_ALLOC)."
  in
  Arg.(
    value & opt (some string) None & info [ "alloc" ] ~docv:"POLICY" ~doc)

let jobs_arg =
  let doc =
    "Run benchmark cells on $(docv) worker domains. Every cell of a sweep \
     is an isolated deterministic simulation, so the printed tables, \
     memory metrics and telemetry are byte-identical for any $(docv) — \
     parallelism only changes wall-clock time. Defaults to the \
     $(b,REPRO_JOBS) environment variable, or 1 (fully sequential)."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* Events kept per simulated process: enough for the tail of a quick
   run (the 144-process cells keep about 258k in all); each ring keeps
   its newest events. *)
let trace_capacity = 1792

(* The one way a command arms its cells: the flags, else the REPRO_*
   variables, resolved into a config and a job count, or the first
   malformed value's error. [probes] takes none of the flags, so its
   config comes from the variables alone, refused the same way. *)
let config_term =
  Term.(
    const (fun no_vm alloc sanitize race jobs ->
        Simcore.Config.resolve ~getenv:Sys.getenv_opt ~no_vm ?alloc ?sanitize
          ?race ?jobs ())
    $ no_vm_arg $ alloc_arg $ sanitize_arg $ race_arg $ jobs_arg)

let env_config_term =
  Term.(
    const (fun () -> Simcore.Config.resolve ~getenv:Sys.getenv_opt ())
    $ const ())

let trace_jobs_error =
  "--trace-out records a single sequential event stream and cannot be \
   combined with --jobs > 1; rerun with --jobs 1 (or drop --trace-out)"

(* Run [f pool tracer] on a [jobs]-domain pool and write the trace;
   a failing experiment or benchmark cell becomes the command's error. *)
let run_cells ~jobs ~trace_out f =
  if trace_out <> None && jobs > 1 then `Error (false, trace_jobs_error)
  else begin
    let tracer =
      match trace_out with
      | None -> None
      | Some _ -> Some (Simcore.Recorder.create ~capacity:trace_capacity ())
    in
    let res =
      Simcore.Domain_pool.with_pool ~jobs (fun pool ->
          match f pool tracer with
          | () -> `Ok ()
          | exception Failure msg -> `Error (false, msg)
          | exception Simcore.Domain_pool.Job_error { label; exn; _ } ->
              `Error
                ( false,
                  Printf.sprintf "benchmark cell %s failed: %s" label
                    (Printexc.to_string exn) ))
    in
    (match (trace_out, tracer) with
    | Some file, Some tr ->
        let oc = open_out file in
        Simcore.Recorder.chrome_json oc tr;
        close_out oc;
        Printf.printf "\nwrote Chrome trace to %s\n" file
    | _ -> ());
    res
  end

let run_cmd =
  let doc = "Run experiments and print their tables." in
  let run threads quick seed stats profile profile_out trace_out resolved ids =
    match (resolved, check_threads threads) with
    | Error msg, _ | _, Error msg -> `Error (false, msg)
    | Ok (config, jobs), Ok () ->
        let profile = profile || profile_out <> None in
        run_cells ~jobs ~trace_out (fun pool tracer ->
            Workload.Registry.run_ids
              {
                Workload.Registry.threads;
                quick;
                seed;
                stats;
                profile_out;
                arm = { Workload.Measure.pool; config; profile; tracer };
              }
              ids)
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ threads_arg $ quick_arg $ seed_arg $ stats_arg
       $ profile_arg $ profile_out_arg $ trace_out_arg $ config_term $ ids_arg))

(* {1 The serving benchmark (Figure S)} *)

let parse_mix s =
  let bad () =
    Error
      (Printf.sprintf
         "bad --mix %S: expected GETS:PUTS:REMOVES percentages summing to \
          100, e.g. 90:5:5"
         s)
  in
  match String.split_on_char ':' s with
  | [ g; p; r ] -> (
      match (int_of_string_opt g, int_of_string_opt p, int_of_string_opt r)
      with
      | Some gets, Some puts, Some removes
        when Service.Loadgen.mix_valid { gets; puts; removes } ->
          Ok { Service.Loadgen.gets; puts; removes }
      | _ -> bad ())
  | _ -> bad ()

let parse_dist s =
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "uniform" ] -> Ok Service.Loadgen.Uniform
  | [ "zipf" ] -> Ok (Service.Loadgen.Zipfian 0.9)
  | [ "zipf"; theta ] -> (
      match float_of_string_opt theta with
      | Some t when t >= 0.0 && t < 1.0 -> Ok (Service.Loadgen.Zipfian t)
      | _ ->
          Error
            (Printf.sprintf
               "bad --dist %S: zipf theta must be a float in [0, 1)" s))
  | _ ->
      Error
        (Printf.sprintf
           "bad --dist %S: expected uniform, zipf, or zipf:THETA" s)

let parse_arrival s =
  let bad () =
    Error
      (Printf.sprintf
         "bad --arrival %S: expected fixed, poisson, burst:ON:OFF (ticks), \
          or closed:THINK (ticks)"
         s)
  in
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "fixed" ] -> Ok Service.Loadgen.Fixed
  | [ "poisson" ] -> Ok Service.Loadgen.Poisson
  | [ "burst"; on; off ] -> (
      match (int_of_string_opt on, int_of_string_opt off) with
      | Some on, Some off when on > 0 && off >= 0 ->
          Ok (Service.Loadgen.Bursty { on; off })
      | _ -> bad ())
  | [ "closed"; think ] -> (
      match int_of_string_opt think with
      | Some think when think >= 0 -> Ok (Service.Loadgen.Closed { think })
      | _ -> bad ())
  | _ -> bad ()

let serve_env name = Cmd.Env.info name

let rate_arg =
  let doc =
    "Comma-separated offered loads to sweep (table rows), in requests per \
     kilotick."
  in
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "rate"; "r" ] ~docv:"RATES" ~doc
        ~env:(serve_env "REPRO_SERVE_RATE"))

let duration_arg =
  let doc = "Arrival window in virtual ticks." in
  Arg.(
    value
    & opt (some int) None
    & info [ "duration" ] ~docv:"TICKS" ~doc
        ~env:(serve_env "REPRO_SERVE_DURATION"))

let mix_arg =
  let doc =
    "Operation mix as GETS:PUTS:REMOVES percentages (must sum to 100)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "mix" ] ~docv:"G:P:R" ~doc ~env:(serve_env "REPRO_SERVE_MIX"))

let dist_arg =
  let doc =
    "Key popularity: $(b,uniform), $(b,zipf) (theta 0.9), or \
     $(b,zipf:THETA) with theta in [0, 1)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "dist" ] ~docv:"DIST" ~doc ~env:(serve_env "REPRO_SERVE_DIST"))

let arrival_arg =
  let doc =
    "Arrival process: $(b,fixed), $(b,poisson), $(b,burst:ON:OFF) (Poisson \
     gated by an on/off cycle of ON active and OFF silent ticks), or \
     $(b,closed:THINK) (closed loop, THINK ticks between a completion and \
     the next request; no inbox, so $(b,--queue-cap) does not apply)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "arrival" ] ~docv:"ARRIVAL" ~doc
        ~env:(serve_env "REPRO_SERVE_ARRIVAL"))

let json_out_arg =
  let doc =
    "Write every (scheme × rate) cell's report as one flat JSON object \
     per line to $(docv) (latency quantiles through p99.99, throughput, \
     goodput, shed rate, and — with $(b,--profile) — the critical-path \
     breakdown), for downstream plotting."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "json-out" ] ~docv:"FILE" ~doc)

let queue_cap_arg =
  let doc =
    "Per-worker inbox capacity; an arrival that finds the inbox full is \
     shed. Incompatible with a closed-loop $(b,--arrival)."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "queue-cap" ] ~docv:"N" ~doc
        ~env:(serve_env "REPRO_SERVE_QUEUE_CAP"))

let serve_cmd =
  let doc =
    "Run the KV serving benchmark (Figure S): a simulated serving stack — \
     open-loop traffic generation, bounded per-worker inboxes with \
     shed-on-overflow admission control, and SLO accounting — sweeping \
     offered load (rows) across reclamation schemes (columns)."
  in
  let ( let* ) r f = match r with Error msg -> `Error (false, msg) | Ok v -> f v in
  let run quick seed stats profile json_out trace_out resolved rates duration
      mix dist arrival queue_cap =
    let* config, jobs = resolved in
    let* mix =
      match mix with
      | None -> Ok None
      | Some s -> Result.map Option.some (parse_mix s)
    in
    let* key_dist =
      match dist with
      | None -> Ok None
      | Some s -> Result.map Option.some (parse_dist s)
    in
    let* arrival =
      match arrival with
      | None -> Ok None
      | Some s -> Result.map Option.some (parse_arrival s)
    in
    let* rates =
      match rates with
      | None -> Ok None
      | Some l when l <> [] && List.for_all (fun r -> r > 0) l -> Ok (Some l)
      | Some _ -> Error "--rate values must be positive"
    in
    let* duration =
      match duration with
      | None -> Ok None
      | Some d when d > 0 -> Ok (Some d)
      | Some _ -> Error "--duration must be positive"
    in
    let* queue_cap =
      match queue_cap with
      | None -> Ok None
      | Some c when c >= 1 -> Ok (Some c)
      | Some _ -> Error "--queue-cap must be >= 1"
    in
    let* () =
      match (arrival, queue_cap) with
      | Some (Service.Loadgen.Closed _), Some _ ->
          Error
            "--queue-cap does not apply to a closed-loop --arrival: a \
             closed loop has no inbox (each client waits for its previous \
             request to complete), so nothing is ever queued or shed"
      | _ -> Ok ()
    in
    let d = Workload.Serve.default ~quick in
    let override o v = match o with Some x -> x | None -> v in
    let params =
      {
        d with
        Workload.Serve.rates = override rates d.Workload.Serve.rates;
        duration = override duration d.Workload.Serve.duration;
        mix = override mix d.Workload.Serve.mix;
        key_dist = override key_dist d.Workload.Serve.key_dist;
        arrival = override arrival d.Workload.Serve.arrival;
        queue_cap = override queue_cap d.Workload.Serve.queue_cap;
      }
    in
    run_cells ~jobs ~trace_out (fun pool tracer ->
        let ctx =
          {
            Workload.Registry.default_ctx with
            seed;
            stats;
            arm = { Workload.Measure.pool; config; profile; tracer };
          }
        in
        ignore
          (Workload.Registry.report ctx ~id:"serve" (fun () ->
               Workload.Serve.run ~arm:ctx.arm ?json_out ~seed params)))
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ quick_arg $ seed_arg $ stats_arg $ profile_arg
       $ json_out_arg $ trace_out_arg $ config_term $ rate_arg $ duration_arg
       $ mix_arg $ dist_arg $ arrival_arg $ queue_cap_arg))

(* {1 Probe discovery} *)

let probes_cmd =
  let doc =
    "List every telemetry probe (name, kind, shard count) that \
     $(b,--stats) can report, discovered by instantiating one tiny cell \
     of each benchmark universe (RC microbenchmark, SMR structure, \
     serving stack) — probes register when subsystems are built."
  in
  let run = function
    | Error msg -> `Error (false, msg)
    | Ok (config, _) ->
    Simcore.Telemetry.mark ();
    let drc = List.assoc "DRC (+snap)" Workload.Fig6.schemes in
    ignore
      (Workload.Fig6.loadstore_point ~config drc ~threads:3 ~horizon:2_000
         ~seed:42 ~n_locs:8 ~p_store:0.3);
    ignore
      (Workload.Fig7.point ~config ~structure:Workload.Fig7.List_set
         ~scheme:"HP" ~threads:3 ~horizon:2_000 ~seed:42 ~size:16
         ~update_pct:10 ());
    let d = Workload.Serve.default ~quick:true in
    ignore
      (Workload.Serve.grid ~arm:{ Workload.Measure.unarmed with config }
         ~seed:42
         {
           d with
           Workload.Serve.schemes = [ "DRC" ];
           rates = [ 8 ];
           duration = 2_000;
           clients = 8;
           workers = 4;
           keyspace = 256;
           buckets = 64;
           prefill = 64;
         });
    (* Merge across the sample cells' registries: same-named probes keep
       their kind and the widest shard count seen. *)
    let merged : (string, string * int) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun t ->
        List.iter
          (fun (name, kind, shards) ->
            match Hashtbl.find_opt merged name with
            | None -> Hashtbl.add merged name (kind, shards)
            | Some (k, s) -> Hashtbl.replace merged name (k, max s shards))
          (Simcore.Telemetry.probes t))
      (Simcore.Telemetry.recent ());
    let rows =
      Hashtbl.fold (fun name (kind, shards) acc -> (name, kind, shards) :: acc)
        merged []
      |> List.sort compare
    in
    Printf.printf "%-36s %-8s %s\n" "probe" "kind" "shards";
    List.iter
      (fun (name, kind, shards) ->
        Printf.printf "%-36s %-8s %d\n" name kind shards)
      rows;
    Printf.printf "\n%d probes (see repro run --stats / serve --stats)\n"
      (List.length rows);
    `Ok ()
  in
  Cmd.v (Cmd.info "probes" ~doc) Term.(ret (const run $ env_config_term))

let main =
  let doc =
    "Reproduction of 'Concurrent Deferred Reference Counting with \
     Constant-Time Overhead' (PLDI 2021) on a simulated multiprocessor"
  in
  Cmd.group (Cmd.info "repro" ~version:"1.0.0" ~doc)
    [ list_cmd; run_cmd; serve_cmd; probes_cmd ]

let () =
  (* The CLI always wants failure timelines; tests that probe the fault
     machinery on purpose leave auto-dumping off (the default). *)
  Simcore.Recorder.set_auto_dump true;
  exit (Cmd.eval main)
