module Pool = Simcore.Domain_pool
module H = Simcore.Stats.Histogram
module Slo = Service.Slo

type params = {
  schemes : string list;
  rates : int list;
  duration : int;
  arrival : Service.Loadgen.arrival;
  key_dist : Service.Loadgen.key_dist;
  mix : Service.Loadgen.mix;
  clients : int;
  workers : int;
  keyspace : int;
  buckets : int;
  prefill : int;
  queue_cap : int;
  slo : int;
}

(* The default load sweep spans light load through saturation for the
   slowest scheme, so the tables show both the flat region (tail ≈
   service time) and the knee where queueing takes over. *)
let default ~quick =
  {
    schemes =
      (if quick then [ "EBR"; "HP"; "DRC"; "DRC (+snap)" ]
       else Service.Kv.schemes);
    rates = (if quick then [ 8; 48; 160 ] else [ 16; 64; 160; 320 ]);
    duration = (if quick then 12_000 else 40_000);
    arrival = Service.Loadgen.Poisson;
    key_dist = Service.Loadgen.Zipfian 0.9;
    mix = Service.Loadgen.default_mix;
    clients = 64;
    workers = (if quick then 8 else 16);
    keyspace = (if quick then 1024 else 4096);
    buckets = (if quick then 512 else 2048);
    prefill = (if quick then 512 else 2048);
    queue_cap = 64;
    slo = 5000;
  }

let cell (arm : Measure.arm) ~seed p rate scheme =
  let profiler = Fig6.cell_profiler ~profile:arm.profile scheme in
  let r =
    Service.Bench.run ?tracer:arm.tracer ~config:arm.config ?profiler ~seed
      {
        Service.Bench.scheme;
        rate;
        duration = p.duration;
        arrival = p.arrival;
        key_dist = p.key_dist;
        mix = p.mix;
        clients = p.clients;
        workers = p.workers;
        keyspace = p.keyspace;
        buckets = p.buckets;
        prefill = p.prefill;
        queue_cap = p.queue_cap;
        slo = p.slo;
      }
  in
  Fig6.assert_conservation scheme profiler;
  r

let grid ?(arm = Measure.unarmed) ?(seed = 42) p =
  Pool.map_grid arm.pool ~rows:p.rates ~cols:p.schemes
    ~label:(fun rate scheme -> Printf.sprintf "Fig S [%s, rate=%d]" scheme rate)
    (fun rate scheme -> cell arm ~seed p rate scheme)

let write_json file results =
  let oc = open_out file in
  let n = ref 0 in
  List.iter
    (fun (_, cells) ->
      List.iter
        (fun r ->
          output_string oc (Slo.to_json r);
          output_char oc '\n';
          incr n)
        cells)
    results;
  close_out oc;
  (* stderr: stdout must stay byte-identical to a run without
     [--json-out] (the CI profiled-vs-plain diff). *)
  Printf.eprintf "wrote %d cell reports to %s\n" !n file

let run ?arm ?json_out ?seed p =
  let results = grid ?arm ?seed p in
  let series f = List.map (fun (rate, cells) -> (rate, List.map f cells)) results in
  let subtitle =
    Format.asprintf "%a arrivals, %d workers, %d clients, cap %d"
      Service.Loadgen.pp_arrival p.arrival p.workers p.clients p.queue_cap
  in
  Tables.print_series ~row_header:"rate/kt"
    ~title:(Printf.sprintf "Figure S: p99.9 latency vs offered load (%s)" subtitle)
    ~unit_label:"ticks, arrival -> completion (interpolated p99.9)"
    ~columns:p.schemes
    ~rows:(series Slo.p999) ();
  Tables.print_series ~row_header:"rate/kt"
    ~title:"Figure S: p99.99 latency vs offered load"
    ~unit_label:"ticks, arrival -> completion (interpolated p99.99)"
    ~columns:p.schemes
    ~rows:(series Slo.p9999) ();
  Tables.print_series ~row_header:"rate/kt"
    ~title:"Figure S: median latency vs offered load"
    ~unit_label:"ticks, arrival -> completion (interpolated p50)"
    ~columns:p.schemes
    ~rows:(series (fun r -> H.quantile r.Slo.latency 0.5)) ();
  Tables.print_series ~row_header:"rate/kt"
    ~title:"Figure S: throughput vs offered load"
    ~unit_label:"completed requests per kilotick"
    ~columns:p.schemes
    ~rows:(series Slo.throughput) ();
  Tables.print_series ~row_header:"rate/kt"
    ~title:(Printf.sprintf "Figure S: goodput vs offered load (SLO %d ticks)" p.slo)
    ~unit_label:"within-SLO completions per kilotick"
    ~columns:p.schemes
    ~rows:(series Slo.goodput) ();
  Tables.print_series ~row_header:"rate/kt"
    ~title:"Figure S: shed rate vs offered load"
    ~unit_label:"percent of offered requests rejected by admission control"
    ~columns:p.schemes
    ~rows:(series (fun r -> 100.0 *. Slo.shed_rate r)) ();
  (* The critical-path decomposition is only measured when cells were
     profiled (each request's ticks split by before/after profiler group
     deltas); the four component tables say *why* a scheme's latency
     moved — queueing vs its own service time vs retry and reclamation
     stalls inside it. *)
  let breakdown_mean f r =
    match r.Slo.breakdown with
    | None -> 0.0
    | Some b ->
        float_of_int (f b) /. float_of_int (max 1 b.Slo.requests)
  in
  if List.exists (fun (_, cells) -> List.exists (fun r -> r.Slo.breakdown <> None) cells) results
  then begin
    (* Bracketed in profile markers: these tables exist only when the
       sweep was profiled, and the CI on/off byte-diff strips exactly
       the marker-to-marker ranges. *)
    print_string "--- profile (critical path) ---\n";
    List.iter
      (fun (component, f) ->
        Tables.print_series ~row_header:"rate/kt"
          ~title:
            (Printf.sprintf "Figure S: critical path — %s" component)
          ~unit_label:"mean ticks per completed request"
          ~columns:p.schemes
          ~rows:(series (breakdown_mean f)) ())
      [
        ("queue wait", fun b -> b.Slo.queue_wait);
        ("service", fun b -> b.Slo.service);
        ("retry stall (within service)", fun b -> b.Slo.retry_stall);
        ("reclamation stall (within service)", fun b -> b.Slo.reclaim_stall);
      ];
    print_string "--- end profile ---\n"
  end;
  Tables.print_kv
    ~title:(Printf.sprintf "Figure S: SLO verdicts (p99.9 <= %d ticks)" p.slo)
    (List.concat_map
       (fun (rate, cells) ->
         List.map2
           (fun scheme r ->
             ( Printf.sprintf "%s @ %d/kt" scheme rate,
               Slo.verdict ~slo:p.slo r ))
           p.schemes cells)
       results);
  (* SLO-breaching cells carry the heap's flight-recorder timeline;
     surface it only when auto-dumping is on (the CLI turns it on) so
     tests and quiet sweeps stay clean. *)
  if Simcore.Recorder.auto_dump_enabled () then
    List.iter
      (fun (rate, cells) ->
        List.iter2
          (fun scheme r ->
            match r.Slo.flight with
            | Some dump ->
                Printf.printf "\n[%s @ %d/kt]\n%s" scheme rate dump
            | None -> ())
          p.schemes cells)
      results;
  (match json_out with Some file -> write_json file results | None -> ())
