(** "Figure S": the serving benchmark sweep — tail latency vs offered
    load, per reclamation scheme.

    Rows are offered loads (requests per kilotick), columns are
    {!Service.Kv} schemes; each (rate × scheme) cell is one
    {!Service.Bench} run, independent of every other cell, so the grid
    maps through a {!Simcore.Domain_pool} with bit-identical tables at
    every parallelism level. *)

type params = {
  schemes : string list;  (** table columns; {!Service.Kv.schemes} names *)
  rates : int list;  (** table rows: offered load, requests/kilotick *)
  duration : int;  (** arrival window, ticks *)
  arrival : Service.Loadgen.arrival;
  key_dist : Service.Loadgen.key_dist;
  mix : Service.Loadgen.mix;
  clients : int;
  workers : int;
  keyspace : int;
  buckets : int;
  prefill : int;
  queue_cap : int;
  slo : int;  (** latency budget, ticks (goodput / verdicts) *)
}

val default : quick:bool -> params
(** The CLI defaults: a Poisson, Zipfian(0.9), read-heavy sweep whose
    rates span light load through saturation. [quick] shrinks every
    dimension for CI. *)

val grid :
  ?arm:Measure.arm ->
  ?seed:int ->
  params ->
  (int * Service.Slo.report list) list
(** The raw sweep: one report per (rate × scheme) cell, rows in [rates]
    order, each row's reports in [schemes] order. Every cell runs under
    [arm] (default {!Measure.unarmed}). Its [profile] gives each cell
    its own {!Simcore.Profiler} labelled by scheme (conservation
    asserted per cell) and populates the reports' critical-path
    breakdowns; the simulated results are bit-identical either way. *)

val run :
  ?arm:Measure.arm ->
  ?json_out:string ->
  ?seed:int ->
  params ->
  unit
(** Run the grid and print the Figure S tables: p99.9, p99.99 and
    median latency, throughput, goodput, shed rate, per-cell SLO
    verdicts, and — when [arm.profile] is on — the per-request
    critical-path component tables (queue wait / service / retry stall
    / reclamation stall) plus any SLO-breach flight-recorder timelines
    (only if {!Simcore.Recorder.auto_dump_enabled}). [json_out] additionally
    writes every cell's {!Service.Slo.to_json} line to the given file,
    one JSON object per line, for downstream plotting. *)
