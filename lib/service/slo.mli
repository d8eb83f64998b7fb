(** Per-cell SLO accounting for the serving benchmark.

    A report aggregates one (scheme × offered load) cell: exact request
    counts, the virtual makespan, and the latency/queueing-delay
    distributions ({!Simcore.Stats.Histogram} merged across worker
    shards). Latency is measured arrival → completion in virtual ticks,
    so it includes queueing delay and any time the worker spent
    descheduled — exactly what a client of the service would observe. *)

(** Per-request critical-path totals for one cell, summed over its
    completed requests: where the latency ticks actually went. Only
    present when the cell ran with a {!Simcore.Profiler}
    ({!Bench.run}'s [profiler]). *)
type breakdown = {
  requests : int;  (** completed requests covered *)
  queue_wait : int;  (** arrival → serve start, summed ticks *)
  service : int;  (** serve start → completion, summed ticks *)
  retry_stall : int;
      (** ticks the worker paid under a cas-retry phase while serving *)
  reclaim_stall : int;
      (** ticks under smr-scan / drc-defer / free while serving *)
}

type report = {
  scheme : string;
  rate : int;  (** offered load, requests per kilotick *)
  offered : int;  (** requests generated *)
  completed : int;  (** requests served *)
  ok : int;  (** served within the cell's SLO budget *)
  shed : int;  (** rejected by admission control *)
  makespan : int;  (** virtual ticks, arrival window + drain *)
  latency : Simcore.Stats.Histogram.h;  (** arrival → completion *)
  queueing : Simcore.Stats.Histogram.h;  (** arrival → serve start *)
  counters : (string * int) list;  (** telemetry snapshot of the cell *)
  breakdown : breakdown option;  (** critical-path split when profiled *)
  flight : string option;
      (** the heap's flight-recorder timeline, captured when this cell
          breached its SLO (see {!Simcore.Recorder}) *)
}

val throughput : report -> float
(** Completed requests per kilotick of makespan. *)

val goodput : report -> float
(** Within-SLO completions per kilotick — the number a capacity planner
    actually buys. *)

val shed_rate : report -> float
(** Shed / offered, in [\[0, 1\]]. *)

val p999 : report -> float
(** Interpolated p99.9 of the latency distribution, in ticks. *)

val p9999 : report -> float
(** Interpolated p99.99 — the extreme tail the flight recorder and the
    critical-path split exist to explain. *)

val pass : slo:int -> report -> bool
(** p99.9 within the budget? *)

val verdict : slo:int -> report -> string
(** One-line pass/FAIL rendering with the p99.9 and shed rate. *)

val to_json : report -> string
(** The report as one flat JSON object (no newline): counts, makespan,
    derived rates, the five latency quantiles, and the critical-path
    totals when present. Collected into [--json-out] by the repro
    CLI's [serve] command. *)
