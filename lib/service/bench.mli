(** One serving-benchmark cell: a (scheme × offered load) simulation.

    A cell owns its whole universe — heap, backend, telemetry registry,
    generated traffic — so cells are independent and may run on any
    {!Simcore.Domain_pool} worker with bit-identical results. [workers]
    simulated processes each replay their shard of the schedule through
    a bounded inbox ({!Queueing}), serving requests against the
    {!Kv} backend; per-request latency is measured arrival →
    completion in virtual ticks.

    Telemetry probes on the cell's heap registry: [svc.latency] and
    [svc.queueing] histograms, [svc.inflight] (admitted-not-completed;
    its peak bounds concurrent work), [svc.queue_depth] (per-worker
    inbox depth; its peak is the deepest backlog any worker saw), and
    [svc.shed] / [svc.done] / [svc.ok] counters. With a [tracer], every
    request is bracketed in an [svc.req] span. *)

type params = {
  scheme : string;  (** a {!Kv.schemes} name *)
  rate : int;  (** offered load, requests per kilotick *)
  duration : int;  (** arrival window, ticks *)
  arrival : Loadgen.arrival;
  key_dist : Loadgen.key_dist;
  mix : Loadgen.mix;
  clients : int;
  workers : int;  (** simulated server processes *)
  keyspace : int;
  buckets : int;
  prefill : int;
  queue_cap : int;  (** per-worker inbox bound *)
  slo : int;  (** latency budget in ticks (for goodput / pass-fail) *)
}

val run :
  ?fastpath:bool ->
  ?tracer:Simcore.Recorder.t ->
  ?config:Simcore.Config.t ->
  ?profiler:Simcore.Profiler.t ->
  ?seed:int ->
  params ->
  Slo.report
(** Run the cell to completion (arrival window plus drain) and report,
    under [config] (default {!Simcore.Config.default}).
    Deterministic for a given seed; bit-identical across [fastpath]
    modes and pool placements — and with or without [profiler], which
    adds phase attribution (idle waits, the queueing overhead, and the
    backend's own annotated phases), the per-request critical-path
    split ({!Slo.breakdown}), and, on an SLO breach, the heap's
    flight-recorder timeline in {!Slo.report.flight}. Raises [Failure]
    if a worker faults — the serving benchmark doubles as a
    memory-safety check on every scheme — or if the request accounting
    does not balance. *)
