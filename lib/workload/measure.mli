(** Throughput measurement driver for the benchmark figures.

    A benchmark point spawns [threads] processes that each run
    [op] in a loop until the virtual horizon, then reports simulated
    throughput. The unit is {e operations per megatick}: virtual ticks
    are loosely cycle-like (see {!Simcore.Config}), so shapes — scaling
    slopes, contention collapse, crossovers — are comparable with the
    paper's Mop/s plots even though absolute values are not (DESIGN.md
    §1). *)

type arm = {
  pool : Simcore.Domain_pool.t;  (** where a sweep's cells run *)
  config : Simcore.Config.t;
      (** every cell's base config: [vm], [alloc], [sanitize], [race] *)
  profile : bool;  (** one {!Simcore.Profiler} per cell, by scheme *)
  tracer : Simcore.Recorder.t option;
      (** passed to every point; the CLI only traces with [--jobs 1] *)
}
(** What every cell of a sweep runs under: the one record the sweep
    runners ({!Fig6}, {!Fig7}, {!Fig_robust}, {!Serve}, {!Audits}) take
    in place of separate options. *)

val unarmed : arm
(** Sequential pool, {!Simcore.Config.default}, no profiler, no tracer. *)

type point = {
  threads : int;
  ops : int;  (** operations completed *)
  steps : int;  (** scheduler steps (= simulated shared-memory ops) *)
  makespan : int;  (** virtual ticks *)
  throughput : float;  (** ops per megatick *)
  mem_metric : float;  (** figure-specific memory series (avg sampled) *)
  counters : (string * int) list;
      (** telemetry snapshot after the run ([[]] without [?telemetry]);
          deterministic, bit-identical across [fastpath] modes *)
}

val run_point :
  ?policy:Simcore.Sim.policy ->
  ?seed:int ->
  ?fastpath:bool ->
  ?tracer:Simcore.Recorder.t ->
  ?profiler:Simcore.Profiler.t ->
  ?telemetry:Simcore.Telemetry.t ->
  ?adversary:Simcore.Adversary.t ->
  ?compiled:Simcore.Memory.t * (Simcore.Vm.Asm.t -> pid:int -> unit) ->
  config:Simcore.Config.t ->
  threads:int ->
  horizon:int ->
  op:(int -> Simcore.Rng.t -> unit) ->
  ?sample:(unit -> int) ->
  unit ->
  point
(** [op pid rng] performs one benchmark operation. [sample] is polled
    periodically by process 0; its average over the run becomes
    [mem_metric]. Raises [Failure] if any process faulted — a benchmark
    run doubles as a memory-safety check. [fastpath] is passed to
    {!Simcore.Sim.run}; points are bit-identical either way.

    [adversary] is passed to {!Simcore.Sim.run} to fault the point
    ({e Figure R}); such a point runs in the closure driver, and
    passing it together with [compiled] raises [Invalid_argument]. A
    faulted run may end with processes parked mid-benchmark; the
    operations they completed still count. [op] is responsible for catching
    {!Simcore.Proc.Interrupted} if the point pairs the adversary with a
    neutralizing scheme.

    [compiled] is the op body's compiled form, over the given heap: when
    [config.vm] is on, the per-process benchmark loop is assembled
    around it into a {!Simcore.Vm} program and dispatched flat. Only
    Figure 6a–6d bodies have one; every other point, and every point
    under [config.vm = false], runs [op] in the closure driver. Results
    are bit-identical either way — the closure path is the oracle
    ([test/test_invariance.ml] checks this).
    [telemetry] (normally the heap's registry, {!Simcore.Memory.telemetry})
    is snapshotted into [counters] after the run.

    [profiler] is passed to {!Simcore.Sim.run}: the point's ticks are
    attributed to phases without perturbing it (bit-identical results
    with and without). The figure runners create one profiler per cell,
    labelled by scheme, so sweeps profile per-scheme.

    [tracer] is passed to {!Simcore.Sim.run}. It is an explicit per-point
    argument (the figure runners pass their {!arm}'s) rather
    than ambient state: points may execute on different
    {!Simcore.Domain_pool} worker domains, and a shared mutable tracer
    slot would be a data race. The CLI only enables tracing with
    [--jobs 1], so a trace is always a single coherent sequential
    story.

    No point forces a collection: the OCaml runtime's incremental major
    collector paces itself, and a long sweep's peak heap is lower
    without forced majors than with them (EXPERIMENTS.md, "Host-time
    A/B runs: branch-free joins, no forced majors"). *)

val default_threads : int list
(** The sweep used by the figures: 1 … 192, crossing the paper's
    144-hardware-thread oversubscription point. *)

val quick_threads : int list
