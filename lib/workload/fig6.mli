(** Runners for the paper's §7.1 reference-counting comparison
    (Figure 6): the load/store microbenchmark (6a–6d) and the concurrent
    stack benchmark (6e–6h), each sweeping thread counts over every
    scheme of {!Rc_baselines}.

    Every sweep is enumerated as a flat list of independent cells —
    (scheme × thread count) — and mapped through the
    {!Simcore.Domain_pool} of its {!Measure.arm} (default
    {!Measure.unarmed}), with bit-identical tables at any parallelism
    (each cell owns its heap, telemetry registry, and RNG stream; the
    pool preserves submission order). The arm also gives each cell its
    config, profiler and tracer. *)

val schemes : (string * (module Rc_baselines.Rc_intf.S)) list
(** The Figure 6 contenders, in the paper's legend order. *)

val cell_profiler : profile:bool -> string -> Simcore.Profiler.t option
(** [cell_profiler ~profile name] is a fresh registered profiler
    labelled [name] when [profile] is on, else [None]. All figure
    runners (here and in {!Fig7}) profile per cell, labelled by scheme,
    so a sweep's report merges into per-scheme rows. *)

val assert_conservation : string -> Simcore.Profiler.t option -> unit
(** Fail loudly if a profiled cell's per-phase tick sums do not equal
    its total simulated ticks — checked for every profiled cell of
    every figure, not just in tests. *)

val loadstore_point :
  ?policy:Simcore.Sim.policy ->
  ?fastpath:bool ->
  ?tracer:Simcore.Recorder.t ->
  ?sanitize:Simcore.Sanitizer.mode ->
  ?race:Simcore.Racecheck.mode ->
  ?config:Simcore.Config.t ->
  ?profile:bool ->
  ?on_heap:(Simcore.Memory.t -> unit) ->
  (module Rc_baselines.Rc_intf.S) ->
  threads:int ->
  horizon:int ->
  seed:int ->
  n_locs:int ->
  p_store:float ->
  Measure.point
(** One scheme at one thread count of the load/store microbenchmark.
    Exposed for the invariance harness ([test/test_invariance.ml]) and
    the perf smoke; neither [fastpath] nor [Config.vm] may change the point
    (bit-identical), under every [policy] (default [Fair]).
    [config] (default {!Simcore.Config.default}) is the cell's whole
    configuration. [sanitize] and [race] override its modes and
    [profile] arms a profiler; they exist only because perfbench calls this
    point with them, and its calls stay fixed so that its runs compare
    across commits. With the
    non-quarantine sanitizer modes and with the race checker the point
    stays bit-identical to a plain run. [on_heap] is called with the
    cell's heap after the teardown flush (tests read its sanitizer and
    race reports). *)

val loadstore :
  ?arm:Measure.arm ->
  ?threads:int list ->
  ?horizon:int ->
  ?seed:int ->
  n_locs:int ->
  p_store:float ->
  title:string ->
  with_memory:bool ->
  unit ->
  unit
(** Figures 6a (N=10, 10% stores), 6b (N=10, 50%), 6c (large N, 10%).
    [with_memory] additionally prints the Figure 6d allocated-objects
    table from the same runs. *)

val stack :
  ?arm:Measure.arm ->
  ?threads:int list ->
  ?horizon:int ->
  ?seed:int ->
  n_stacks:int ->
  init_size:int ->
  p_update:float ->
  title:string ->
  unit ->
  unit
(** Figures 6e–6g: bank of stacks, find versus pop-then-push mix. *)

val stack_memory :
  ?arm:Measure.arm ->
  ?sizes:int list ->
  ?threads:int ->
  ?horizon:int ->
  ?seed:int ->
  unit ->
  unit
(** Figure 6h: allocated versus live nodes at a fixed thread count. *)
