(** Empirical audits of the paper's theorems and design choices.

    - [bounds]: Theorem 1/2 space audit — the telemetry high-water marks
      of outstanding deferred decrements ([drc.deferred_decs]) and
      retired-not-ejected handles ([ar.delayed]), against the O(P²)
      bound (announcement slots per process × P²). Raises [Failure] if
      either peak exceeds the bound.
    - [cost]: the constant-time-overhead claim — average simulated ticks
      per operation as P grows (Theorem 1: O(1) time for load, expected
      O(1) for store/CAS).
    - [eject_work]: DESIGN.md ablation — deamortization constant versus
      throughput and deferred memory.
    - [acquire_mode]: lock-free versus wait-free (swcopy) acquire
      (§7: "as fast as the lock-free one after applying a fast-path
      slow-path methodology").

    Like the figure runners, every audit takes one {!Measure.arm}
    (default {!Measure.unarmed}): its sweep's independent cells map
    through the arm's pool, with bit-identical results and tables at
    any parallelism level, and each cell builds on the arm's config. *)

val bounds :
  ?arm:Measure.arm ->
  ?threads:int list ->
  ?seed:int ->
  unit ->
  unit

val cost :
  ?arm:Measure.arm ->
  ?threads:int list ->
  ?seed:int ->
  unit ->
  unit

val eject_work :
  ?arm:Measure.arm ->
  ?work:int list ->
  ?threads:int ->
  ?seed:int ->
  unit ->
  unit

val acquire_mode :
  ?arm:Measure.arm ->
  ?threads:int list ->
  ?seed:int ->
  unit ->
  unit

val latency :
  ?arm:Measure.arm ->
  ?threads:int ->
  ?seed:int ->
  unit ->
  unit
(** Per-operation virtual-tick latency distributions on the contended
    microbenchmark — the tail behaviour that separates wait-free from
    merely lock-free schemes. *)

val skew :
  ?arm:Measure.arm ->
  ?threads:int ->
  ?seed:int ->
  unit ->
  unit
(** Zipfian read-skew ablation on the hash table: snapshot reads versus
    counted reads versus epochs as key popularity concentrates. *)

val races :
  ?arm:Measure.arm ->
  ?seed:int ->
  ?quick:bool ->
  unit ->
  unit
(** Race-freedom certification sweep: every reclamation scheme of
    Figure 6, every Figure 7 structure/scheme pair, swcopy, and the
    pooled allocator run under the adversarial [Chaos] policy with the
    {!Simcore.Racecheck} analyzer fully on ([hb]+[custody], whatever
    the arm's [race] mode), asserting
    zero reports; then three deliberately racy workloads
    (publication without a release fence, a plain shared counter, and
    a write to a block already handed off through free) are run the
    same way and must each be detected with a two-sided report.
    Prints a verdict table; raises [Failure] on any miss. *)
