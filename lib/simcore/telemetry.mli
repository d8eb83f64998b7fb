(** Deterministic, near-zero-overhead probe registry.

    A registry holds named probes of three shapes:

    - {e counters}: monotone event counts, sharded per simulated process
      (one [int array] slot per pid) so the hot path is a single array
      store with no allocation and no contention-shaped artefacts;
    - {e gauges}: instantaneous levels with high-water tracking — the
      continuously-measured form of the paper's Theorem 1/2 bounds;
    - {e histograms}: per-process {!Stats.Histogram} shards, aggregated
      with {!Stats.Histogram.merge} at read time.

    Determinism: probes are updated only from algorithm code, keyed by
    the running process's pid, and never read wall-clock time — so for a fixed seed
    the full telemetry snapshot is bit-identical across runs, and in
    particular across [Sim.run ~fastpath:true/false] (the fast path
    preserves the instruction interleaving; telemetry only observes
    it). The invariance harness ([test/test_invariance.ml]) checks
    this.

    Probe lookups by name ([counter]/[gauge]/[hist]) are idempotent and
    hash once; store the returned probe and update it directly on hot
    paths. *)

type t

type counter

type gauge

type hist

val create : unit -> t
(** Create a registry, collected (see {!mark}/{!recent}) while a
    collection is open. {!Memory.create} makes one per simulated heap;
    subsystems sharing that heap register their probes there. The
    registry keeps the calling domain's env cell ({!Proc.here}) and
    reads the running pid from it on each update, so its probes are
    updated on that domain only, like the heap's accesses. *)

(** {1 Probe registration (idempotent)} *)

val counter : t -> string -> counter

val gauge : t -> string -> gauge

val hist : t -> string -> hist

(** {1 Hot-path updates} *)

val incr : counter -> unit
(** One plain int increment on the calling process's shard. *)

val add : counter -> int -> unit

val set_gauge : gauge -> int -> unit
(** Set the current level and fold it into the high-water mark. *)

val add_gauge : gauge -> int -> unit
(** Adjust the current level by a delta (may be negative). *)

(** {1 Reading} *)

val total : counter -> int
(** Sum over all process shards. *)

val shard : counter -> pid:int -> int
(** One process's contribution ([pid = -1] is the setup/oracle shard). *)

val gauge_value : gauge -> int

val gauge_peak : gauge -> int

val merged : hist -> Stats.Histogram.h
(** Merge all per-process shards into a fresh histogram. *)

val observe : hist -> int -> unit
(** Record a sample in the calling process's shard. *)

val snapshot : t -> (string * int) list
(** Flat, sorted view of every probe: counters as [name]; gauges as
    [name ^ "/cur"] and [name ^ "/peak"]; histograms as [name ^ "/n"],
    [name ^ "/max"], [name ^ "/p50"], [name ^ "/p99"]. This is the form
    carried on {!Workload.Measure.point} rows and compared bit-for-bit
    by the invariance harness. *)

val probes : t -> (string * string * int) list
(** Introspection for [repro probes]: every registered probe as
    [(name, kind, shards)], sorted by name. [kind] is ["counter"],
    ["gauge"] or ["hist"]; [shards] is the counter's allocated
    per-process shard capacity (grows deterministically with the pids
    that touched it), the histogram's materialized per-process shard
    count, or [1] for a gauge (gauges are unsharded). *)

val reset : t -> unit

(** {1 Global collection}

    [repro --stats] wants "everything measured during this experiment"
    without threading a registry through every figure runner, so while
    a collection is open [create] records each registry in a global
    list. A collection opens at {!mark} and closes at the next read
    ({!recent} or {!merged_recent}); registries created outside one are
    not kept, so the list holds one experiment's heaps at most. *)

val mark : unit -> unit
(** Forget all previously collected registries and open a collection. *)

val recent : unit -> t list
(** Registries created since the last {!mark}, oldest first; closes the
    collection (reading again returns the same list). Creation
    is mutex-protected, so registries made from {!Domain_pool} worker
    domains are collected too — but then "oldest" means completion
    order, which a parallel sweep does not fix; prefer
    {!merged_recent}, whose sums and maxes are order-insensitive. *)

val merged_recent : unit -> (string * int) list
(** Aggregate {!snapshot}s of all {!recent} registries (a read, so it
    closes the collection): keys ending in
    ["/peak"], ["/max"], ["/p50"] or ["/p99"] combine with [max] (sums
    of high-water marks or quantiles are meaningless), everything else
    sums. *)
