(** Pluggable block allocator behind the heap's alloc/free ({!Memory}).
    Two implementations share one interface:

    - {b legacy} ([Config.Legacy]): the original single global
      size-class freelist — a direct-indexed array of intrusive LIFO
      lists (plus a table for oversized classes). Constant time, but one
      shared head per class: a serial point under churn. Kept as the
      differential oracle.
    - {b pooled} ([Config.Pooled]): the Blelloch–Wei-style constant-time
      scheme from the paper's companion ("Concurrent Fixed-Size
      Allocation and Free in Constant Time"). Each process keeps, per
      size class, a private pool of at most two batches; a pool that
      overflows hands a full batch (exactly 16 blocks, chained in place
      through [Memcore.b_next]) to a shared exchange array, and a pool
      that runs dry steals one full batch back. An occupancy bitmask
      makes slot selection O(1), so no operation ever touches more than
      a constant number of batches —
      see {!max_touch} and DESIGN.md §4j for the O(1) argument.

    The allocator holds {e block ids}, never addresses, and stores
    nothing in heap words: all metadata is flat host-side int arrays
    plus the intrusive [b_next] links. Blocks in a size class are
    interchangeable (the machine model is allocation-oblivious, see
    {!Memcore.reset_lines}), so policy choice never changes simulated
    results — only telemetry ([mem.pool.*]) and, when
    [Config.alloc_contention] is on, the modeled metadata-contention
    ticks.

    Oversized classes ([size >= 512]) go through the shared
    legacy table under both policies; they are allocation sites (scheme
    announcement arrays, hash tables), not churn. *)

type t

(** Where an acquisition would be served from, decided by a pure peek
    before the tick charge: the process's own pool, a batch stolen from
    the shared exchange (or, for legacy, a head freed by another
    process), or fresh heap. {!Memory} charges the [c_alloc] pay under
    the matching profiler child ([alloc-local]/[alloc-steal]). *)
type source = Local | Steal | Fresh

type plan = { source : source; cost : int }
(** [cost] is the modeled metadata-contention surcharge in ticks; [0]
    unless the config has [alloc_contention] on. *)

val exchange_slots : int

val create :
  policy:Config.alloc_policy ->
  contended:bool ->
  Memcore.t ->
  Telemetry.t ->
  t
(** One allocator per heap. Registers the aggregate probes eagerly
    ([mem.pool.local]/[mem.pool.steals]/[mem.pool.handoffs] counters,
    [mem.pool.occupancy] gauge); per-class occupancy gauges and
    hit/miss counters ([mem.pool.occupancy\[cN\]],
    [mem.alloc.hit\[cN\]]/[mem.alloc.miss\[cN\]]) appear lazily as
    classes are used. *)

val policy : t -> Config.alloc_policy

val plan_acquire : t -> pid:int -> size:int -> plan
(** Peek at the path an acquisition would take and, when contention is
    modeled, perform the metadata coherence transitions and return
    their tick price. Mutates only the allocator's private coherence
    domain — never the freelist state, so the peek is safe across the
    yield inside the subsequent pay. *)

val acquire : t -> pid:int -> size:int -> int
(** Pop a block id of exactly [size] words, or [0] when the allocator
    has none (the caller carves fresh heap). Updates custody and
    hit/steal telemetry. *)

val plan_release : t -> pid:int -> size:int -> int
(** Metadata-contention ticks a release of a [size]-word block would
    charge ([0] with contention off); same peek discipline as
    {!plan_acquire}. *)

val release : t -> pid:int -> bid:int -> unit
(** Give a freed block back (size read from [b_size]). Pooled: pushes
    onto the process's pool, handing a full batch to the exchange on
    overflow. *)

val custody : t -> int
(** Blocks currently held (pools + exchange + legacy freelists). *)

val max_touch : t -> int
(** High-water mark of metadata pieces touched by any single pooled
    operation: exchange-slot probes plus batches walked (a batch walk is
    16 links). Bounded by [exchange_slots + 2] by
    construction — the constant-time property test pins this across
    adversarial schedules. [0] for legacy (one head per op). *)
