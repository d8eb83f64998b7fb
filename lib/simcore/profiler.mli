(** Deterministic virtual-time attribution.

    A profiler charges every simulated tick of one benchmark cell to a
    small explicit phase stack. The charge itself happens in
    {!Proc.charge}, called once per pay, which stores into the
    per-process counts held in [Proc.prof]; this module owns
    the taxonomy, the stack (a trie of slots: entering and leaving a
    phase are array loads), the conservation check and the reports.

    Profiling is opt-in per {!Sim.run} (its [?profiler] argument) and
    zero-perturbation: it pays nothing, draws no randomness and touches
    no telemetry, so simulated results are bit-identical with it on or
    off — the profiled run only *observes* where ticks go.

    Conservation invariant: clocks advance only through pays, and every
    pay charges exactly once, so {!total} equals the sum of per-core
    clocks accumulated by {!add_expected} — exactly. *)

type phase =
  | Traverse  (** structure traversal: the root / default phase *)
  | Cas_retry  (** re-running an optimistic section after a lost race *)
  | Alloc
  | Free
  | Smr_scan  (** SMR reservation scans (EBR/HP/HE/IBR, HP-like RC) *)
  | Drc_defer  (** deferred-decrement machinery: announce/retire/eject *)
  | Coherence  (** cache-coherence penalty: cost above the owned/L1 floor *)
  | Queueing  (** service layer: admission and dispatch overhead *)
  | Idle  (** service layer: worker waiting for the next arrival *)
  | Alloc_local
      (** child of {!Alloc}: acquisition served from a warm source —
          the process's own pool (pooled) or a self-freed head
          (legacy) *)
  | Alloc_steal
      (** child of {!Alloc}: acquisition that crossed processes — a
          batch stolen from the exchange (pooled) or a head freed by
          another process (legacy) *)

val phases : phase list
(** All phases, in report column order. *)

val phase_name : phase -> string

type t

val create : ?label:string -> unit -> t
(** Create a profiler (one per benchmark cell; single-domain) and
    append it to the global collection list (see {!mark}/{!recent}). *)

val pstate : t -> pid:int -> Proc.prof
(** The per-process counting state for [pid], created on first use and
    reused across runs. {!Sim.run} installs it in the process's env. *)

val add_expected : t -> int -> unit
(** Accumulate a run's total simulated ticks (sum of its result
    clocks); {!Sim.run} calls this once per profiled run. *)

val expected : t -> int

(** {1 Phase stack}

    All three are no-ops outside a profiled simulation, so annotation
    sites in scheme code cost one domain-local read when profiling is
    off. [exit] without a matching [enter] is tolerated (no-op). *)

val active : unit -> bool
(** The calling simulated process is profiled. Compiled streams are
    assembled inside their process (see {!Sim.run}'s [coroutine]), so
    an emitter asks this to decide whether to emit phase annotations. *)

val enter : phase -> unit

val exit : unit -> unit

val with_phase : phase -> (unit -> 'a) -> 'a

val enter_env : Proc.env -> phase -> unit
(** [enter] with the process's env in hand (as read from a held
    {!Proc.here} cell): no domain-local read. *)

val exit_env : Proc.env -> unit

(** {1 Reading} *)

val total : t -> int
(** Sum of all charged ticks across processes and slots. *)

val conservation_ok : t -> bool
(** [total t = expected t]. *)

val leaf_totals : t -> (phase * int) list
(** Ticks aggregated by the top of the stack they were charged under
    (root ticks count as {!Traverse}), in {!phases} order. *)

val group_snapshot : t -> Proc.prof -> int * int * int
(** [(total, retry_stall, reclamation_stall)] tick sums for one
    process: a tick is a retry stall if its stack contains
    {!Cas_retry}, a reclamation stall if it contains {!Smr_scan},
    {!Drc_defer} or {!Free}. The service layer takes before/after
    deltas of this around each request. *)

val collapsed : t -> (string * int) list
(** flamegraph.pl folded stacks: ["label;phase;phase", ticks],
    sorted. *)

(** {1 Reports} *)

val report_string : t list -> string
(** Per-label breakdown table (cells sharing a label merge): total,
    one column per phase (leaf aggregation) and the conservation
    verdict. Rendered to a string so callers print atomically. *)

val collapsed_string : t list -> string
(** All collapsed stacks, one ["path count"] line each — the
    [--profile-out] payload. *)

(** {1 Global collection} *)

val mark : unit -> unit
(** Forget all previously created profilers. *)

val recent : unit -> t list
(** Profilers created since the last {!mark}, oldest first (mutex
    protected; see {!Telemetry.recent} for the ordering caveat under
    parallel sweeps — {!report_string} merges by label, which is
    order-insensitive). *)
