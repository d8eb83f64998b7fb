(** The heap sanitizer: shadow provenance, quarantine, SMR protocol
    auditing, and leak attribution for the simulated heap.

    The base {!Memory} only faults on a dereference of a *currently
    freed* address: once the freelist reuses the block, a stale pointer
    silently reads the new occupant, and nothing checks the protection
    protocol itself (a [free] racing an active acquire goes unnoticed
    until it corrupts something). The sanitizer turns both into checked
    guarantees. Four checkers, independently toggleable via {!mode} on
    [Config.t]:

    - {b shadow provenance} ([shadow]): every block carries its
      alloc/free sites (pid, virtual time) and a small ring of recent
      operations, so any [Memory.Fault] is rendered as an ASan-style
      report naming who allocated, who freed, and who tripped.
    - {b quarantine} ([quarantine] = depth [N]): freed blocks are
      poisoned with a sentinel and held out of the freelist for the next
      [N] frees, so an ABA-masked use-after-free (stale pointer
      dereferenced {e after} reuse) faults instead of silently reading
      the new block. Delaying reuse changes the address stream and hence
      the coherence-modelled tick counts, so — exactly like ASan
      changing heap layout — quarantine is the one mode that perturbs
      benchmark numbers; it is excluded from the default mode set.
    - {b protection auditor} ([protocol]): [Acquire_retire] and the SMR
      schemes annotate their linearization points
      (slot protections, epoch windows, retire notes). The online
      checker faults any [free] of a block some process still protects,
      any dereference of an SMR-tracked block outside a protection
      window, and any double retire. Only {e validated} protections are
      registered (an under-approximation), so every violation it reports
      is genuine.
    - {b leak attribution} ([leaks]): end-of-run leaks grouped by
      allocation site (tag × allocating pid), not just tag.

    All bookkeeping is driven by virtual time ({!Proc.global_now}) and
    simulation pids, so reports and probe values are deterministic and
    bit-identical across fastpath on/off and [--jobs] values. The
    non-quarantine modes never touch the heap's address stream or charge
    ticks, so a clean run under [shadow,protocol,leaks] produces
    byte-identical tables to an unsanitized run.

    This module owns the per-block state and charges no ticks. It
    shadows one heap ({!Memory} hands it the {!Memcore.t} at creation
    and reports each heap event by block id; see {!on_alloc}); the
    reclamation layers call the protocol annotations with the
    addresses they protect. Probes ([san.quarantined] gauge,
    [san.reports] counter) are registered {e lazily} in the heap's
    {!Telemetry} registry on first use, so a clean sanitized run's
    telemetry snapshot is identical to an unsanitized one. *)

(** {1 Mode selection} *)

type mode = {
  shadow : bool;  (** provenance records + ASan-style fault reports *)
  quarantine : int;
      (** quarantine depth in blocks; [0] disables. The only mode that
          perturbs benchmark tables (it delays freelist reuse). *)
  protocol : bool;  (** SMR protection auditing *)
  leaks : bool;  (** leak-site attribution *)
}

val off : mode
(** All checkers disabled — the default on [Config.t]. *)

val default_on : mode
(** The zero-perturbation set: [shadow], [protocol] and [leaks] on,
    [quarantine] off. What bare [--sanitize] enables; benchmark tables
    stay byte-identical to an unsanitized run. *)

val all_on : mode
(** Everything, with [quarantine = default_quarantine]. *)

val default_quarantine : int
(** Quarantine depth used by the bare [quarantine] token (64). *)

val is_off : mode -> bool

val mode_of_string : string -> (mode, string) result
(** Parse a [--sanitize]/[REPRO_SANITIZE] spec: a comma-separated list
    of [shadow], [quarantine], [quarantine=N], [protocol], [leaks],
    [all], or [default]/[on] (= {!default_on}). [off]/[none] (alone)
    is {!off}. Unknown tokens are an [Error]. *)

val mode_to_string : mode -> string
(** Canonical inverse of {!mode_of_string} (e.g.
    ["shadow,quarantine=64,protocol,leaks"] or ["off"]). *)

(** {1 Sanitizer instance}

    One per heap, created by [Memory.create]; always present so callers
    need no option-plumbing — with {!is_off} mode every entry point is a
    cheap no-op. *)

type t

val create : mode -> Telemetry.t -> Memcore.t -> t
(** [create mode tele heap]: an instance shadowing [heap]'s blocks. *)

val mode : t -> mode

val pack : int -> int -> int -> int
(** [pack ev pid time]: one recent-op ring entry, the pid clamped to
    [-2, 4093]. Exposed for tests. *)

(** {1 Heap events}

    One shadow record per heap block id, owned here and reused across
    the block's lifetimes with a generation counter: its allocation and
    free sites, whether it is SMR-tracked, retired or quarantined, and
    a ring of its recent operations. {!Memory} reports each event once,
    by block id, after validating the address and only while the
    sanitizer is armed. Where the heap must act, the event returns a
    verdict: nothing here raises. *)

val on_alloc : t -> bid:int -> pid:int -> time:int -> unit
(** Start a new lifetime: bump the generation, record the allocation
    site, clear tracked/retired. [pid] is [-1] outside a simulation. *)

val on_access : t -> bid:int -> write:bool -> pid:int -> time:int -> bool
(** A validated read or write of the block. [true]: the protection
    auditor's verdict that an SMR-tracked block was dereferenced
    outside any protection window (the heap faults). Otherwise the
    access is pushed on the block's recent-op ring. *)

type freed =
  | Violation of string list
      (** the block is still protected (protocol mode); nothing was
          recorded. The lines name the protectors, for the fault
          report. *)
  | Take_back  (** the allocator may take the freed block back now *)
  | Hold  (** the block was poisoned and is held in quarantine *)
  | Evict of int
      (** as [Hold], and the oldest quarantined block, whose poison is
          intact, left the quarantine: the allocator may take it back *)
  | Evict_damaged of int
      (** as [Evict], but the evicted block's poison was found damaged
          and a report has been filed *)

val on_free : t -> bid:int -> pid:int -> time:int -> freed
(** Record the free site (consuming any pending retire note). With a
    quarantine of depth [N], poison the block's words and hold it until
    [N] later frees have been held. *)

val on_retire : t -> bid:int -> pid:int -> time:int -> bool
(** Record a retire note. [true]: the live block was already retired in
    this lifetime — a double retire (the heap faults). *)

val mark_smr : t -> bid:int -> unit
(** The block is SMR-managed: its dereferences are subject to the
    protection-window audit. *)

val report_fault :
  t ->
  what:string ->
  addr:int ->
  pid:int ->
  tag:string option ->
  extra:string list ->
  time:int ->
  unit
(** File the ASan-style report of a heap fault [what] at [addr]: a
    header line, the provenance of the block containing [addr] (shadow
    mode), the [extra] detail lines, and the faulting access. *)

val leaks_by_site : t -> (string * int * int * int) list
(** End-of-run leak attribution of the heap's live blocks: [(tag,
    allocating pid, blocks, words)], most blocks first (ties by tag
    then pid). Empty unless the [leaks] mode is on. *)

(** {1 Protection auditor}

    Addresses are block base addresses (word-cleaned); address [0]
    means "nothing" and clears. Two protection shapes mirror the
    shipped schemes: {e slot} protections (hazard-pointer-like — one
    announcement slot holds one address; registering overwrites the
    slot's previous protection) and {e window} protections
    (epoch-like — every address touched between [window_enter] and
    [window_exit] stays protected until the window closes). All
    registration points register only validated protections, so the
    auditor under-approximates and never reports a false violation.

    The state is array-backed: slot keys, pids (from [-1], the
    orchestrator) and addresses index arrays that grow by doubling, so
    no annotation hashes, and none allocates once the arrays have
    grown (DESIGN.md §4f). *)

val register_slots : t -> n:int -> int
(** Reserve [n] slot keys; returns the first key. Callers address slots
    as [base + pid * slots_per_pid + slot]. *)

val protect : t -> key:int -> pid:int -> int -> unit
(** [protect t ~key ~pid addr]: slot [key] (owned by [pid]) now
    protects [addr], dropping whatever it protected before. [addr = 0]
    just clears the slot. *)

val window_enter : t -> pid:int -> unit

val window_exit : t -> pid:int -> unit
(** Close the pid's innermost window; when the last window closes, all
    its window protections drop. *)

val window_protect : t -> pid:int -> int -> unit
(** Protect [addr] until the pid's current window closes. No-op when
    [addr = 0] or the pid has no open window. *)

val protected_count : t -> int -> int
(** Number of live protections (slots + windows) covering [addr]. *)

val protectors : t -> int -> (int * string) list
(** Who protects [addr]: [(pid, "slot" | "window")], deterministically
    sorted. For violation reports; O(slots + pids). *)

val pid_shielded : t -> pid:int -> bool
(** The pid holds at least one protection or has an open window — the
    dereference-audit test. *)

val reset_protocol : t -> unit
(** Drop all protocol state; called by scheme [flush] (quiescent
    teardown). *)

(** {1 Reports}

    Each report bumps the lazily-registered [san.reports] counter; at
    most 128 texts are retained, the count keeps going. *)

val reports : t -> string list
(** Retained report texts, oldest first. *)

val report_count : t -> int
