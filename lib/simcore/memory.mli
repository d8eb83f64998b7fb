(** The simulated shared heap.

    A flat, word-addressable memory with explicit allocation and
    deallocation — the manually-managed world the paper's reclamation
    schemes exist for. All access paths:

    - charge coherence-modelled ticks to the calling process via
      {!Proc.pay}, which is also where interleaving happens;
    - validate the address, so that a use-after-free or double-free —
      the very bugs safe memory reclamation prevents — fails loudly with
      a {!Fault} identifying the culprit;
    - are individually atomic (the effect is performed before the
      mutation, and nothing interleaves between effect resumption and
      the mutation itself).

    Freed blocks return to the pluggable {!Alloc} store — the legacy
    global size-class freelist or the pooled constant-time scheme with
    per-process pools and balanced stealing, selected by
    [Config.alloc]; both are constant-time and allocation-free as in
    the fixed-size-allocation literature — and are reused (when
    [Config.reuse] is set), so stale pointers can observe genuine ABA:
    an incorrect scheme corrupts structures or faults, a correct one
    does not. Addresses are positive ints; [0] is never a valid address
    (the null pointer, see {!Word}). *)

type t

type fault_kind =
  | Use_after_free
  | Double_free
  | Not_a_block  (** [free] of an address that is not a live block base *)
  | Out_of_bounds
  | Null_deref
  | Protection_violation
      (** sanitizer protocol auditor: a [free] of a block some process
          still protects, a dereference of an SMR-tracked block outside
          any protection window, or a double retire. Only raised when
          [Config.sanitize] has [protocol] on. *)

exception
  Fault of {
    kind : fault_kind;
    addr : int;
    pid : int;  (** faulting process, [-1] outside a simulation *)
    tag : string option;  (** tag of the block involved, if known *)
  }

val fault_kind_to_string : fault_kind -> string

val fault_to_string : exn -> string
(** Uniform fault rendering, ["kind addr=A pid=P tag=T"], used by every
    example and test; falls back to [Printexc.to_string] on non-{!Fault}
    exceptions. *)

val create : Config.t -> t
(** A fresh heap, bound to the calling domain: it keeps that domain's
    env cell ({!Proc.here}) and reads the running process from it on
    every access, so it must be driven on that domain only (a
    {!Domain_pool} job creates its own heaps). *)

(** {1 Allocation} *)

val alloc : t -> tag:string -> size:int -> int
(** [alloc t ~tag ~size] returns the base address of a zeroed block of
    [size] words, aligned to {!Memcore.alloc_align} (a cache-line
    pair). [tag] is a diagnostic label (per-tag live counts are kept).
    Charges [c_alloc], plus the modeled allocator-metadata contention
    when [Config.alloc_contention] is on.
    @raise Invalid_argument, naming both domains, when called from a
    domain other than the heap's. *)

val free : t -> int -> unit
(** Release a block by its base address. Charges [c_free] (plus
    modeled contention, as for {!alloc}).
    @raise Fault on double-free or non-block address. *)

val allocator : t -> Alloc.t
(** The heap's freed-block store; exposed for its custody/occupancy
    accessors and the constant-time bound ({!Alloc.max_touch}) —
    benchmarks and tests read it, nothing else should. *)

(** {1 Atomic word operations}

    Each charges coherence costs and validates the address. *)

val read : t -> int -> int

val read_span : t -> int -> int -> (int -> unit) -> unit
(** [read_span t base n f] reads the [n] words from [base] in address
    order and hands each to [f]: ticks, steps, coherence transitions,
    validation, instrument calls and faults are exactly those of [n]
    calls to {!read}, but the host work is done once per cache line.
    Elided pays are held back until the span ends or a word needs the
    clocks, so [f] must not pay, access the heap or raise. A word that
    cannot take the line-at-once path (an armed instrument, no grant, a
    pending signal, its cost reaching the budget) is read as by {!read}
    without validating the rest of its line first, so an armed span
    validates each word once. *)

val write : t -> int -> int -> unit

val cas : t -> int -> expected:int -> desired:int -> bool
(** Single-word compare-and-swap. A failed CAS pays the same price. *)

val faa : t -> int -> int -> int
(** [faa t a d] fetch-and-adds [d] at [a], returning the old value. *)

val fas : t -> int -> int -> int
(** [fas t a v] fetch-and-stores [v] at [a], returning the old value. *)

(** {1 Zero-cost debug access}

    For test oracles and invariant checkers only: no ticks, no
    interleaving, but still fault on invalid addresses. *)

val peek : t -> int -> int

val block_is_live : t -> int -> bool
(** [block_is_live t a] is true iff [a] falls inside a live block. *)

val block_base : t -> int -> int
(** Base address of the live block containing [a].
    @raise Fault if [a] is not inside a live block. *)

val block_tag : t -> int -> string option
(** Tag of the block containing [a] (live or freed), if any. *)

(** {1 Accounting} *)

type usage = {
  allocated : int;  (** cumulative blocks allocated *)
  freed : int;  (** cumulative blocks freed *)
  live : int;  (** currently live blocks *)
  peak_live : int;
  live_words : int;
}

val usage : t -> usage

val live_with_tag : t -> string -> int
(** Number of live blocks carrying the given tag. *)

val iter_live : t -> (base:int -> size:int -> tag:string -> unit) -> unit
(** Iterate over live blocks; used by leak checkers. *)

(** {1 Sanitizer}

    The heap owns one {!Sanitizer} instance (configured by
    [Config.sanitize]; a no-op when the mode is off). When armed, the
    heap reports each allocation, validated access, free and retire to
    it by block id; the sanitizer owns the per-block shadow records and
    the quarantine, and answers with verdicts the heap acts on (a
    protection violation or double retire to fault, the block the
    allocator may take back). The reclamation layers annotate their
    protocol through the functions below and the auditor state on
    {!sanitizer}. *)

val sanitizer : t -> Sanitizer.t
(** Always present; every entry point is a cheap no-op when the mode is
    off, so callers need no option plumbing. *)

val mark_smr : t -> int -> unit
(** Tag the block at this base address as SMR-managed: its dereferences
    are subject to the protection-window audit. Called by the scheme
    [alloc] wrappers. *)

val retire_note : t -> int -> unit
(** Note that the block was retired (unlinked, free pending). Ends the
    allocating process's audit exemption for its own unpublished block.
    @raise Fault with [Double_free] on a second retire of the same
    lifetime (protocol mode). *)

val leaks_by_site : t -> (string * int * int * int) list
(** End-of-run leak attribution: [(tag, allocating pid, blocks, words)]
    per allocation site of the currently-live blocks, most blocks first
    (ties by tag then pid). Empty unless the [leaks] mode is on. *)

val sanitizer_reports : t -> string list
(** Retained sanitizer report texts, oldest first (see
    {!Sanitizer.reports}). *)

(** {1 Race checker}

    The heap owns one {!Racecheck} instance (configured by
    [Config.race]; a no-op when the mode is off). The heap reports each
    access and each block's allocation, free and retire to it, files
    each conflict it finds ({!Racecheck.report_race}: an ASan-style
    text, retained and counted as [race.reports]) and notes it in the
    flight recorder, auto-dumped like sanitizer reports. Races never
    raise: the run completes and the audit reads the report list.
    Arming the checker pays no ticks, so schedules are unperturbed; the
    {!Vm}'s memory opcodes call the same per-access observer as this
    module's entry points, so both execution engines produce identical
    verdicts. *)

val mark_race_sync : t -> int -> unit
(** Annotate the word at this address as an atomic location: plain
    stores to it become store-releases, plain loads load-acquires, and
    it is never itself reported. For single-writer protocol words the
    model spells as plain writes (HP announcement slots, EBR/HE/IBR
    reservations, swcopy destinations and descriptors). Words become
    atomic automatically on their first CAS/FAA/FAS. *)

val race_reports : t -> string list
(** Retained race report texts, oldest first. *)

val race_report_count : t -> int
(** Total races reported (including beyond the retention cap; at most
    one per word). *)

(** {1 Flight recorder} *)

val recorder : t -> Recorder.t
(** The heap's always-on flight recorder. The heap itself records
    allocs (by tag), frees, retires and faults; it dumps the merged
    timeline to stderr on any {!Fault} or sanitizer report when
    {!Recorder.set_auto_dump} is on (the repro CLI enables it). The
    service layer reads it to attach timelines to SLO breaches. *)

(** {1 Telemetry} *)

val telemetry : t -> Telemetry.t
(** The heap's probe registry. The heap itself maintains
    [mem.live_blocks]/[mem.live_words] gauges (with high-water marks),
    [mem.alloc.fresh]/[mem.alloc.reuse] counters (their ratio is the
    freelist hit rate), a [mem.free] counter, and per-tag
    [mem.alloc\[tag\]]/[mem.free\[tag\]] counters. The allocator adds
    the [mem.pool.*] probes and per-size-class occupancy/hit/miss
    probes (see {!Alloc.create}). Subsystems built on
    this heap (acquire-retire, DRC, the SMR schemes, the data
    structures) register their probes in the same registry, so one
    registry describes one simulated machine. *)

(**/**)

(* Simulator-internal interface, for {!Vm} only. *)

val hot : t -> Memcore.t
(* The flat hot-state record this heap maintains; compiled instruction
   streams access it directly. *)

val validate_addr : t -> int -> unit
(* Address validation alone (no sanitizer hooks, no cost): raises the
   exact {!Fault} [read]/[write] would. The {!Vm} inlines the common
   checks and calls this to materialize the fault on failure. *)

val instrument : t -> Proc.env -> Racecheck.access -> int -> unit
(* [instrument t e kind a]: the armed instruments' observer for one
   validated access of [kind] to [a] by the process of [e] — the
   sanitizer's audit and provenance note, then the race checker's
   verdict ({!Racecheck.access}, which names the run by [e]'s envs
   array). Direct calls throughout: no hook closure, no domain-local
   read. The heap's own entry points and the {!Vm}'s memory opcodes
   both call it after paying and validating, and only while
   [Memcore.san_on] is set. The VM flushes its elided pays first, so
   the pid and virtual time read from [e] are the closure path's. *)
