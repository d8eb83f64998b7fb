(** FastTrack-style happens-before race and publication analyzer.

    An opt-in dynamic analysis over {!Memory}'s access stream: per-pid
    vector clocks, adaptive per-word last-read/last-write epochs, and
    a sync/data classification per word. RMW operations
    (CAS/FAA/FAS) and annotated single-writer words are
    release-acquire synchronization edges; plain reads and writes of
    data words are unordered and checked — any conflicting pair not
    ordered by happens-before is reported (once per word), naming both
    accesses. An allocation-custody rule orders block hand-offs
    through free/retire and either {!Alloc} policy, so benign reuse is
    never flagged while publication-before-initialization is.

    Everything here is driven by {!Memory}, which reports each access
    and each block's custody events and files the races found with
    {!report_race}; nothing pays ticks or allocates simulated memory,
    so arming the checker never perturbs schedules. See DESIGN.md §4k for
    the representation and the soundness/completeness caveats. *)

(** {1 Mode} *)

type mode = {
  hb : bool;  (** report happens-before races on plain accesses *)
  custody : bool;  (** order alloc/free/retire hand-offs *)
}

val off : mode

val default_on : mode
(** Both checks on — what a bare [--race] enables. *)

val is_off : mode -> bool

val mode_to_string : mode -> string

val mode_of_string : string -> (mode, string) result
(** Comma-separated mode list: [hb|custody|all|default|off] (shared
    tokenizer with the sanitizer, {!Modeparse.parse}). *)

(** {1 Instance} *)

type t

val create : mode -> Telemetry.t -> Memcore.t -> t
(** [create mode tele heap]: one instance per heap, which it reads for
    report provenance; registers a lazy [race.reports] counter in the
    heap's telemetry on first report. *)

(** {1 Race records}

    Returned by the access hooks; {!report_race} files one. *)

type side = { s_pid : int; s_time : int; s_what : string }

type race = { r_addr : int; r_cur : side; r_prev : side }

(** {1 Run boundaries} *)

val note_run_start : unit -> unit
(** Called by {!Sim.run} on entry (unconditionally; O(1)): gives the
    calling domain a fresh run token from a process-wide counter. The
    first in-sim access of a new run sees a token the heap has not
    seen and performs a barrier join: everything before the run
    happens-before every process of the run. The heap's accesses
    ({!access}) name their run by its envs array, so the checker reads
    the domain-local token only when that array changes, not on every
    access. *)

val pack_info : int -> int -> int
(** [pack_info pid time]: an access's (pid, virtual time) in one int,
    the pid clamped to [-2, 4093]. Exposed for tests. *)

(** {1 Access hooks}

    [pid] is {!Proc.self} ([-1] = the outside-sim orchestrator, which
    lazily joins all in-sim clocks), [time] is {!Proc.global_now}.
    A returned race has already been recorded against the word (one
    report per word); the caller files it with {!report_race}. *)

type access = Read | Write | Rmw

val access :
  t -> Proc.env array -> access -> addr:int -> pid:int -> time:int -> race option
(** [access t run kind ~addr ~pid ~time]: the heap's per-access
    observer ({!Memory} and the {!Vm} call it through
    [Memory.instrument]). [run] is the caller's [Proc.peers], the envs
    array every process of one {!Sim.run} shares (ignored for
    [pid = -1]); a run boundary is noticed when it changes, and only
    then is the domain's run token read. [addr] must lie in a block
    {!on_alloc} covered, as every address the heap validates does.
    Same verdicts as the hook for the kind below. *)

(** The hooks below serve callers that hold no run (the reference
    model drives the checker through them): each reads the domain's run
    token itself and accepts any address. *)

val on_read : t -> addr:int -> pid:int -> time:int -> race option

val on_write : t -> addr:int -> pid:int -> time:int -> race option

val on_rmw : t -> addr:int -> pid:int -> time:int -> race option
(** Release-acquire edge through the word's release clock. The first
    RMW on a plain word first checks the last plain write against the
    acquirer (publication-before-initialization), then promotes the
    word to an atomic location. *)

val mark_sync : t -> addr:int -> unit
(** Annotate a word as an atomic location without an access: plain
    stores to it become store-releases and plain loads
    load-acquires. For single-writer protocol words whose stores the
    model spells as plain writes (announcement slots, reservations,
    swcopy destinations and descriptors). *)

(** {1 Custody} *)

val on_alloc : t -> bid:int -> base:int -> size:int -> pid:int -> time:int -> unit
(** New lifetime: acquire any pending hand-off clock for the block
    (and zero it in place, so the lifetime's first free or retire
    releases into it without allocating), then stamp every word with
    the allocating process's fresh epoch and demote it back to a data
    word. *)

val on_free : t -> bid:int -> pid:int -> unit

val on_retire : t -> bid:int -> pid:int -> unit
(** Release the calling process's clock into the block's hand-off
    clock (joined over free and retire, so either order works). *)

(** {1 Reports} *)

val report_race : t -> race -> unit
(** File a race: an ASan-style text naming both sides and the block's
    tag and allocation site, retained (capped) and counted in full via
    the [race.reports] telemetry counter. *)

val reports : t -> string list
(** Retained report texts, oldest first. *)

val report_count : t -> int

val mark : unit -> unit
(** Reset the process-global report accumulation (the CLI calls it
    before each experiment, like {!Telemetry.mark}). *)

val recent_reports : unit -> string list * int
(** Reports from every instance since the last {!mark} (capped
    retention, full count), for the CLI's per-experiment report
    block. Completion order under a parallel sweep. *)

(**/**)

(* Simulator-internal interface, for the tests only. *)

val joined : int array -> int array -> int array
(* [joined a b]: the component-wise max of two vector clocks, a missing
   component counting as 0. Written into [a], which is returned, when
   [b] is no longer than [a]; otherwise a fresh array of [b]'s length.
   Exact for components in [0, 2^48). *)
