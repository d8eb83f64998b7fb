(** The process view of the simulated machine.

    A simulated process is an ordinary OCaml function run inside the
    scheduler ({!Sim}). Whenever it touches shared state it pays ticks via
    the {!Pay} effect, which is also the scheduler's only preemption point:
    everything a process does between two [pay]s is atomic. Shared-memory
    operations ({!Memory}) call [pay] internally, so algorithm code mostly
    just uses {!Memory} and occasionally [pay] for private work.

    Outside a simulation (test setup, sequential oracles) all of these
    degrade gracefully: [pay] is a no-op and [self] is [-1], so the same
    data-structure code can be used to pre-populate a heap at time zero. *)

type _ Effect.t += Pay : int -> unit Effect.t

val pay : int -> unit
(** Charge ticks to the current core's clock and allow a context switch.
    No-op outside a simulation. When the scheduler has granted the
    process a run-ahead budget (see {!Sim.run}'s [fastpath]), a pay that
    fits inside the budget is charged with two integer updates and no
    suspension; the instruction interleaving is unchanged either way. *)

val self : unit -> int
(** Id of the running process, or [-1] outside a simulation. *)

val now : unit -> int
(** Virtual time of the current core's clock ([0] outside a simulation).
    Monotone for a given process; jumps while the process is descheduled,
    which is exactly how an oversubscribed thread experiences time. *)

val rng : unit -> Rng.t
(** Per-process deterministic generator, derived from the run seed.
    @raise Failure outside a simulation. *)

val global_now : unit -> int
(** Global scheduler step count: a total order consistent with execution
    order under {e every} policy (unlike [now], whose per-core clocks are
    only meaningful under [Fair]). Use for history timestamps
    ({!Lincheck}). [0] outside a simulation. *)

(** {1 Simulated signals}

    The neutralization channel of DEBRA+-style robust reclamation (see
    {!Adversary}). [signal pid] marks the victim; the victim's next
    unmasked [pay] — checked on the resumed side of the suspension, so
    a signal posted while the victim sat descheduled is seen when it
    wakes, before the access the pay was charging for — runs the
    handler the victim registered with [on_signal] and raises
    {!Interrupted} through its in-flight operation, the simulated
    analogue of a POSIX signal handler plus longjmp. A victim without a
    registered handler drops the signal (SIG_IGN). Delivery charges no
    ticks, so it lands at the identical instruction across fastpath and
    VM execution modes. *)

exception Interrupted

val signal : int -> unit
(** Mark process [pid] for interruption at its next pay. No-op outside
    a simulation or for an out-of-range pid. *)

val on_signal : (unit -> unit) -> unit
(** Register the calling process's signal handler (replacing any
    previous one). The handler runs in the victim's context, just
    before {!Interrupted} is raised, and must not pay. No-op outside a
    simulation. *)

val with_signals_deferred : (unit -> 'a) -> 'a
(** Run [f] with signal delivery masked — the simulated sigprocmask.
    A pending signal is kept, not dropped, and delivered at the first
    pay after the mask lifts; since every shared-memory access pays
    (unmasked) first, delivery still precedes the caller's next access.
    For sections whose abort would corrupt shared bookkeeping (a
    reclaimer's half-swept limbo bag); nests, and restores the previous
    mask even on raise. Runs [f] bare outside a simulation. *)

(**/**)

(* Scheduler-side interface; not for algorithm code. *)

(* One profiler's slots: a trie of phase stacks shared by its
   processes, grown by {!Profiler}; slot 0 is the empty stack. *)
type trie = {
  mutable child : int array;  (* slot * n_codes + code -> child slot; 0 = none yet *)
  mutable parent : int array;  (* slot -> the slot one level up *)
  mutable packed_of : int array;  (* slot -> packed stack, 4 bits per level *)
  mutable n_slots : int;
}

(* Per-process profiling state (interpreted by {!Profiler}, which owns
   the trie of phase stacks). Declared here so [pay_env] can charge the
   current slot with one array store and no dependency cycle;
   [prof = None] (profiling off) costs one match. *)
type prof = {
  mutable pcounts : int array;  (* ticks charged per interned stack slot *)
  mutable pcur : int;  (* slot of the current phase stack *)
  mutable pcoh : int;  (* slot of current stack + coherence-penalty child *)
  mutable pdepth : int;  (* levels of the current stack *)
  mutable pover : int;  (* pushes beyond the packing depth, popped first *)
  ptrie : trie;  (* the profiler's slot trie, shared by its processes *)
}

type env = {
  pid : int;
  prng : Rng.t;
  clock : unit -> int;
  gclock : unit -> int;
  mutable budget : int;
      (* run-ahead ticks left before [pay] must perform the effect; the
         scheduler sets it at each grant, and every pay draws it down
         (elided pays here, suspending pays in the scheduler's handler) *)
  fast : bool;
      (* whether [pay] may elide suspensions while [budget] lasts; false
         forces every pay through the effect (the scheduler then tracks
         the budget itself, keeping both modes bit-identical) *)
  fast_pay : int -> unit;
      (* charge [n] ticks without suspending: clock, slice and the global
         step counter advance exactly as a suspending pay would *)
  bulk_pay : int -> int -> unit;
      (* [bulk_pay n k] charges [n] ticks standing for [k] elided pays in
         one update — the {!Vm}'s window-batched flush. Equivalent to [k]
         calls of [fast_pay] summing to [n]; the caller draws the budget
         down itself. *)
  mutable regrant : int -> bool;
      (* [regrant n] is the scheduler's inline end-of-grant path: if
         charging the budget-exhausting pay [n] provably leads the
         scheduler straight back to this process, it replays the
         suspension's accounting plus the next pick/grant in place and
         returns [true]; otherwise it charges nothing and returns
         [false], and the caller performs {!Pay} as usual. Installed by
         {!Sim.run} under [Fair]; the default declines always. *)
  prof : prof option;
      (* latency-attribution state when this run is profiled
         ({!Sim.run}'s [profiler]); [None] costs nothing on the pay
         path *)
  mutable intr : bool;
      (* pending simulated signal, consumed by the next pay (see
         {!signal}) *)
  mutable on_sig : (unit -> unit) option;  (* per-process signal handler *)
  mutable sigmask : bool;
      (* defer signal delivery (see {!with_signals_deferred}) *)
  mutable peers : env array;
      (* all envs of the run, wired by {!Sim.run}, so [signal] can mark
         any pid *)
}

(* The calling domain's environment cell: one per domain, held in
   domain-local storage. {!Sim.run} writes the running process's env
   into [env]; [None] outside a simulation. Code that creates a heap, a
   registry or a run ({!Memory.create}, {!Telemetry.create},
   {!Recorder.create}, {!Sim.run}) fetches the cell once and reads
   [env] per access with one field load, so the object must be driven
   on the domain that created it. [domain] is that domain's id, for
   the message that reports a violation. *)
type here = { mutable env : env option; domain : int }

val here : unit -> here

val set_env : env option -> unit

val get_env : unit -> env option
(* [(here ()).env]: one domain-local lookup per call. *)

val pay_env : env -> int -> unit
(* [pay] with the environment already in hand, as read from a held
   {!here} cell: no domain-local lookup. Unlike [pay], it runs the
   signal check even when [n = 0]. *)
