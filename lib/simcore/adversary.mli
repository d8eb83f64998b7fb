(** Deterministic fault injection for the simulated machine.

    An adversary is a seeded {e script} of scheduling faults that
    {!Sim.run} applies at its scheduling decision points:

    - {b stall}: park a process indefinitely at its next scheduling
      decision at/after a scripted global step — optionally waiting
      until the victim {e holds a pin} (an epoch reservation, a hazard
      slot, an acquired handle), which is the adversarial case for
      epoch-based reclamation;
    - {b delay}: charge a victim extra virtual-clock ticks at every
      scheduling decision inside a scripted window (modeled
      interference — the victim runs, just slower);
    - {b revive}: unpark a stalled process at a scripted global step
      (stall + revive = crash-restart).

    All trigger times are global scheduler steps ({!Proc.global_now}),
    which advance identically with the fastpath on or off and under the
    compiled VM driver, so faulted sweeps stay bit-identical across
    execution modes and [--jobs] levels.

    The adversary also carries the simulated-signal channel used by
    DEBRA+-style neutralization: {!signal} marks a victim, and the
    victim's very next pay — which precedes its next shared-memory
    access by construction — runs its {!Proc.on_signal} handler and
    raises {!Proc.Interrupted} through the operation, the simulated
    analogue of the POSIX-signal-plus-longjmp trick. A run terminates
    normally when every unparked process finishes; parked processes
    simply stop consuming instructions.

    Probes (registered when [telemetry] is passed to {!create}):
    [adv.stalls] counts parks, [adv.signals] counts {!signal} calls. *)

type stall = {
  victim : int;
  at : int;  (** global step at/after which the stall takes effect *)
  only_pinned : bool;  (** wait until the victim holds a pin *)
  revive : int;  (** global step of revival; [max_int] = never *)
}

type delay = {
  d_victim : int;
  d_from : int;
  d_until : int;  (** window [[d_from, d_until)] in global steps *)
  d_penalty : int;  (** extra ticks per scheduling decision *)
}

type spec = { stalls : stall list; delays : delay list }

val spec_none : spec

val stall :
  ?only_pinned:bool -> ?revive:int -> victim:int -> at:int -> unit -> stall
(** Stall constructor; [only_pinned] defaults to [false], [revive] to
    [max_int] (never). *)

val stall_k :
  ?only_pinned:bool ->
  ?revive:int ->
  seed:int ->
  procs:int ->
  k:int ->
  at:int ->
  unit ->
  spec
(** Seeded policy: [k] distinct victims drawn from pids [1, procs)
    (pid 0, the sampling process of the figure harnesses, is spared),
    stalled at staggered steps from [at]. *)

type t

val create : ?telemetry:Telemetry.t -> procs:int -> spec -> t
(** Instantiate a script for a [procs]-process run. One adversary per
    {!Sim.run}; the instance is stateful and not reusable across runs.
    @raise Invalid_argument on out-of-range victims. *)

val active : t -> bool
(** The script contains at least one fault (an inactive adversary costs
    the scheduler nothing). *)

val is_parked : t -> int -> bool

(** {1 Pin tracking}

    [only_pinned] stalls need to know whether the victim currently
    holds a protection. The workload installs a probe that answers it —
    {!Sanitizer.pid_shielded} of the cell's heap, which every shipped
    scheme already feeds through its protocol annotations. Without a
    probe no process counts as pinned. *)

val set_pinned_probe : t -> (int -> bool) -> unit

(** {1 Scheduler interface} *)

val step :
  t ->
  steps:int ->
  revive:(int -> unit) ->
  park:(int -> unit) ->
  charge:(int -> int -> unit) ->
  unit
(** Apply the script at one scheduling decision ([steps] = global step
    count): due revivals first ([revive pid] reinserts the process into
    the run structures), then due stalls ([park pid] removes it), then
    delay penalties ([charge pid n] adds [n] ticks to the victim's
    clock and its current profiler phase). Called by {!Sim.run} only —
    at points whose step counts are identical across execution modes. *)

(** {1 Signal channel} *)

val signal : t -> pid:int -> unit
(** Mark the victim for interruption ({!Proc.signal}) and count it on
    [adv.signals]. The victim's next pay runs its registered
    {!Proc.on_signal} handler and raises {!Proc.Interrupted} — before
    its next shared-memory access, because every access pays first. *)

(** {1 Ambient instance}

    Schemes are instantiated through functors whose [create] cannot
    take an adversary, so workloads publish the instance ambiently
    around scheme creation ({!with_ambient}); a scheme that wants its
    neutralizations counted on [adv.signals] picks it up with
    {!ambient}. Domain-local, so parallel sweep cells stay isolated. *)

val ambient : unit -> t option

val with_ambient : t -> (unit -> 'a) -> 'a
