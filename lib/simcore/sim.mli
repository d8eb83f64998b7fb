(** The simulation scheduler.

    Runs [procs] coroutine processes over a machine with
    [config.cores] hardware threads. Each {!Proc.Pay} effect charges the
    running process's core clock and is a potential context switch; all
    code between two pays executes atomically, giving sequential
    consistency by construction.

    Three scheduling policies:

    - [Fair]: discrete-event execution — always advance the core with the
      smallest virtual clock; processes beyond [cores] are time-sliced on
      their core with quantum [config.quantum]. This approximates parallel
      hardware and is used for all throughput figures (virtual makespan is
      the denominator of simulated throughput).
    - [Uniform]: uniformly random runnable process each step; explores
      interleavings for tests.
    - [Chaos]: like [Uniform] but occasionally puts a process to sleep for
      many steps, modelling preemption at the worst moment; the tool for
      widening race windows (stale hazard pointers, stuck epochs). *)

type policy =
  | Fair
  | Uniform
  | Chaos of { pause_prob : float; pause_steps : int }

type fault = { pid : int; exn : exn }

type result = {
  makespan : int;  (** max core clock (Fair) / max process clock *)
  steps : int;  (** scheduler steps (= shared-memory operations) *)
  faults : fault list;  (** exceptions raised by processes, e.g. {!Memory.Fault} *)
  clocks : int array;  (** final per-core (Fair) or per-process clocks *)
}

exception Stuck of string
(** Raised when [config.max_steps] is exceeded — a deadlocked or
    livelocked simulation. *)

val max_procs : int
(** The most processes one {!run} may start: [Memcore.max_pids - 1].
    Every pid below it owns a private coherence slot and race-checker
    clock; larger pids would share them with each other or with the
    orchestrator, skewing costs and hiding races. *)

val run :
  ?policy:policy ->
  ?seed:int ->
  ?fastpath:bool ->
  ?tracer:Recorder.t ->
  ?profiler:Profiler.t ->
  ?coroutine:(int -> (unit -> int) option) ->
  ?adversary:Adversary.t ->
  config:Config.t ->
  procs:int ->
  (int -> unit) ->
  result
(** [run ~config ~procs body] starts [procs] processes, process [i]
    executing [body i], and schedules them to completion. [body] runs with
    {!Proc} ambient context set; typical bodies loop on
    [Proc.now () < horizon]. Deterministic for a given [seed] (default 1).

    [coroutine], when it returns [Some co] for a pid, replaces that
    process's fiber with a flat coroutine (normally [Vm.coroutine]):
    each [co ()] call runs the process to its next suspension point and
    returns the pay amount — charged exactly like a performed
    {!Proc.Pay} — or a negative value on completion. The scheduler then
    re-enters the process by plain call instead of a fiber switch, so
    the effect machinery is bypassed at scheduling points; results are
    bit-identical to the fiber path. [coroutine p] itself is called once,
    at the process's first scheduling, under its env (it may run setup
    code, like the head of [body]); [body] is never called for such a
    pid.

    [fastpath] (default [true]) controls the zero-suspension fast path
    under [Fair]: each time a process is scheduled it is granted a
    run-ahead budget — the ticks it may consume before any scheduling
    decision could differ (bounded by the gap to the second-smallest
    core clock plus [config.lookahead], the remaining quantum slice, and
    the [max_steps] valve) — and {!Proc.pay} elides the effect
    suspension while the budget lasts. [~fastpath:false] forces every
    pay through the effect while the scheduler honours the same grants,
    so both modes produce bit-identical results (clocks, steps, traces,
    memory states); it exists for regression tests and debugging.
    [Uniform] and [Chaos] always get budget 0: every instruction stays a
    decision point for adversarial interleaving.

    [profiler], when supplied, attributes every simulated tick of this
    run to a phase ({!Profiler}): each process's env carries the
    profiler's per-pid state and {!Proc.pay} charges the current phase
    slot. The run's total paid ticks (the sum of final clocks) are
    registered with the profiler so it can assert conservation —
    per-phase sums equal total simulated time exactly. Profiling never
    perturbs the simulation: schedules, clocks, steps and memory states
    are bit-identical with and without it.

    [adversary], when supplied and {!Adversary.active}, applies its
    fault script (stalls, delays, scripted revivals) at every genuine
    scheduling decision point — points whose global step counts are
    identical with the fastpath on or off and under the VM driver, so a
    faulted run is bit-identical across execution modes like an
    unfaulted one. Parked processes stop consuming
    instructions; a run whose unparked processes all finish terminates
    normally, reporting the parked ones' clocks as they stood. An
    inactive adversary (empty script) perturbs nothing.

    @raise Invalid_argument if [procs] is below 1 or above
    {!max_procs}. *)
