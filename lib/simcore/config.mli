(** Simulation parameters: machine shape and instruction cost model.

    Costs are in abstract ticks. The defaults are loosely calibrated to a
    multi-socket x86 (L3-hit latencies ~ tens of cycles, cache-line
    ownership transfer ~ an order of magnitude above an owned access);
    reproducing the paper only requires the *relative* costs to be sane:
    contended read-modify-writes must dwarf owned ones, which is the
    phenomenon behind Figures 6-7. *)

type cost = Memcore.cost = {
  c_l1 : int;  (** re-read of the process's last-touched, unmodified line *)
  c_hit : int;  (** read of a line not exclusively held elsewhere *)
  c_read_miss : int;  (** read of a line another core holds exclusively *)
  c_rmw_owned : int;  (** CAS/FAA/FAS/store on a line this core owns *)
  c_rmw_transfer : int;  (** CAS/FAA/FAS/store needing ownership transfer *)
  c_dwcas_extra : int;
      (** surcharge the just::thread model pays per double-word CAS *)
  c_alloc : int;  (** scalable-allocator malloc *)
  c_free : int;  (** scalable-allocator free *)
}

(** Allocator implementation behind the heap's alloc/free ([Memory]).
    [Legacy] is the single global size-class freelist, kept as the
    differential oracle; [Pooled] is the Blelloch–Wei-style constant-time
    scheme (per-process size-class pools of fixed-capacity batches, with
    balanced stealing through a shared exchange — see [Alloc]). The
    machine model is allocation-oblivious (DESIGN.md §4j): benchmark
    tables are byte-identical under either policy. *)
type alloc_policy = Legacy | Pooled

val alloc_policy_of_string : string -> (alloc_policy, string) result
(** Case-insensitive ["legacy"]/["pooled"]; [Error] explains the rest. *)

type t = {
  cores : int;  (** hardware threads; procs beyond this are time-sliced *)
  quantum : int;  (** ticks between involuntary context switches *)
  reuse : bool;  (** freelist address reuse (enables true ABA) *)
  max_steps : int;  (** safety valve on scheduler steps; 0 = unlimited *)
  lookahead : int;
      (** [Fair] run-ahead window in ticks: the scheduled core may run
          until its clock exceeds the second-smallest core clock by this
          much before the next scheduling decision. [0] = strict
          min-clock interleaving (one decision per instruction). A small
          positive window models store-buffer/out-of-order slack on real
          hardware and lets the scheduler elide most per-instruction
          suspensions (DESIGN.md § simulator fast path). Deterministic
          for any value; has no effect under [Uniform]/[Chaos]. *)
  sanitize : Sanitizer.mode;
      (** heap-sanitizer checkers ({!Sanitizer.off} by default). The
          non-quarantine modes never perturb the simulation: tables and
          telemetry stay byte-identical to an unsanitized run. *)
  race : Racecheck.mode;
      (** happens-before race checker ({!Racecheck.off} by default).
          Pays no ticks and allocates nothing simulated, so arming it
          never perturbs schedules: tables stay byte-identical modulo
          the report blocks. *)
  vm : bool;
      (** run workload inner loops as compiled {!Vm} instruction streams
          where a compiled form exists, instead of the closure
          interpreter. Only the Figure 6a–6d op bodies have one, so
          every other workload runs the same driver either way. Results
          are bit-identical either way (the closure path is the oracle;
          see [test/test_invariance.ml]); off exists for differential
          testing and as an escape hatch. *)
  alloc : alloc_policy;
      (** which allocator backs the heap's alloc/free ([Memory])
          ({!Legacy} by default). Results are byte-identical either way;
          the policies differ in modeled allocator-metadata contention
          (visible only with {!field-alloc_contention}) and in telemetry
          ([mem.pool.*]). *)
  alloc_contention : bool;
      (** model coherence traffic on the allocator's own metadata
          (freelist heads / pools / exchange slots) as extra ticks on
          [alloc]/[free], in a coherence domain separate from the
          simulated heap's. Off by default — the figure workloads charge
          the flat [c_alloc]/[c_free] of a scalable allocator; the
          allocator tests' churn cases turn this on to expose the
          legacy freelist's serial point. *)
}

val default_cost : cost
(** The one cost table: every heap ({!Memory.create}) charges it, and
    the just::thread model reads its [c_dwcas_extra]. *)

val default : t
(** 144 hardware threads (the paper's machine has 72 cores, 2-way SMT),
    address reuse on, a 64-tick run-ahead window. *)

val small : t
(** A small deterministic machine for unit tests: 4 cores, tiny quantum,
    strict interleaving ([lookahead = 0]). *)

(** {1 Resolving a run's configuration}

    The CLI's [--no-vm], [--alloc], [--sanitize], [--race] and [--jobs]
    flags and the [REPRO_VM], [REPRO_ALLOC], [REPRO_SANITIZE],
    [REPRO_RACE] and [REPRO_JOBS] variables become one {!t} and a job
    count in {!resolve}, the only place either is read. A flag beats its
    variable; an unset or empty variable means the default. Nothing
    under [lib/] reads the environment: callers pass [getenv]. *)

val resolve :
  getenv:(string -> string option) ->
  ?no_vm:bool ->
  ?alloc:string ->
  ?sanitize:string ->
  ?race:string ->
  ?jobs:int ->
  unit ->
  (t * int, string) result
(** [resolve ~getenv ?no_vm ?alloc ?sanitize ?race ?jobs ()] is
    {!default} with [vm], [alloc], [sanitize] and [race] set from the
    flags given ([--no-vm], [--alloc POLICY], [--sanitize MODES],
    [--race MODES]), else from the variables [getenv] returns, plus the
    job count ([--jobs N], else [REPRO_JOBS], else 1). Every variable is checked,
    even one its flag overrides, and the first malformed value is an
    [Error]: a variable's names the variable, a flag's names the flag. *)
