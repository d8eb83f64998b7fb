(** "Figure R": reclamation robustness under fault injection
    ([repro run robust]).

    Drives the Harris-Michael list over
    {EBR, DEBRA, DEBRA+, IBR, HE, HP, DRC} × {no-fault, stall-1-pinned,
    stall-k-pinned, crash-restart} fault scripts ({!Simcore.Adversary})
    and prints throughput, the unreclaimed-memory-over-virtual-time
    series, and the adversary/neutralization probes. The figure's claim:
    a stalled pinned reader makes plain epoch schemes' garbage grow
    without bound, while DEBRA+ (neutralization), HP and the paper's DRC
    stay bounded — the robustness the paper buys with acquire-retire.
    Deterministic and byte-identical across [--jobs], fastpath on/off
    and the compiled/closure drivers. *)

val scheme_names : string list

type fault = No_fault | Stall_one | Stall_k | Crash_restart

val faults : fault list

val point :
  ?policy:Simcore.Sim.policy ->
  ?fastpath:bool ->
  ?tracer:Simcore.Recorder.t ->
  ?config:Simcore.Config.t ->
  ?profile:bool ->
  scheme:string ->
  fault:fault ->
  threads:int ->
  horizon:int ->
  seed:int ->
  size:int ->
  update_pct:int ->
  unit ->
  Measure.point * (int * int) list
(** One (scheme, fault) cell: the measured point plus the pid-0 sampled
    unreclaimed-memory series [(sample index, extra nodes)]. Exposed for
    the faulted determinism regressions, the divergence test and the
    race-freedom audit. [config] (default {!Simcore.Config.default})
    picks the driver: [config.vm] selects the compiled driver loop,
    and points are bit-identical either way, faulted or not — the
    regression suite pins all four [vm] × [fastpath] combinations.
    The cell always runs with the sanitizer's protocol auditor on, on
    top of [config.sanitize]: it is the adversary's pin oracle and is
    zero-perturbation. DEBRA+ cells register the
    {!Simcore.Proc.on_signal} handler and catch
    {!Simcore.Proc.Interrupted} around each operation, as that scheme
    requires. *)

val counter : Measure.point -> string -> int
(** Telemetry counter by name from a point's snapshot, [0] when absent
    (a scheme without that probe). *)

val run :
  ?arm:Measure.arm ->
  ?threads:int ->
  ?horizon:int ->
  ?seed:int ->
  ?size:int ->
  ?update_pct:int ->
  title:string ->
  unit ->
  unit
(** The full Figure R grid, [Domain_pool]-sweepable (one cell per
    (fault, scheme) pair, row-major). *)
