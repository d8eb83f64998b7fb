(** Profile attribution for compiled retry loops.

    The closure forms of the schemes' CAS and lock retry loops run every
    re-attempt inside [Profiler.with_phase Cas_retry], one nested frame
    per retry, all popped when the loop finally exits. A compiled loop
    gets the same frames from [HOST] calls: {!retry} on the retry edge
    enters one frame, {!exit} at the loop exit pops every frame the loop
    entered. They are emitted only when the emitting process is profiled
    ({!Simcore.Profiler.active}), so unprofiled streams carry none and
    the profile's phase rows do not depend on the engine. *)

type t

val start : Simcore.Vm.Asm.t -> t
(** Emit before the loop head: zero the loop's frame count. *)

val retry : Simcore.Vm.Asm.t -> t -> unit
(** Emit on the retry edge, after the failed attempt. *)

val exit : Simcore.Vm.Asm.t -> t -> unit
(** Emit at the loop exit. *)
