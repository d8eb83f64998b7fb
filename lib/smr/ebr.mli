(** Epoch-based reclamation (Fraser 2004).

    Three-epoch scheme: processes announce the global epoch on [begin_op]
    and go quiescent on [end_op]; a node retired under epoch [e] is freed
    once every process has announced an epoch later than [e] or is
    quiescent. Reads need no per-pointer protection, so traversal is the
    cheapest of all schemes — at the price of unbounded memory when a
    process stalls inside a critical region (the paper's oversubscription
    spikes). *)

include Smr_intf.S

val vm_emit_begin_op : h -> Simcore.Vm.Asm.t -> int
(** Emit [begin_op h] into a {!Simcore.Vm} stream for [h]'s process,
    tick- and heap-identical to the closure form; returns the register
    holding the reservation word's address (for {!vm_emit_end_op}). *)

val vm_emit_end_op : h -> Simcore.Vm.Asm.t -> res_reg:int -> unit
(** Emit [end_op h], given the register {!vm_emit_begin_op} returned. *)
