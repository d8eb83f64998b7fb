(** Shared logic for split-reference-count schemes — the technique behind
    Folly's and just::thread's [atomic_shared_ptr]. See the
    implementation's header comment for the full accounting argument
    (bias claims, borrow hand-back, settlement). *)

(** {1 Cell packing: [ptr:35][ext:28]} *)

val ext_bits : int

val init_word : int -> int
(** Cell word for a freshly installed pointer (external count 0). *)

(** {1 The cell-update flavour} *)

module type CELL = sig
  val scheme_name : string

  val read_raw : Simcore.Memory.t -> int -> int

  val cas_raw : Simcore.Memory.t -> int -> expected:int -> desired:int -> bool

  val faa_borrow : Simcore.Memory.t -> int -> int
  (** Bump the external count; return the prior raw word. *)

  val swap_install : Simcore.Memory.t -> int -> ptr:int -> int
  (** Install (ptr, 0); return the prior raw word. *)

  val try_install : Simcore.Memory.t -> int -> old_raw:int -> ptr:int -> bool

  (** {2 Compiled forms}

      The same cell updates emitted into a {!Simcore.Vm} stream —
      identical tick sequence (DW-CAS surcharges, retry loops included).
      Operands and results are register indices. *)

  val emit_read_raw : Simcore.Vm.Asm.t -> loc:int -> int

  val emit_cas_raw :
    Simcore.Vm.Asm.t -> loc:int -> expected:int -> desired:int -> int
  (** Returns a register holding 1 on success, 0 on failure. *)

  val emit_faa_borrow : Simcore.Vm.Asm.t -> loc:int -> int

  val emit_swap_install : Simcore.Vm.Asm.t -> loc:int -> ptr:int -> int
end

module Make (Cell : CELL) : Rc_intf.S
