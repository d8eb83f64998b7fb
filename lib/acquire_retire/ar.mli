(** Acquire-retire (§4 and §6 of the paper): a generalization of hazard
    pointers that permits {e multiple concurrent retires of the same
    handle}, which plain hazard pointers forbid and which reference
    counts require (three concurrent discards of pointers to one object
    retire its counter three times).

    Operations and their guarantees (Definition 4.1):

    - [acquire h ~slot src] reads the pointer word stored at address
      [src], announces it in [slot], and returns it. Two flavours, chosen
      at [create]: [`Lockfree] (announce, re-read, retry — constant
      amortized in practice), [`Waitfree] (a fast path of bounded retries
      falling back to an atomic {!Swcopy.swcopy}, constant worst-case —
      the fast-path/slow-path methodology of §7).
    - [release h ~slot] withdraws the announcement.
    - [retire h w] marks one use of the handle as discarded.
    - [eject h] performs O(1) deamortized steps of the current scan pass
      and returns a previously retired handle that is now safe, if one is
      ready. If every [retire] is followed by at least one [eject], at
      most O(K·P) retires are outstanding (Theorem 2, K = total slots).

    A scan pass snapshots the process's retired list, reads every
    announcement slot into a multiset, and ejects the multiset difference
    — a handle retired s times and announced t times yields s − t ejects
    (§6). Announcement reads and protected-set bookkeeping cost simulated
    ticks like everything else. *)

type t

type h
(** Per-process handle. *)

type mode = [ `Lockfree | `Waitfree ]

val create :
  ?mode:mode ->
  Simcore.Memory.t ->
  procs:int ->
  slots_per_proc:int ->
  eject_work:int ->
  t
(** [eject_work] = scan steps performed per [eject] call; 2 or more makes
    the outstanding-retires bound O(K·P) (see DESIGN.md §4). *)

val handle : t -> int -> h
(** [handle t pid]. [pid = -1] designates the sequential setup handle
    (used outside simulations); it owns no announcement slots. *)

val acquire : h -> slot:int -> int -> int
(** [acquire h ~slot src]: protect and return the pointer word at [src]. *)

val release : h -> slot:int -> unit

val vm_emit_acquire :
  h -> Simcore.Vm.Asm.t -> slot:int -> src:int -> int * int
(** [vm_emit_acquire h a ~slot ~src] emits the lock-free [acquire] from
    the address in register [src] into a {!Simcore.Vm} stream for [h]'s
    process, tick- and heap-identical to the closure form; returns
    [(r_v, r_slot)]: the register holding the protected word and the
    one holding the slot's address (for {!vm_emit_release}). With the
    sanitizer's [protocol] auditor on at emit time, the slot-protection
    notes are emitted as leaf host calls ({!Simcore.Vm.Asm.host_leaf})
    at the closure's points. Lock-free mode only; not valid on the
    setup handle. *)

val vm_emit_release : h -> Simcore.Vm.Asm.t -> slot:int -> slot_reg:int -> unit
(** Emit [release h ~slot], given the [r_slot] register returned by the
    matching {!vm_emit_acquire}. *)

val announced : h -> slot:int -> int
(** Current announcement in the slot ({!Simcore.Word.null} if empty). *)

val announce_raw : h -> slot:int -> int -> unit
(** Overwrite the slot with an already-protected word. Used by the
    snapshot machinery when taking over a slot (Fig. 4 [get_slot]). *)

val retire : h -> int -> unit
(** [retire h w]: the handle (an unmarked pointer word) is discarded. *)

val eject : h -> int option
(** Advance the scan; return an ejected handle if one is available. *)

val vm_emit_retire_eject :
  h -> Simcore.Vm.Asm.t -> word:int -> on_retire:(unit -> unit) -> int
(** [vm_emit_retire_eject h a ~word ~on_retire] emits [retire h w]
    followed by [eject h] for the handle in register [word], tick- and
    heap-identical to the closure forms, profiler frames included.
    [on_retire] runs right after the retire (it must not pay). Returns
    the register that holds the ejected handle afterwards, or
    {!Simcore.Word.null} when none was ready. The retire, the scan's
    planning and its bookkeeping are leaf host calls; the Swcopy window
    and the scan's slot reads and pays are VM instructions. Lock-free
    mode only; not valid on the setup handle. *)

val delayed : t -> int
(** Retires not yet ejected — the Theorem 2 bound. *)

val eject_all : h -> int list
(** Run complete scan passes (still honoring current announcements) until
    no further handle can be ejected; returns everything ejected. Used at
    quiescence and by tests. Steps an [eject] planned but never applied
    (its process stopped for good in between) are applied first. *)

val quiescent : t -> (unit -> 'a) -> 'a
(** [quiescent t f] runs [f]; outside a simulation ([Simcore.Proc.self
    () = -1]) every announcement slot is read through the heap at most
    once while [f] runs, at the first scan step that needs it, and later
    passes of every handle reuse that word. Inside a simulation it is
    just [f ()]. The steps, telemetry and ejections are those of the
    uncached scans: at quiescence no announcement changes. *)
