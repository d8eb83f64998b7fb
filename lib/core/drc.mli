(** Concurrent deferred reference counting — the paper's contribution
    (§5), as a library over the simulated machine.

    A {e managed object} is a heap block whose word 0 is its reference
    count and whose remaining words are user fields; fields declared as
    reference fields hold counted pointers and are destructed recursively
    when the object dies. Any word of simulated memory (a field of a
    managed object, or a standalone cell from {!alloc_cells}) can act as
    an [atomic_rc_ptr]: a mutable shared location holding a counted
    pointer, operated on with {!load}, {!store}, {!cas} and
    {!get_snapshot}.

    The two ideas from the paper:

    - {e Deferred decrements} (Fig. 3): discarding a reference retires the
      pointer through acquire-retire instead of decrementing eagerly; the
      decrement is applied only when no in-flight increment can race it,
      so a zero count means the object is immediately safe to delete.
      At most O(P²) decrements are deferred (Theorem 1).
    - {e Snapshots / deferred increments} (Fig. 4): short-lived references
      (data-structure traversal) skip the increment entirely, parking
      their protection in one of [snapshot_slots] announcement slots; if
      the slots run out, the oldest snapshot's deferred increment is
      applied and its slot recycled round-robin.

    References are single pointer words with the low bit available as a
    user mark ({!Simcore.Word}), so lock-free structures with marked links
    (Harris list, Natarajan–Mittal tree) port directly (§3.1). *)

type t

type h
(** Per-process handle. *)

type cls
(** A registered object class: field count and which fields are counted
    references. *)

type rc = int
(** An owned counted reference: a pointer word whose object's count
    includes this reference. [Word.null] is the null reference. *)

type snap
(** A snapshot: a protected borrowed reference (Fig. 4). Process-local
    and, as in the paper, move-only — it is released exactly once. *)

val create :
  ?mode:Acquire_retire.Ar.mode ->
  ?snapshots:bool ->
  ?snapshot_slots:int ->
  ?eject_work:int ->
  Simcore.Memory.t ->
  procs:int ->
  t
(** [~snapshots:false] builds the Fig. 3-only variant (the benchmark's
    "DRC" line): [get_snapshot] degrades to [load] and [destruct]
    decrements eagerly. Default: snapshots on, 7 snapshot slots,
    lock-free acquire. *)

val handle : t -> int -> h
(** [handle t pid]; [pid = -1] is the sequential setup handle. *)

val ar : t -> Acquire_retire.Ar.t
(** The underlying acquire-retire instance (for bound audits). *)

(** {1 Classes and object creation} *)

val register_class :
  ?weak:bool ->
  ?weak_fields:int list ->
  t ->
  tag:string ->
  fields:int ->
  ref_fields:int list ->
  cls
(** [~weak:true] lays the object out with a weak count behind its fields
    so that {!weak_of} / {!upgrade} are available for its instances.
    Fields listed in [weak_fields] hold weak references, dropped (not
    destructed) when the object dies. *)

val find_class : t -> tag:string -> cls option

val make : h -> cls -> int array -> rc
(** [make h cls fields] allocates a managed object with the given initial
    field words and count 1 (the returned reference). Words in
    [ref_fields] positions transfer ownership (move). *)

val field_addr : rc -> int -> int
(** [field_addr obj i] is the address of field [i]; usable with all
    location operations below and with {!Simcore.Memory} reads. Accepts a
    marked or unmarked pointer word. *)

(** {1 Counted-location operations (Fig. 3)} *)

val load : h -> int -> rc
(** Atomically read the location and return a new owned reference
    (protect count, increment, release). *)

val store : h -> int -> rc -> unit
(** Move-store: the location takes over the caller's reference; the
    overwritten reference is retired. *)

val store_copy : h -> int -> rc -> unit
(** Copy-store: increments first (the caller keeps its reference). *)

val cas : h -> int -> expected:int -> desired:int -> bool
(** Copy-semantics CAS. [desired] may be borrowed (e.g. read from a field
    of a snapshot-protected object): it is announced for the duration, and
    on success the location gets its own increment; [expected] is compared
    as a full word (mark included) and retired on success. *)

val cas_move : h -> int -> expected:int -> desired:rc -> bool
(** Move-semantics CAS: on success the location consumes the caller's
    reference (no increment); on failure the caller keeps it. *)

val try_mark : h -> int -> expected:int -> bool
(** [try_mark h loc ~expected] CASes [expected → expected lor 1]: sets the
    deletion mark without touching any count (§3.1 marked pointers). *)

val try_flag : h -> int -> expected:int -> bool
(** Same for the second tag bit (Natarajan–Mittal edge tagging). *)

val destruct : h -> rc -> unit
(** Discard an owned reference. With snapshots enabled this defers the
    decrement (Fig. 4); otherwise it decrements eagerly (Fig. 3). *)

val dup : h -> rc -> rc
(** Copy an owned reference (increments). *)

val read_word : h -> int -> int
(** Plain charged read of a shared word (an unprotected borrow; only safe
    while the enclosing object is protected). *)

val set_field : h -> rc -> int -> rc -> unit
(** [set_field h obj i rc]: move-assign reference field [i] of an
    unpublished object, discarding the overwritten reference. *)

(** {1 Snapshots (Fig. 4)} *)

val get_snapshot : h -> int -> snap
(** Atomically read the location into a snapshot: protection without an
    increment while a free slot exists, falling back to an applied
    (deferred) increment when all slots are busy. *)

val snap_word : snap -> int
(** The pointer word (may carry a mark). *)

val snap_is_null : snap -> bool

val release_snapshot : h -> snap -> unit
(** Release; applies the deferred increment's matching decrement if this
    snapshot's slot was recycled. *)

val snap_to_rc : h -> snap -> rc
(** Promote a snapshot to an owned reference (increment) and release it. *)

(** {1 Weak references}

    The cycle-breaking extension the paper's §9 calls for. A weak
    reference keeps the object's block (not the object) alive; [upgrade]
    turns it back into a counted reference iff the object has not died,
    using the same acquire-retire protection as [load] — the announced
    pointer holds pending strong decrements back, so an observed
    non-zero count cannot race to zero mid-upgrade. Only instances of
    classes registered with [~weak:true] support these. *)

type weak = int
(** A weak reference word. *)

val weak_of : h -> rc -> weak
(** Create a weak reference from a strong one (the strong reference is
    retained by the caller). *)

val upgrade : h -> weak -> rc option
(** [Some rc] if the object is still alive; [None] after its strong
    count reached zero. *)

val drop_weak : h -> weak -> unit
(** Release; the last weak release (including the object's own) frees
    the block. *)

(** {1 Plain shared cells} *)

val alloc_cells : t -> tag:string -> n:int -> int
(** A block of [n] uncounted shared words, line-aligned — root locations
    for benchmarks ([atomic_rc_ptr] array). Initialized to null. *)

(** {1 Accounting and quiescence} *)

val deferred_decrements : t -> int
(** Currently deferred decrements (retired, not ejected) — Theorem 1's
    O(P²) quantity. *)

val flush : t -> unit
(** Quiescent cleanup (outside a run): eject everything ejectable and
    apply the decrements, cascading deletes, until a fixed point. Live
    snapshots still protect their objects. *)

(**/**)

val vm_emit_load : t -> Simcore.Vm.Asm.t -> pid:int -> src:int -> int
(** Emit the compiled form of {!load} (lock-free acquire mode only),
    sanitizer slot-protection notes included when the auditor is on.
    Returns the register holding the loaded word. *)

val vm_emit_store_fresh :
  t -> Simcore.Vm.Asm.t -> pid:int -> dst:int -> value:int -> unit
(** Emit the compiled form of {!store} for a fresh owned reference. *)

val vm_emit_destruct : t -> Simcore.Vm.Asm.t -> pid:int -> ptr:int -> unit
(** Emit the compiled form of {!destruct}. *)
