(** Common signature for atomic reference-counted-pointer schemes — the
    contenders of the paper's §7.1 (Figure 6): lock-based (GNU libstdc++),
    split reference count packed in one word (Folly), split count with
    double-word CAS (just::thread), Herlihy et al.'s lock-free counting
    (plain and optimized), OrcGC, and our deferred scheme (with and
    without snapshots). {!Eager_rc} is the deliberately racy textbook
    scheme used for failure injection.

    Managed objects share one layout (see {!Rc_obj}): word 0 holds the
    scheme's count(s), then user fields. Plain data fields are read
    directly via {!Simcore.Memory}; fields holding counted references are
    operated on through the scheme, since cell encodings differ (packed
    external counts, etc.). *)

(** Compiled forms of the hot operations, emitted into a {!Simcore.Vm}
    instruction stream by the workload drivers (see
    [Workload.Fig6.loadstore_point]). Register arguments and results are
    {!Simcore.Vm.Asm} register indices; [pid] is fixed at emit time (the
    stream is per-process), letting per-process constants — guard
    addresses, announcement slots — become immediates.

    Contract: the emitted sequence must be tick-, RNG- and
    heap-identical to the closure operation it compiles: [vm_load] to
    [load], [vm_destruct] to [destruct], and [vm_store_fresh] to [store]
    of a freshly allocated (count-1, non-null) reference. Annotations
    the closure makes outside the heap are emitted as [HOST] calls at
    the same points, and only when armed at emit time: the sanitizer's
    slot-protection notes (DRC's acquire, see {!Acquire_retire.Ar}) and
    the profiler's retry frames ({!Vm_retry}). Rare paths (reclamation,
    scans) stay host closures, so only the per-operation fast path is
    flattened. The closure operations remain the differential oracle
    ([test_vm]). *)
type vm_ops = {
  vm_header : int;
      (** header words before user fields, so [field_addr] can be
          emitted as pointer arithmetic *)
  vm_load : Simcore.Vm.Asm.t -> pid:int -> src:int -> int;
      (** emit [load] from the address in register [src]; returns the
          register left holding the owned reference word *)
  vm_store_fresh : Simcore.Vm.Asm.t -> pid:int -> dst:int -> value:int -> unit;
      (** emit [store] of the fresh owned reference in register [value]
          into the address in register [dst] *)
  vm_destruct : Simcore.Vm.Asm.t -> pid:int -> ptr:int -> unit;
      (** emit [destruct] of the reference word in register [ptr] *)
}

module type S = sig
  type t

  type h
  (** Per-process handle. *)

  type cls

  type snap
  (** A protected or owned short-lived reference. Schemes without cheap
      protection implement it as an owned reference ("perform a load
      instead", §7.1). *)

  val name : string

  val create : Simcore.Memory.t -> procs:int -> t

  val handle : t -> int -> h
  (** [pid = -1] is the sequential setup handle. *)

  val register_class :
    t -> tag:string -> fields:int -> ref_fields:int list -> cls

  val make : h -> cls -> int array -> int
  (** Allocate with count 1; ref-field words transfer ownership. Returns
      an owned reference (a pointer word). *)

  val field_addr : int -> int -> int
  (** [field_addr obj i]: address of user field [i]; uniform across
      schemes. *)

  val load : h -> int -> int
  (** Owned atomic load from a counted location. *)

  val store : h -> int -> int -> unit
  (** Move-store into a counted location; retires/decrements the
      overwritten reference. *)

  val cas : h -> int -> expected:int -> desired:int -> bool
  (** Copy-semantics CAS on decoded pointer values. [desired] may be a
      borrowed pointer that the caller has protected (via a snapshot on
      its container or ownership). *)

  val cas_move : h -> int -> expected:int -> desired:int -> bool
  (** Move-semantics CAS: success consumes the caller's reference to
      [desired]. *)

  val peek_ref : h -> int -> int
  (** Decode the plain pointer word currently stored in a counted
      location, without protection — only safe while the enclosing object
      is protected. *)

  val set_ref_field : h -> int -> int -> int -> unit
  (** [set_ref_field h obj i rc]: move-assign a reference field of an
      object that is not yet published (e.g. fixing up [next] in a failed
      push loop); the overwritten reference is discarded. *)

  val destruct : h -> int -> unit
  (** Discard an owned reference. *)

  val get_snapshot : h -> int -> snap

  val snap_word : snap -> int

  val snap_is_null : snap -> bool

  val release_snapshot : h -> snap -> unit

  val deferred : t -> int
  (** Reclamations currently deferred (0 for eager schemes). *)

  val flush : t -> unit
  (** Quiescent cleanup: apply every deferred reclamation. *)

  val vm_ops : t -> vm_ops option
  (** Compiled forms of [load]/[store]/[destruct] for the {!Simcore.Vm}
      fast path, or [None] when the scheme has no compiled form (the
      drivers then run the closure operations from a host call). *)
end
