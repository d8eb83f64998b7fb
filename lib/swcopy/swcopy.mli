(** Single-writer atomic copy — the [Destination] objects of Blelloch and
    Wei (DISC 2020), the substrate behind the paper's wait-free
    constant-time [acquire] (§2 "Single-Writer Atomic Copy", §6).

    A [Destination] holds one word. One distinguished process (the owner)
    may [write] to it or [swcopy] into it; any process may [read]. The
    crucial operation is [swcopy dst ~src]: atomically copy the word
    stored at address [src] into [dst] — the read of [src] and the write
    of [dst] appear as a single atomic step, which is exactly what makes a
    hazard-pointer announcement loop unnecessary.

    All operations are wait-free and O(1). Implementation: a copy installs
    a descriptor in the destination; readers encountering the descriptor
    help resolve it by reading the source themselves and agreeing on a
    single winner via CAS. Descriptors are reclaimed with an internal
    epoch-based scheme, substituting for the original's bounded-space
    construction (documented in DESIGN.md §4); bounds become O(1)
    amortized space per copy rather than worst-case, without affecting
    the wait-freedom or atomicity arguments.

    Values must be non-negative and fit in 62 bits (one bit is used to
    distinguish descriptors). Pointer words ({!Simcore.Word}) satisfy
    this. *)

type ctx
(** Shared state (descriptor reclamation) for a family of destinations. *)

type dst
(** A destination object. *)

val create_ctx : Simcore.Memory.t -> procs:int -> ctx

val make : ctx -> init:int -> dst
(** Allocate a destination holding [init]. *)

val make_packed : ctx -> n:int -> init:int -> dst array
(** [n] destinations packed into one cache line (n <= 8) — the layout
    the paper uses for a process's announcement slots (§5.2). *)

val read : ctx -> dst -> int
(** Wait-free atomic read; helps any in-flight copy. Enters and leaves a
    read-side critical region by itself — for batches prefer
    [enter]/[read_raw]/[exit]. *)

val write : ctx -> dst -> int -> unit
(** Owner-only atomic write. *)

val swcopy : ctx -> dst -> src:int -> int
(** Owner-only atomic copy of the word at address [src]; returns the
    value that was copied. *)

val enter : ctx -> unit
(** Enter a read-side critical region for a batch of [read_raw]s. *)

val read_raw : ctx -> dst -> int
(** [read] without entering a critical region; caller must hold one. *)

val exit : ctx -> unit

val vm_emit_enter : ctx -> Simcore.Vm.Asm.t -> pid:int -> int
(** Emit [enter] for process [pid] into a {!Simcore.Vm} stream;
    returns a register to hand to {!vm_emit_exit}. *)

val vm_emit_exit : ctx -> Simcore.Vm.Asm.t -> pid:int -> window:int -> unit

val plain_value : int -> int
(** The value of a raw destination word read with no copy in flight (a
    destination only ever [write]n, never [swcopy]'d into).
    @raise Invalid_argument on a descriptor. *)

val addr : dst -> int
(** Address of the destination's word (for cost accounting in tests). *)
