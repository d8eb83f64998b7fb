(** Compiled inner loops: a register machine over flat int-array
    instruction streams.

    The closure-based workload bodies cost an indirect call, an
    environment load and several module-boundary crossings per simulated
    instruction. For the benchmark inner loops — millions of iterations
    of "pick a location, run one reference-count operation" — {!Vm}
    removes that overhead: the loop is compiled once per process into
    [code : int array] and dispatched by a tight loop over unboxed ints.

    {b Identity.} A compiled loop is bit-identical to its closure
    original (which stays in-tree as the differential oracle; see
    [test/test_vm.ml] and DESIGN.md §4h):

    - memory opcodes replicate {!Memory}'s exact sequence — coherence
      cost, pay, address validation, array access — against the same
      shared {!Memcore} state; with the sanitizer or race checker
      armed they flush their elided pays and call the same per-access
      observer as the {!Memory} entry points, right after validation;
    - pays elided under the scheduler's run-ahead budget are batched in
      a local accumulator and flushed through [Proc.env.bulk_pay] before
      any point that could observe clocks or step counts (host calls,
      suspensions, faults, [HALT]); a pay beyond the budget reaches the
      scheduler with the same tick sequence as closure code — by a flat
      {!coroutine} return, or by the {!Proc.Pay} effect under {!exec}.
      Scheduling points are thus the only suspension sites;
    - [RNGI]/[RNGB] draw from the same per-process {!Rng} stream in the
      same order as the closure body;
    - anything rare or cold (allocation, reclamation scans, sampling)
      stays an OCaml closure called via [HOST], after a flush; a
      closure that never pays is called via [LEAF] instead, a plain
      call with no fiber, checked by the step counter (see
      {!Asm.host_leaf}).

    Faults raised by hosts or by inline validation (re-raised through
    {!Memory.validate_addr} for an identical {!Memory.Fault}) propagate
    out of {!coroutine}/{!exec} to the simulator like any other process
    exception. *)

type hosted
(** Resumption state of a host call suspended mid-flight (internal to
    the dispatch loop; exposed only because [frame] stores it). *)

type frame = {
  regs : int array;
  cells : int array;  (** program/host shared scratch, survives [exec] *)
  rng : Rng.t;  (** the process's own stream, normally [Proc.rng ()] *)
  mem : Memory.t;
  hc : Memcore.t;  (** [Memory.hot mem]; never cache [hc.words] *)
  mutable pc : int;  (** next instruction; where a {!coroutine} resumes *)
  mutable paid : bool;
      (** the memory opcode at [pc] already charged its cost *)
  mutable acc : int;  (** unflushed elided-pay ticks (internal) *)
  mutable npays : int;  (** number of pays folded into [acc] (internal) *)
  mutable yn : int;  (** pay amount of the yield in flight (internal) *)
  mutable pending : (unit -> hosted) option;
      (** host call to finish before dispatching at [pc] *)
}

type program = {
  code : int array;
  tables : int array array;
  fconsts : float array;  (** probabilities for [RNGB] *)
  hosts : (frame -> unit) array;
  counters : (int * Telemetry.counter) array;
      (** cell-accumulated counters; see {!flush_counters} *)
  n_regs : int;
  n_cells : int;
}

val frame : program -> mem:Memory.t -> rng:Rng.t -> cells:int array -> frame
(** Fresh zeroed registers over caller-owned [cells] (length at least
    [n_cells]). *)

val coroutine : program -> frame -> unit -> int
(** [coroutine p fr] specializes the dispatch loop to one frame: the
    returned thunk runs from [fr.pc] until the next pay that must reach
    the scheduler, saves its resumption state into [fr], and returns the
    tick amount — or [-1] on [HALT]. No effect is performed and no fiber
    is switched on this path; only a [HOST] call runs in a (one-shot)
    fiber of its own, so that a pay from arbitrary host code can suspend
    just that call. This is the flat protocol behind [Sim.run]'s
    [coroutine] parameter: the scheduler charges the returned pay
    exactly as it would a performed {!Proc.Pay}, then re-enters the
    thunk by plain call at the next grant. Must be created and invoked
    inside a simulated process ([Invalid_argument] otherwise); create at
    most one coroutine per frame. *)

exception Leaf_paid of int
(** A [LEAF] call (at this code index) paid: a broken leaf contract. *)

val exec : program -> frame -> unit
(** Run from code index 0 until [HALT]. Must be called from inside a
    simulated process ([Invalid_argument] otherwise). May perform the
    {!Proc.Pay} effect; re-entrant across suspensions. Fiber-mode
    equivalent of driving {!coroutine} to completion. *)

val flush_counters : program -> frame -> unit
(** Fold counter cells ({!Asm.counter_cell}) into their telemetry
    counters and zero them. Call after the final {!exec} of a run — the
    counters then read as if every [CELLINC] had been a
    [Telemetry.incr] (counter totals are only snapshotted between runs,
    so batching is invisible). *)

(** {1 Assembler}

    Single pass with back-patched labels. Registers, cells, hosts,
    tables and float constants are allocated/interned per assembler.
    Branch/jump emitters take a {!Asm.label}, placed at most once via
    {!Asm.place}. *)

module Asm : sig
  type t

  val create : ?cells:int -> unit -> t
  (** [cells] reserves that many low cell indices for the driver
      protocol (they are not returned by {!cell}). *)

  val reg : t -> int

  val cell : t -> int

  val counter_cell : t -> Telemetry.counter -> int

  val label : t -> int

  val place : t -> int -> unit

  val host : t -> (frame -> unit) -> unit
  (** Register the closure and emit a [HOST] call to it: it runs in a
      one-shot fiber of its own, so it may pay (and suspend). *)

  val host_leaf : t -> (frame -> unit) -> unit
  (** Register the closure and emit a [LEAF] call to it: after the
      flush, a plain OCaml call with no fiber and no effect handler.
      The closure must never pay — no {!Proc.pay}, no {!Memory} access.
      A pay always moves the step counter, so the loop compares
      [Proc.env.gclock] across the call and raises {!Leaf_paid} (a
      process fault) when it moved; under a flat {!coroutine}, a pay
      that would suspend has no handler and fails even earlier. *)

  val table : t -> int array -> int
  (** Register a lookup table for {!tab}; returns its index. *)

  val fconst : t -> float -> int

  (** {2 Opcode emitters} *)

  val halt : t -> unit

  val jmp : t -> int -> unit

  val beq : t -> int -> int -> int -> unit
  (** [beq a r1 r2 l]: branch to [l] when [regs.(r1) = regs.(r2)]; same
      shape for [bne]/[blt]. *)

  val bne : t -> int -> int -> int -> unit

  val blt : t -> int -> int -> int -> unit

  val beqi : t -> int -> int -> int -> unit
  (** [beqi a r i l]: branch against an immediate; same shape for
      [bnei]/[blti]/[bgei]. *)

  val bnei : t -> int -> int -> int -> unit

  val blti : t -> int -> int -> int -> unit

  val bgei : t -> int -> int -> int -> unit

  val movi : t -> int -> int -> unit

  val mov : t -> int -> int -> unit

  val add : t -> int -> int -> int -> unit

  val addi : t -> int -> int -> int -> unit

  val shli : t -> int -> int -> int -> unit

  val shri : t -> int -> int -> int -> unit
  (** Logical shift right ([lsr]). *)

  val andi : t -> int -> int -> int -> unit

  val read : t -> int -> int -> unit
  (** [read a rd ra]: [rd <- heap word at address regs.(ra)], with
      {!Memory.read}'s cost/validation semantics. *)

  val write : t -> int -> int -> unit
  (** [write a ra rv]. *)

  val cas : t -> int -> int -> expected:int -> desired:int -> unit
  (** [cas a rd ra ~expected ~desired]: [rd <- 1] on success else [0];
      operands are registers. *)

  val faa : t -> int -> int -> int -> unit

  val faai : t -> int -> int -> int -> unit
  (** [faai a rd ra delta] with an immediate delta. *)

  val fas : t -> int -> int -> int -> unit

  val payi : t -> int -> unit

  val payr : t -> int -> unit

  val now : t -> int -> unit
  (** [now a rd]: the process-visible clock, unflushed batched ticks
      included — equals what {!Proc.now} would return at a flush. *)

  val rngi : t -> int -> int -> unit
  (** [rngi a rd bound]: [rd <- Rng.int rng bound]. *)

  val rngb : t -> int -> int -> unit
  (** [rngb a rd f]: [rd <- Rng.below rng fconsts.(f)] as 0/1. *)

  val tab : t -> int -> int -> int -> unit
  (** [tab a rd t ri]: [rd <- tables.(t).(regs.(ri))]. *)

  val cellld : t -> int -> int -> unit

  val cellinc : t -> int -> int -> unit

  val assemble : t -> program
  (** @raise Invalid_argument on an unplaced label. *)
end

(** {1 Symbolic form}

    For tests and tooling only; the assembler emits the packed stream
    directly. *)

type instr =
  | Halt
  | Jmp of int
  | Beq of int * int * int
  | Bne of int * int * int
  | Blt of int * int * int
  | Beqi of int * int * int
  | Bnei of int * int * int
  | Blti of int * int * int
  | Bgei of int * int * int
  | Movi of int * int
  | Mov of int * int
  | Add of int * int * int
  | Addi of int * int * int
  | Shli of int * int * int
  | Shri of int * int * int
  | Andi of int * int * int
  | Read of int * int
  | Write of int * int
  | Cas of int * int * int * int
  | Faa of int * int * int
  | Faai of int * int * int
  | Fas of int * int * int
  | Payi of int
  | Payr of int
  | Now of int
  | Rngi of int * int
  | Rngb of int * int
  | Host of int
  | Leaf of int
  | Tab of int * int * int
  | Cellld of int * int
  | Cellinc of int * int

val encode : instr list -> int array

val decode : int array -> instr list option
(** Inverse of {!encode}; [None] on a malformed stream (bad opcode or
    truncated operands). [decode (encode l) = Some l] for any [l] —
    pinned by a QCheck property in [test/test_vm.ml]. *)

val arity : int array
(** Operand count per opcode; instruction size is [1 + arity.(op)]. *)
