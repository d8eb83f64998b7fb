(** The flat hot state of one simulated machine — heap words, block
    metadata and coherence-line state in parallel unboxed int arrays.

    Internal to the simulator: {!Memory} owns and maintains one; {!Vm}
    reads the fields directly, and both engines share the access
    helpers below ({!valid}, inlined, and the cost functions), so a compiled
    instruction stream and a {!Memory} entry point run the same code on
    the access fast path (see memcore.ml). Algorithm and workload code
    should use {!Memory}. The record is exposed transparently for
    exactly those two clients. *)

type cost = {
  c_l1 : int;
  c_hit : int;
  c_read_miss : int;
  c_rmw_owned : int;
  c_rmw_transfer : int;
  c_dwcas_extra : int;
  c_alloc : int;
  c_free : int;
}
(** The instruction cost model, documented where it is re-exported:
    {!Config.cost}. It lives here so that the instruments, whose modes
    {!Config} names, can read the heap without a module cycle. *)

type t = {
  mutable words : int array;
  mutable block_id : int array;
  mutable top : int;
  mutable n_blocks : int;
  mutable b_base : int array;
  mutable b_size : int array;
  mutable b_live : int array;  (** 1 = live, 0 = freed *)
  mutable b_freed_by : int array;
  mutable b_next : int array;
  mutable b_tag : string array;
  mutable lines : int array;
  mutable vers : int array;
  l1_line : int array;
  l1_ver : int array;
  c_l1 : int;
  c_hit : int;
  c_read_miss : int;
  c_rmw_owned : int;
  c_rmw_transfer : int;
  c_alloc : int;
  c_free : int;
  mutable san_on : bool;
}

val line_words : int

val alloc_align : int
(** Block base alignment in words (a cache-line pair). Fixing each
    block line's parity relative to its base keeps the two-way L1's way
    choice — and with it every access cost — independent of which
    same-size block an allocator returns (DESIGN.md §4j). *)

val max_pids : int

val grow_array : 'a array -> needed:int -> fill:'a -> 'a array
(** [grow_array a ~needed ~fill] is a copy of [a] grown to at least
    [needed] entries (at least doubling), new entries set to [fill] —
    the one array-doubling dance shared by every growable array in the
    heap. *)

val create : cost -> t

val reset_lines : t -> base:int -> size:int -> unit
(** Canonicalize the block's lines to cold (no owner, version bumped so
    all cached copies miss). Called on block reuse so post-alloc access
    costs cannot depend on the address the allocator chose. *)

val ensure_words : t -> int -> unit
(** Grow [words]/[block_id] to cover at least the given address count. *)

val ensure_block : t -> int -> unit
(** Grow the block-metadata arrays to cover block id [id]. *)

val line_of_addr : int -> int

val block_of : t -> int -> int
(** The id of the block containing address [a] (live or freed), or [0]
    when [a] lies in none. *)

val valid : t -> int -> bool
(** [valid t a]: address [a] lies in a live block — the one validity
    predicate of every data access, on both engines.
    {!Memory.validate_addr} classifies the fault when it is false. *)

(** {1 Coherence cost model}

    A two-state (shared / exclusive-by-one-core) abstraction of MESI,
    plus a two-way per-process L1. [cost_*] return the tick price of an
    access {e and} perform the resulting state transition. This is what
    makes contended reference-count updates expensive and single-writer
    hazard-pointer announcements cheap — the asymmetry at the heart of
    the paper's §5.2. *)

val cost_read : t -> pid:int -> addr:int -> int
(** Tick price of a read, performing the line-state transition: a line
    held exclusively by another core is demoted to shared. *)

val cost_write : t -> pid:int -> addr:int -> int
(** Tick price of a store/CAS/FAA/FAS, taking the line exclusive. *)
