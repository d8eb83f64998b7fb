(** The simulator's run queues: two deterministic int priority queues
    that pop by (key, insertion order), so scheduling is fully
    deterministic. *)

(** Allocation-free 4-ary array heap over non-negative int values,
    ordered by (key, insertion order); key and sequence number are
    packed into one int so comparisons are single unboxed compares. Keys
    are limited to [0, 2^31-1]. Used by the scheduler hot loop, where
    per-step heap-node allocation would dominate. *)
module Int_heap : sig
  type t

  val create : int -> t
  (** [create cap] preallocates capacity for [cap] elements (grows
      automatically if exceeded). *)

  val is_empty : t -> bool

  val length : t -> int

  val add : t -> key:int -> int -> unit
  (** [add t ~key v] inserts value [v >= 0] with priority [key].
      @raise Invalid_argument when [key] exceeds the packed range. *)

  val min_key : t -> int
  (** Smallest key, or [max_int] when empty. *)

  val peek : t -> int
  (** Value of the minimum element without removing it, or [-1] when
      empty. *)

  val second_key : t -> int
  (** Key of the element that would pop second, or [max_int] when fewer
      than two elements are queued. With {!peek} and
      {!reprioritize_min}, lets a caller run the minimum and requeue it
      without ever popping. *)

  val reprioritize_min : t -> key:int -> unit
  (** Give the minimum element a new key (and a fresh insertion sequence
      number): observationally identical to [pop_min] followed by
      [add ~key] of the same value, in one sift. *)

  val pop_min : t -> int
  (** Remove and return the minimum element's value, or [-1] when
      empty. Ties pop in insertion order. *)
end

(** O(1) priority queue for the scheduler's core clocks: same
    deterministic (key, insertion order) pop order as {!Int_heap}
    (pinned by a differential property in [test/test_pqueue.ml]), under
    a restricted contract — each value [v] is an index in [0, n) queued
    at most once, and a key may never be inserted below the current
    minimum (core clocks only advance). Near keys live in a bucket ring
    with per-bucket FIFO chains and a nonempty bitmap, so the hot
    [peek]/[second_key]/[reprioritize_min] triple of a scheduling round
    costs a few loads instead of a heap sift; far keys (≥ minimum +
    1024) sit in an {!Int_heap} overflow drained as the minimum
    advances. *)
module Core_ring : sig
  type t

  val create : int -> t
  (** [create n] for values in [0, n). *)

  val is_empty : t -> bool

  val length : t -> int

  val add : t -> key:int -> int -> unit
  (** @raise Invalid_argument when [key] is below the current minimum. *)

  val min_key : t -> int
  (** Smallest key, or [max_int] when empty. *)

  val peek : t -> int
  (** Value of the minimum element, or [-1] when empty. *)

  val second_key : t -> int
  (** Key of the element that would pop second, or [max_int] when fewer
      than two elements are queued. *)

  val reprioritize_min : t -> key:int -> unit
  (** Requeue the minimum element under [key >= its key]: equivalent to
      [pop_min] followed by [add ~key]. *)

  val pop_min : t -> int
  (** Remove and return the minimum element's value, or [-1] when
      empty. *)
end
