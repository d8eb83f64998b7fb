(** Named integer counters and gauges for instrumenting simulation runs. *)

type t

val create : unit -> t

val incr : ?by:int -> t -> string -> unit

val set : t -> string -> int -> unit

val set_max : t -> string -> int -> unit
(** [set_max t k v] records [max v (get t k)]. *)

val get : t -> string -> int
(** 0 when the counter was never touched. *)

val to_list : t -> (string * int) list
(** All counters, sorted by name. *)

val clear : t -> unit

(** {1 Histograms}

    Power-of-two-bucketed latency histograms, for per-operation tick
    distributions (tail latency is where lock-freedom and wait-freedom
    part ways). *)

module Histogram : sig
  type h

  val create : unit -> h

  val add : h -> int -> unit
  (** Record a non-negative sample. *)

  val merge : h -> h -> h
  (** [merge a b] is a fresh histogram equivalent to adding every sample
      of [a] and [b]; neither input is modified. Bucket counts sum, so
      the merge is exact (the per-process telemetry shards aggregate
      through this). *)

  val n_buckets : int
  (** Number of power-of-two buckets; samples at or beyond
      [2 ^ (n_buckets - 2)] all land in the last bucket. *)

  val bucket_of : int -> int
  (** The bucket a sample lands in: [0] for [v <= 0], else the
      smallest [i] with [2 ^ (i - 1) >= v], clamped to
      [n_buckets - 1]. *)

  val count : h -> int

  val mean : h -> float

  val max_sample : h -> int

  val percentile : h -> float -> int
  (** [percentile h 0.99]: smallest bucket upper bound covering the
      quantile (exact for the retained resolution). *)

  val quantile : h -> float -> float
  (** [quantile h q] ([0 <= q <= 1]): interpolated quantile — the
      continuous rank [q *. n] placed linearly inside its bucket's value
      range. Sharper than {!percentile} for tail reads (p99.9): the
      last bucket is clamped at {!max_sample}, so the estimate never
      exceeds the largest observed sample, and [quantile h 1.0 =
      max_sample] exactly. Monotone in [q]; [0.0] on an empty
      histogram. Like every derived statistic it is a pure function of
      the bucket counts, so it is invariant under {!merge}
      regrouping. *)

  val pp : Format.formatter -> h -> unit
end
