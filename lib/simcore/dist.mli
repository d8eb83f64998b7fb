(** Shared workload-distribution samplers (key popularity and arrival
    processes), factored out of the figure runners so the service layer
    and the ablations draw from one implementation.

    All samplers are deterministic functions of an explicit {!Rng.t}:
    fixing the seed fixes the sample stream, which is what keeps
    generated traffic bit-identical across [--jobs] levels and fastpath
    modes. *)

val uniform : Rng.t -> n:int -> int
(** Uniform over [\[0, n)] (alias of {!Rng.int} with the service layer's
    argument order). *)

(** Zipfian key popularity — the YCSB-style skewed-access model. *)
module Zipf : sig
  type z

  val create : n:int -> theta:float -> z
  (** A Zipfian distribution over [\[0, n)] with skew [theta] (0 =
      uniform; 0.99 = the YCSB default). Preprocessing is O(n). *)

  val draw : z -> Rng.t -> int
  (** O(log n) by binary search on the CDF. *)
end

(** Poisson arrival process, as inter-arrival gaps. *)
module Poisson : sig
  val interval : mean:float -> Rng.t -> int
  (** One exponential inter-arrival gap with the given mean, in integer
      ticks (rounded; 0 — simultaneous arrivals — is possible for small
      means). Summing successive gaps yields a Poisson process of rate
      [1 /. mean]. *)
end

(** On/off burst gating: an arrival process generated in "active time"
    is projected onto a timeline that alternates [on] active ticks with
    [off] silent ticks, concentrating the same average rate into
    bursts. *)
module Onoff : sig
  type t

  val create : on:int -> off:int -> t
  (** @raise Invalid_argument unless [on > 0] and [off >= 0]. *)

  val period : t -> int

  val is_on : t -> int -> bool
  (** Whether absolute tick [t] falls in an on-window. *)

  val project : t -> int -> int
  (** [project b t_on]: absolute time of the [t_on]-th tick of
      cumulative on-time. Monotone; every projected tick satisfies
      {!is_on}. *)
end
