(** Deterministic traffic generation for the serving benchmark.

    Traffic is generated {e before} the simulation starts, from the run
    seed alone: an array of requests, each with an arrival instant in
    virtual ticks, an issuing client, and a {!Kv.op}. The simulation
    then replays the schedule open-loop — arrivals do not wait for
    completions, which is what makes queueing delay (and hence tail
    latency under load) observable. Because generation never reads
    simulation state, the same seed produces byte-identical traffic at
    every [--jobs] level and fastpath mode. *)

type key_dist = Uniform | Zipfian of float  (** theta in [0, 1) *)

type mix = { gets : int; puts : int; removes : int }
(** Percentages; must sum to 100. *)

val default_mix : mix
(** 90% get / 5% put / 5% remove — a read-heavy cache shape. *)

val mix_valid : mix -> bool

type arrival =
  | Fixed  (** evenly spaced arrivals at the offered rate *)
  | Poisson  (** exponential inter-arrivals at the offered rate *)
  | Bursty of { on : int; off : int }
      (** Poisson arrivals gated by an on/off cycle ([on] active ticks,
          then [off] silent ticks): same average rate, concentrated
          [(on+off)/on]-fold inside the bursts. *)
  | Closed of { think : int }
      (** Closed loop, for comparison: each worker issues its next
          request [think] ticks after the previous one completes.
          There is no arrival schedule and no inbox — queueing delay is
          identically zero, which is exactly the contrast with the
          open-loop modes. *)

val pp_arrival : Format.formatter -> arrival -> unit

type req = { arr : int; client : int; op : Kv.op }

val generate :
  seed:int ->
  arrival:arrival ->
  rate:int ->
  duration:int ->
  clients:int ->
  key_dist:key_dist ->
  keyspace:int ->
  mix:mix ->
  unit ->
  req array
(** The full request schedule, sorted by arrival. [rate] is requests
    per kilotick. For [Closed _] the arrival instants are all 0 and the
    request count is the open-loop budget [rate * duration / 1000].
    @raise Invalid_argument on a non-positive rate/duration/clients/
    keyspace or an invalid mix. *)

val worker_of_client : workers:int -> int -> int
(** Client affinity ([client mod workers]) — every client's requests
    land on one worker, in order. *)

val shard : req array -> workers:int -> req array array
(** Partition a schedule by {!worker_of_client}, each shard preserving
    arrival order. *)
