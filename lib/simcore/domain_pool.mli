(** A fixed pool of worker domains for embarrassingly-parallel sweeps.

    The benchmark harness runs sweeps of independent deterministic cells
    — (scheme × thread count × seed) — each of which owns its entire
    universe: its own {!Memory.t} (hence its own {!Telemetry} registry),
    its own split {!Rng} stream, its own {!Sim.run} instance. Such cells
    share no mutable state, so they can execute on separate OCaml 5
    domains and still produce bit-identical results; only wall-clock
    time changes. This module provides the scheduling: a shared FIFO of
    thunks drained by [jobs - 1] worker domains plus the submitting
    domain itself, with results returned in submission order so tables
    print exactly as a sequential run would.

    With [jobs = 1] no domains are ever spawned and {!map_ordered} is a
    plain in-order [List.map] on the calling domain — the pool costs
    nothing when parallelism is off.

    The pool is {e not} reentrant: jobs must not themselves submit work
    to the pool they run on. *)

type t

exception
  Job_error of {
    index : int;  (** submission index of the failing job *)
    label : string;  (** the cell's name, from [map_ordered]'s [label] *)
    exn : exn;
    backtrace : string;
  }
(** Raised by {!map_ordered} when a job raises. The pool itself survives
    (all other jobs still run to completion first); the exception names
    the cell so a faulting benchmark point is attributable. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs >= 1];
    raises [Invalid_argument] otherwise). The calling domain is the
    remaining worker: it drains the queue while waiting inside
    {!map_ordered}, so total parallelism is exactly [jobs]. *)

val map_ordered : t -> ?label:('a -> string) -> ('a -> 'b) -> 'a list -> 'b list
(** [map_ordered pool ~label f xs] applies [f] to every element of
    [xs], executing the applications concurrently on the pool, and
    returns the results in the order of [xs] — never in completion
    order. [label] names each job for {!Job_error} (default: its
    submission index).

    If any job raises, every job still runs, and then the first failure
    in submission order is re-raised as {!Job_error}. With [jobs = 1]
    the whole call runs on the calling domain (no queue, no domains) and
    aborts at the first failing job, like the [List.map] it replaces. *)

val map_grid :
  t ->
  ?label:('r -> 'c -> string) ->
  rows:'r list ->
  cols:'c list ->
  ('r -> 'c -> 'b) ->
  ('r * 'b list) list
(** Sweep helper for the row × column grids the figure tables are made
    of: evaluates the full cross product through {!map_ordered} in
    row-major order (matching the sequential harness's loop nest) and
    regroups the flat results into one [(row, cells)] pair per row. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, and always terminate and join the worker domains. *)

val sequential : t
(** A shared [jobs = 1] pool (no domains, nothing to shut down) — the
    default for every harness entry point, preserving sequential
    behaviour exactly when no [--jobs] is given. *)
