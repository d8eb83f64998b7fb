(** The experiment registry: one entry per table/figure of the paper's
    evaluation (DESIGN.md's per-experiment index), shared by the
    [repro] CLI and the benchmark executable. *)

type ctx = {
  threads : int list option;  (** override the sweep *)
  quick : bool;  (** smaller sweeps and horizons *)
  seed : int;
  stats : bool;
      (** print a merged telemetry summary after each experiment *)
  profile_out : string option;
      (** with [arm.profile], also write every cell's collapsed phase
          stacks (flamegraph.pl folded format) to this file,
          accumulated across the requested experiments *)
  arm : Measure.arm;
      (** what every benchmark cell runs under: the pool its cells map
          through ([--jobs]), its config ([--no-vm], [--alloc],
          [--sanitize], [--race]), per-cell profilers ([--profile]) and
          the tracer ([--trace-out]). The CLI builds it with
          {!Simcore.Config.resolve}. No field changes the tables: each
          armed instrument adds only a strippable block after them. *)
}

val default_ctx : ctx
(** Full sweeps, seed 42, {!Measure.unarmed}. *)

type exp = {
  id : string;  (** e.g. "6a", "7c", "audit-bounds" *)
  title : string;
  run : ctx -> unit;
}

val all : exp list

val report : ctx -> id:string -> (unit -> unit) -> string
(** [report ctx ~id f] runs [f], then prints the blocks of what [ctx]
    arms, labelled [id]: the [--- racecheck] reports when
    [arm.config.race] is on, the merged telemetry when [stats], and the
    [--- profile] breakdown when [arm.profile]. Returns the collapsed
    phase stacks of the profiled cells ([""] unprofiled). [run_ids] and
    the [serve] subcommand both print through it. *)

val run_ids : ctx -> string list -> unit
(** Run the given experiment ids ("all" = everything).
    @raise Failure on an unknown id. *)
