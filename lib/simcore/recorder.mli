(** The event ring: flight recorder and tracer.

    An always-on bounded ring of recent typed events per simulated
    process, recorded in O(1) with zero allocation on the hot path
    (parallel int arrays; label strings stored by reference). It serves
    two purposes:

    - the {e flight recorder}: each {!Memory.t} keeps one, notes its
      allocs, frees, retires, faults and reports in it, and renders it
      as one merged, step-ordered timeline ({!dump_string}) when a run
      dies; the service layer attaches it to SLO-breaching cells;
    - the {e tracer}: {!Sim.run} records every context switch and
      fault into the recorder it is given, algorithm code can add
      instants, spans and counts at zero simulated cost, and
      {!chrome_json} exports the rings for chrome://tracing or
      Perfetto ([repro run --trace-out]).

    Each ring keeps its process's most recent events, which is what one
    wants when a run dies after millions of steps. Recording never
    perturbs simulated state (it pays nothing and draws no randomness);
    reading happens outside the simulation. *)

type t

type kind =
  | Instant
  | Span_begin
  | Span_end
  | Count of int  (** a sampled level, rendered as a counter track *)

type event = {
  step : int;  (** global scheduler step at emission *)
  pid : int;  (** emitting process; [-1] outside a simulation *)
  run : int;  (** which [Sim.run] against this recorder (see {!new_run}) *)
  label : string;
  kind : kind;
}

val create : ?capacity:int -> unit -> t
(** [capacity] events (default 32, a flight recorder's) are retained
    per process. Per-process rings are allocated lazily, on each pid's
    first event. Events take pid and global step from the creating
    domain's env cell ({!Proc.here}), so a recorder records on that
    domain only ([--trace-out] needs [--jobs 1]). *)

(** {1 Recording}

    Under the calling process's pid and the current global step. Labels
    must be constant or long-lived strings: they are stored by
    reference, not copied. *)

val instant : t -> string -> unit

val span_begin : t -> string -> unit
(** Open a span; close it with {!span_end} under the same label from
    the same process. Exported as Chrome "B"/"E" duration events. *)

val span_end : t -> string -> unit

val count : t -> string -> int -> unit
(** A sampled level (a Chrome counter track); the flight recorder notes
    addresses this way ([free = 1234]). *)

val new_run : t -> unit
(** Start a new run track group; {!Sim.run} calls this for its tracer
    so events from successive runs (whose virtual clocks each restart
    at zero) never interleave on one timeline. *)

val clear : t -> unit
(** Drop every ring and restart the run count. *)

(** {1 Reading} *)

val events : t -> event list
(** All retained events, merged across processes, oldest first by run
    and global step (deterministic tie-break by pid, then ring order). *)

val dump_string : ?header:string -> t -> string
(** The merged timeline, one ["[step] pN: text"] line per event, wrapped in
    ["--- <header>"] / ["--- end <header>"] marker lines. *)

val chrome_json : out_channel -> t -> unit
(** Write the retained events as Chrome trace-event JSON ("JSON Object
    Format"): [pid] = run index, [tid] = simulated process, [ts] =
    global step — nondecreasing per (pid, tid) track. *)

(** {1 Automatic dumping}

    Whether failure paths ({!Memory}'s fault raise and reports, the
    service bench's SLO verdicts) actually print the timeline. Off by
    default so tests that probe the fault machinery on purpose stay
    quiet; the repro CLI enables it. *)

val set_auto_dump : bool -> unit

val auto_dump_enabled : unit -> bool
