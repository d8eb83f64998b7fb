(** The request-level façade of the simulated KV service.

    A [Kv.t] is a Michael hash table from {!Cds.Set_catalogue}, under
    one of the paper's reclamation schemes, and exposes the three
    request verbs a serving stack sees. Keys are presence-keyed: [Put]
    inserts, [Remove] deletes, [Get] reads membership; every reply
    reports whether the request changed (or observed) the key, so
    replies are checkable against a functional-map specification
    ({!Simcore.Lincheck}).

    {b Read-your-writes.} The service routes every client to a fixed
    worker (client affinity, see {!Loadgen.shard}) and each worker's
    inbox is FIFO, so one client's requests execute in issue order; the
    backends are linearizable (pinned for the service façade by the
    Lincheck pass in [test/test_service.ml]), so a client's [Get]
    observes its own earlier [Put]/[Remove]. Nothing here depends on
    which scheme reclaims memory — that is the point of the serving
    benchmark. *)

type op = Get of int | Put of int | Remove of int

type t

val schemes : string list
(** Backends the service runs, each a {!Cds.Set_catalogue} scheme: the
    manual schemes ["EBR"], ["HP"], ["IBR"], ["HE"], the leaking
    baseline ["No MM"], and the paper's ["DRC"] / ["DRC (+snap)"]. *)

val create :
  scheme:string ->
  Simcore.Memory.t ->
  procs:int ->
  buckets:int ->
  keyspace:int ->
  prefill:int ->
  seed:int ->
  t
(** Build the named backend on [mem] with per-process handles for
    [procs] workers, prefilled with [prefill] distinct keys drawn
    deterministically (from [seed]) out of [\[0, keyspace)].
    @raise Invalid_argument on a scheme outside {!schemes} or
    [prefill > keyspace]. *)

val exec : t -> pid:int -> op -> bool
(** Serve one request on worker [pid] ([-1] = the sequential setup
    handle, usable outside a simulation). *)

val flush : t -> unit
(** Quiescent reclamation of everything reclaimable. *)

val keys : t -> int list
(** Quiescent key dump, ascending — sequential-oracle support. *)
