(** The §7.2 catalogue: every concurrent set the benchmarks, the KV
    service, the audits and the tests run, as a (structure × scheme)
    table. A structure (Harris–Michael list, Michael hash table,
    Natarajan–Mittal BST) plus a scheme name gives one running
    instance. The manual schemes' parameters live here and nowhere
    else, so every caller of a name runs the same configuration.

    Adding a scheme is one line of [catalogue] in [set_catalogue.ml]:
    every caller that iterates {!schemes} (the set tests) picks it up,
    and a figure shows it once its column list names it. *)

type structure = List_set | Hash_set | Bst_set

val structures : structure list

(** A running set with per-process entry points: [insert pid key] and
    so on, where [pid] is a process of the simulation or [-1], the
    sequential setup handle (usable outside a simulation). *)
type instance = {
  insert : int -> int -> bool;  (** false if the key was present *)
  delete : int -> int -> bool;  (** false if the key was absent *)
  contains : int -> int -> bool;
  to_list : unit -> int list;  (** quiescent, ascending *)
  extra_nodes : unit -> int;
      (** removed but not yet freed (Fig. 7's memory series) *)
  flush : unit -> unit;  (** quiescent reclamation of everything *)
}

val schemes : string list
(** Every scheme name, in table order: the manual schemes ["EBR"],
    ["HP"], ["HPopt"], ["IBR"], ["HE"], the leaking baseline ["No MM"],
    ["DEBRA"] and ["DEBRA+"], then the paper's ["DRC"] and
    ["DRC (+snap)"]. ["DEBRA+"] neutralizes stalled processes: its
    drivers must register a {!Simcore.Proc.on_signal} handler and catch
    {!Simcore.Proc.Interrupted} around each operation. *)

val create :
  structure ->
  string ->
  Simcore.Memory.t ->
  procs:int ->
  buckets:int ->
  instance
(** [create structure scheme mem ~procs ~buckets] builds an empty set on
    [mem] with handles for [procs] processes, under Figure 7's
    parameters: 5 announcement slots; retire batches of 32 (128 for
    ["HPopt"]); a global-era advance every 24 events. [buckets] sizes
    the hash table and is ignored by the list and the tree.
    @raise Invalid_argument on a name outside {!schemes}. *)

val create_batched :
  batch:int ->
  structure ->
  string ->
  Simcore.Memory.t ->
  procs:int ->
  buckets:int ->
  instance
(** {!create} with retire batches of [batch] (["HPopt"] keeps its
    128): Figure R's small batches make every scheme scan many times
    inside its run window. *)
