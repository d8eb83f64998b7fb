(** Runners for the paper's §7.2 comparison against manual SMR
    (Figure 7): Harris–Michael list, Michael hash table, and
    Natarajan–Mittal BST, driven over EBR / HP / HPopt / IBR / HE /
    no-reclamation / DRC / DRC(+snapshots), reporting throughput and the
    "extra nodes" (removed but unreclaimed) memory series. *)

type structure = List_set | Hash_set | Bst_set

val scheme_names : string list
(** Column order of the output tables. *)

val point :
  ?policy:Simcore.Sim.policy ->
  ?fastpath:bool ->
  ?tracer:Simcore.Recorder.t ->
  ?config:Simcore.Config.t ->
  ?profile:bool ->
  structure:structure ->
  scheme:string ->
  threads:int ->
  horizon:int ->
  seed:int ->
  size:int ->
  update_pct:int ->
  unit ->
  Measure.point
(** One structure/scheme/thread-count point. Exposed for the fastpath
    determinism regression tests ([fastpath] must not change the point,
    bit-identical) and the race-freedom audit, which runs it under
    [Chaos]. [config] defaults to {!Simcore.Config.default}. *)

val run :
  ?arm:Measure.arm ->
  ?threads:int list ->
  ?horizon:int ->
  ?seed:int ->
  structure:structure ->
  size:int ->
  update_pct:int ->
  title:string ->
  unit ->
  unit
(** One Figure 7 panel: structure prefilled with [size] keys from a
    [2*size] key range, operations [update_pct]% updates (half inserts,
    half deletes). Prints a throughput table and an extra-nodes table. *)
