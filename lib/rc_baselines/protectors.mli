(** Shared machinery for the "protect the object once its count hits
    zero" school (Herlihy et al.'s pass-the-buck counting, OrcGC) — the
    design the paper contrasts with protecting the {e count} (§3).

    Guards are hazard-pointer-style single-writer announcement words.
    Objects of these schemes carry a two-word header: the count, and a
    liberation flag. The decrement that takes the count to zero tries to
    CAS the flag from 0 to 1; the winner alone adds the object to its
    pending list, so every object has at most one liberation entry and
    reclamation passes never race each other onto freed memory. A pass
    frees pending objects that are unguarded and still at count zero;
    resurrected objects (a guarded reader re-incremented the count)
    simply stay pending until they die for good. *)

val header : int
(** Header words: count + liberation flag. *)

val field_addr : int -> int -> int

type t

val create :
  Simcore.Memory.t -> procs:int -> slots:int -> reg:Rc_obj.registry -> t

val slots : t -> int

val guard_addr : t -> pid:int -> slot:int -> int

val read_guard : t -> pid:int -> slot:int -> int

val write_guard : t -> pid:int -> slot:int -> int -> unit

val protect_loop : t -> pid:int -> slot:int -> int -> int
(** Hazard-pointer acquire: read the pointer at the source address,
    announce, re-read until stable; returns the word read. *)

val on_zero : t -> pending:int list ref -> int -> bool
(** Called by the decrement that observed the count reach zero: claim the
    liberation flag and, if won, append to [pending] and return [true]. *)

val scan_pending : t -> pending:int list ref -> dec:(int -> unit) -> int
(** One reclamation pass over [pending]; returns the number of objects
    freed. [dec] is the scheme's decrement, applied to reference fields
    of deleted objects. *)

val quiesce : t -> (unit -> unit) -> unit
(** [quiesce t f]: zero every guard, then run [f], the scheme's
    quiescent reclamation rounds. Outside a simulation the sweeps inside
    [f] (nested ones included) take the guarded set as empty instead of
    reading the zeroed guards; nothing may write a guard while [f]
    runs. *)
