(** A reusable set of positive ints, allocation-free once warm: the
    guarded set of the protection sweeps (hazard pointers, pass-the-buck
    and OrcGC guards). Open addressing with linear probing over one int
    array; [0] marks an empty slot. The table starts empty and doubles
    when half full, so it is sized by the most keys one fill has held,
    and [clear] keeps its capacity. *)

type t

val create : unit -> t
(** An empty set with no table yet: allocated on the first [add]. *)

val clear : t -> unit

val add : t -> int -> unit
(** [add s k] adds [k > 0]. *)

val mem : t -> int -> bool

(** A reusable multiset of positive ints on the same table: the
    announced multiset of an acquire-retire scan pass. Keys and their
    multiplicities; the table is allocated on the first [add], doubles
    when half full, and [clear] empties it in place. *)
module Multi : sig
  type t

  val create : unit -> t

  val clear : t -> unit

  val add : t -> int -> unit
  (** [add s k]: one more occurrence of [k > 0]. *)

  val take : t -> int -> bool
  (** [take s k] removes one occurrence of [k]; [false] when none is
      left. *)
end
