(** Shared managed-object layout for the reference-counting schemes:
    [header] words of scheme bookkeeping (word 0 always the count), then
    user fields. Provides the class registry and recursive deletion
    skeleton so each scheme only supplies its own count manipulation. *)

type cls = { tag : string; n_fields : int; ref_fields : int list }

type registry

val create_registry : unit -> registry

val register :
  registry -> tag:string -> fields:int -> ref_fields:int list -> cls

val field_addr : header:int -> int -> int -> int
(** [field_addr ~header obj i] for a (possibly marked) pointer word
    [obj]. *)

val count_addr : int -> int

val alloc :
  Simcore.Memory.t -> cls -> header:int -> count0:int -> fields:int array -> int
(** Allocate and initialize; header words beyond the count are zero.
    Returns the pointer word. *)

val delete :
  Simcore.Memory.t ->
  registry ->
  header:int ->
  destruct_cell:(int -> unit) ->
  int ->
  unit
(** [delete mem reg ~header ~destruct_cell w] passes the raw content of
    every reference-field cell to [destruct_cell] (schemes decode their
    own cell encoding and skip nulls), then frees the block. *)
