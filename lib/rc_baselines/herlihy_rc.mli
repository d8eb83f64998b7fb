(** Lock-free reference counting in the style of Herlihy, Luchangco,
    Martin and Moir (TOCS 2005), built on their pass-the-buck idea:
    counts are updated eagerly, and when a count reaches zero the
    {e object} is protected from reclamation by per-process guards until
    no reader can hold it — the design the paper contrasts with
    protecting the {e count} (§3). *)

module Plain : Rc_intf.S
(** The original: sticky-counter CAS loops ("Herlihy" in Figure 6). *)

module Optimized : Rc_intf.S
(** The paper's improved version with fetch-and-add / fetch-and-store
    where applicable ("Herlihy (optimized)"). *)
