(** The §7.1 catalogue: every counted-pointer scheme behind
    {!Rc_intf.S}, by display name. The figures, the audits and the tests
    take their schemes from here; adding a scheme is one line of
    [all]. The unsafe {!Eager_rc} is left out on purpose: it exists to
    be caught. *)

val all : (string * (module Rc_intf.S)) list
(** ["GNU C++"] ({!Locked_rc}), ["just::thread"] ({!Dwcas_rc}),
    ["Folly"] ({!Split_rc}), ["Herlihy"] and ["Herlihy (opt)"]
    ({!Herlihy_rc}), ["OrcGC"] ({!Orcgc_rc}), and the paper's ["DRC"],
    ["DRC (+snap)"] and ["DRC (wait-free)"] ({!Drc_scheme}), in that
    order. *)

val find : string -> (module Rc_intf.S)
(** The scheme of that name in {!all}.
    @raise Invalid_argument on a name outside it. *)
