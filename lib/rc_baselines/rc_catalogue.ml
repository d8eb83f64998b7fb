let all : (string * (module Rc_intf.S)) list =
  [
    ("GNU C++", (module Locked_rc));
    ("just::thread", (module Dwcas_rc));
    ("Folly", (module Split_rc));
    ("Herlihy", (module Herlihy_rc.Plain));
    ("Herlihy (opt)", (module Herlihy_rc.Optimized));
    ("OrcGC", (module Orcgc_rc));
    ("DRC", (module Drc_scheme.Plain));
    ("DRC (+snap)", (module Drc_scheme.Snapshots));
    ("DRC (wait-free)", (module Drc_scheme.Waitfree));
  ]

let find name =
  match List.assoc_opt name all with
  | Some m -> m
  | None -> invalid_arg ("Rc_catalogue.find: unknown scheme " ^ name)
