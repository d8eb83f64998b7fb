(** Text rendering for the benchmark figures: one aligned table per
    figure panel, mirroring the series of the paper's plots.

    Each table is rendered into a string and printed with one
    [print_string], so a series can never interleave with other output
    — a requirement once sweeps complete on {!Simcore.Domain_pool}
    workers in nondeterministic wall-clock order. *)

val print_series :
  ?row_header:string ->
  title:string ->
  unit_label:string ->
  columns:string list ->
  rows:(int * float list) list ->
  unit ->
  unit
(** One table printed atomically to stdout. [rows] pairs a row key — a
    thread count for the figures, an offered load for the serving
    tables ([row_header], default ["threads"], names the key column) —
    with one value per column. *)

val print_kv : title:string -> (string * string) list -> unit
