(** JSON-lines plumbing for BENCH_sim.json and the service reports.

    One flat JSON object per line, string and number values only.
    Writer ({!row}, {!append_line}) and reader ({!read_file}) live in
    one module so the perf smoke's appends and the bench regression
    gate's parsing cannot drift apart. *)

(** {1 Writing} *)

val escape : string -> string (* lint: api *)
(** JSON string-body escaping (quotes, backslash, control chars). *)

val str : string -> string -> string
(** [str name v] is the rendered field ["name": "v"], both escaped. *)

val int : string -> int -> string

val float : ?dec:int -> string -> float -> string
(** Fixed-point with [dec] decimals (default 3). *)

val obj : string list -> string
(** Wrap rendered fields into a one-line object. *)

val default_path : string
(** ["BENCH_sim.json"]. *)

val row : bench:string -> epoch:float -> string list -> string
(** One BENCH_sim.json line (newline-terminated): the shared
    [bench]/[epoch] prefix followed by the caller's fields. *)

val append_line : ?path:string -> string -> unit
(** Append (creating the file if needed). *)

(** {1 Reading} *)

type value = String of string | Number of float

exception Malformed of string

val parse_line : string -> (string * value) list (* lint: api *)
(** Parse one line in the shape [row] writes.
    @raise Malformed otherwise. *)

val read_file : string -> (string * value) list list
(** All parseable rows of a JSON-lines file, in file order; malformed
    lines are skipped, a missing file is []. *)

val find : (string * value) list -> string -> value option

val number : (string * value) list -> string -> float option

val string : (string * value) list -> string -> string option
