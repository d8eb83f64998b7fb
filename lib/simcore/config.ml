type cost = Memcore.cost = {
  c_l1 : int;
  c_hit : int;
  c_read_miss : int;
  c_rmw_owned : int;
  c_rmw_transfer : int;
  c_dwcas_extra : int;
  c_alloc : int;
  c_free : int;
}

(* Which allocator implementation backs the heap's alloc/free.
   [Legacy] is the single global size-class freelist (the differential
   oracle); [Pooled] is the Blelloch–Wei-style constant-time scheme
   (per-process pools, fixed-capacity batches, shared exchange). The
   machine model is allocation-oblivious (see DESIGN.md §4j), so
   benchmark tables are byte-identical under either policy. *)
type alloc_policy = Legacy | Pooled

let alloc_policy_of_string s =
  match String.lowercase_ascii s with
  | "legacy" -> Ok Legacy
  | "pooled" -> Ok Pooled
  | _ ->
      Error
        (Printf.sprintf "unknown allocator policy %S (expected legacy or pooled)"
           s)

type t = {
  cores : int;
  quantum : int;
  reuse : bool;
  max_steps : int;
  lookahead : int;
  sanitize : Sanitizer.mode;
  race : Racecheck.mode;
  vm : bool;
  alloc : alloc_policy;
  alloc_contention : bool;
}

let default_cost =
  {
    c_l1 = 1;
    c_hit = 6;
    c_read_miss = 30;
    c_rmw_owned = 5;
    c_rmw_transfer = 45;
    c_dwcas_extra = 15;
    c_alloc = 14;
    c_free = 10;
  }

let default =
  {
    cores = 144;
    quantum = 20_000;
    reuse = true;
    max_steps = 0;
    lookahead = 64;
    sanitize = Sanitizer.off;
    race = Racecheck.off;
    vm = true;
    alloc = Legacy;
    alloc_contention = false;
  }

let small =
  { default with cores = 4; quantum = 64; max_steps = 50_000_000; lookahead = 0 }

(* {1 Resolving a run's arming from flags and environment}

   Environment values are parsed strictly: a malformed one is an error
   naming the variable, worded like the matching flag's. Unset or empty
   means the default. The caller passes [getenv], so nothing under
   lib/ reads the process environment. *)

let bad_env var v expected =
  Error (Printf.sprintf "%s: invalid value '%s', expected %s" var v expected)

let vm_of_env = function
  | None | Some "" | Some "1" -> Ok true
  | Some "0" -> Ok false
  | Some v -> bad_env "REPRO_VM" v "0 or 1"

let alloc_of_env = function
  | None | Some "" -> Ok Legacy
  | Some v -> (
      match alloc_policy_of_string v with
      | Ok p -> Ok p
      | Error msg -> Error ("REPRO_ALLOC: " ^ msg))

let jobs_of_env = function
  | None | Some "" -> Ok 1
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n >= 1 -> Ok n
      | Some _ -> Error "REPRO_JOBS: --jobs must be >= 1"
      | None -> bad_env "REPRO_JOBS" v "an integer")

let ( let* ) = Result.bind

(* A checker mode from its flag, else its variable, else [off]. The
   variable is checked even when the flag overrides it. *)
let mode ~var ~flag ~of_string ~off ~getenv spec =
  let* env =
    match getenv var with
    | None | Some "" -> Ok off
    | Some v -> Result.map_error (fun why -> var ^ ": " ^ why) (of_string v)
  in
  match spec with
  | None -> Ok env
  | Some s ->
      Result.map_error (Printf.sprintf "bad --%s spec %S: %s" flag s) (of_string s)

let resolve ~getenv ?(no_vm = false) ?alloc ?sanitize ?race ?jobs () =
  let* vm = vm_of_env (getenv "REPRO_VM") in
  let* env_alloc = alloc_of_env (getenv "REPRO_ALLOC") in
  let* alloc =
    match alloc with None -> Ok env_alloc | Some s -> alloc_policy_of_string s
  in
  let* sanitize =
    mode ~var:"REPRO_SANITIZE" ~flag:"sanitize"
      ~of_string:Sanitizer.mode_of_string ~off:Sanitizer.off ~getenv sanitize
  in
  let* race =
    mode ~var:"REPRO_RACE" ~flag:"race" ~of_string:Racecheck.mode_of_string
      ~off:Racecheck.off ~getenv race
  in
  let* env_jobs = jobs_of_env (getenv "REPRO_JOBS") in
  let* jobs =
    match jobs with
    | None -> Ok env_jobs
    | Some n when n >= 1 -> Ok n
    | Some _ -> Error "--jobs must be >= 1"
  in
  Ok ({ default with vm = vm && not no_vm; alloc; sanitize; race }, jobs)
