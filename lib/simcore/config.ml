type cost = {
  c_l1 : int;
  c_hit : int;
  c_read_miss : int;
  c_rmw_owned : int;
  c_rmw_transfer : int;
  c_dwcas_extra : int;
  c_alloc : int;
  c_free : int;
  c_local : int;
}

(* Which allocator implementation backs the heap's alloc/free.
   [Legacy] is the single global size-class freelist (the differential
   oracle); [Pooled] is the Blelloch–Wei-style constant-time scheme
   (per-process pools, fixed-capacity batches, shared exchange). The
   machine model is allocation-oblivious (see DESIGN.md §4j), so
   benchmark tables are byte-identical under either policy. *)
type alloc_policy = Legacy | Pooled

let alloc_policy_to_string = function Legacy -> "legacy" | Pooled -> "pooled"

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
  cost : cost;
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
    c_local = 1;
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
    cost = default_cost;
    vm = true;
    alloc = Legacy;
    alloc_contention = false;
  }

let small =
  { default with cores = 4; quantum = 64; max_steps = 50_000_000; lookahead = 0 }

(* Environment values are parsed strictly: a malformed one is an
   error worded like the matching CLI flag's, which the CLI reports
   before anything runs ({!env_errors}). Unset or empty means the
   default. *)

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

let env_errors () =
  List.filter_map
    (function Ok _ -> None | Error msg -> Some msg)
    [
      Result.map ignore (vm_of_env (Sys.getenv_opt "REPRO_VM"));
      Result.map ignore (alloc_of_env (Sys.getenv_opt "REPRO_ALLOC"));
      Result.map ignore (jobs_of_env (Sys.getenv_opt "REPRO_JOBS"));
    ]

(* Process-wide override for [vm], consulted by the workload runners when
   building their default per-point config (an explicitly passed config
   is never rewritten). Initialised from REPRO_VM and flipped by the
   CLI's --no-vm before any pool worker spawns, so reads from worker
   domains see a settled value. A malformed REPRO_VM leaves the default
   here; the CLI has already refused it. *)
let vm_enabled =
  Atomic.make (* lint: allow-atomic *)
    (Result.value (vm_of_env (Sys.getenv_opt "REPRO_VM")) ~default:true)

let with_vm c = { c with vm = Atomic.get vm_enabled } (* lint: allow-atomic *)

(* Same pattern for the allocator policy: REPRO_ALLOC seeds the default,
   the CLI's --alloc overrides it before any pool worker spawns. *)
let alloc_default =
  Atomic.make (* lint: allow-atomic *)
    (Result.value (alloc_of_env (Sys.getenv_opt "REPRO_ALLOC")) ~default:Legacy)

let with_alloc c = { c with alloc = Atomic.get alloc_default } (* lint: allow-atomic *)
