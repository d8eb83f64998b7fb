(* Strict parsing of the environment variables the CLI honours: each
   malformed value is an error naming the variable, and unset or empty
   means the default. {!Config.resolve} turns them and the flags into
   one config and a job count. *)

open Simcore

(* One row per case: the variables set, the flags given, and the
   expected (vm, alloc, sanitize, race, jobs) or error. *)
let check_rows cases =
  List.iter
    (fun (name, env, resolve, want) ->
      let got =
        resolve (fun v -> List.assoc_opt v env)
        |> Result.map (fun (c, jobs) ->
               Config.(c.vm, c.alloc, c.sanitize, c.race, jobs))
      in
      match (got, want) with
      | Error g, Error w -> Alcotest.(check string) name w g
      | _ -> Alcotest.(check bool) name true (got = want))
    cases

let off = Sanitizer.off
let none getenv = Config.resolve ~getenv ()

(* [vm] [alloc] [jobs] with the other fields at their defaults. *)
let ok ?(vm = true) ?(alloc = Config.Legacy) ?(jobs = 1) () =
  Ok (vm, alloc, off, Racecheck.off, jobs)

(* Each variable alone, read through {!Config.resolve}. *)
let test_vm_env () =
  check_rows
    [
      ("unset", [], none, ok ());
      ("empty", [ ("REPRO_VM", "") ], none, ok ());
      ("1", [ ("REPRO_VM", "1") ], none, ok ());
      ("0", [ ("REPRO_VM", "0") ], none, ok ~vm:false ());
      (* Used to mean "on": anything but "0" enabled the VM. *)
      ( "yes",
        [ ("REPRO_VM", "yes") ],
        none,
        Error "REPRO_VM: invalid value 'yes', expected 0 or 1" );
    ]

let test_alloc_env () =
  (* Used to fall back to Legacy silently; now the --alloc wording. *)
  let fancy = Result.get_error (Config.alloc_policy_of_string "fancy") in
  check_rows
    [
      ("unset", [], none, ok ());
      ("pooled", [ ("REPRO_ALLOC", "pooled") ], none, ok ~alloc:Config.Pooled ());
      ("fancy", [ ("REPRO_ALLOC", "fancy") ], none, Error ("REPRO_ALLOC: " ^ fancy));
    ]

let test_jobs_env () =
  check_rows
    [
      ("unset", [], none, ok ());
      ("empty", [ ("REPRO_JOBS", "") ], none, ok ());
      ("4", [ ("REPRO_JOBS", "4") ], none, ok ~jobs:4 ());
      (* Both used to become 1 silently. *)
      ( "abc",
        [ ("REPRO_JOBS", "abc") ],
        none,
        Error "REPRO_JOBS: invalid value 'abc', expected an integer" );
      ("0", [ ("REPRO_JOBS", "0") ], none, Error "REPRO_JOBS: --jobs must be >= 1");
    ]

(* The variables together, and against the flags. *)
let test_resolve () =
  let san = Sanitizer.default_on in
  let quar = Result.get_ok (Sanitizer.mode_of_string "quarantine") in
  let cases =
    [
      ("nothing set", [], none, Ok (true, Config.Legacy, off, Racecheck.off, 1));
      ( "variables apply without flags",
        [ ("REPRO_VM", "0"); ("REPRO_ALLOC", "pooled");
          ("REPRO_SANITIZE", "default"); ("REPRO_RACE", "hb");
          ("REPRO_JOBS", "3") ],
        none,
        Ok (false, Config.Pooled, san, { Racecheck.off with hb = true }, 3) );
      ( "empty variables mean the default",
        [ ("REPRO_VM", ""); ("REPRO_ALLOC", ""); ("REPRO_SANITIZE", "");
          ("REPRO_RACE", ""); ("REPRO_JOBS", "") ],
        none,
        Ok (true, Config.Legacy, off, Racecheck.off, 1) );
      ( "flags beat variables",
        [ ("REPRO_VM", "1"); ("REPRO_ALLOC", "pooled");
          ("REPRO_SANITIZE", "default"); ("REPRO_RACE", "hb");
          ("REPRO_JOBS", "3") ],
        (fun getenv ->
          Config.resolve ~getenv ~no_vm:true ~alloc:"legacy"
            ~sanitize:"quarantine" ~race:"off" ~jobs:2 ()),
        Ok (false, Config.Legacy, quar, Racecheck.off, 2) );
      ( "a malformed variable is refused under its flag",
        [ ("REPRO_RACE", "bogus") ],
        (fun getenv -> Config.resolve ~getenv ~race:"hb" ()),
        Error
          "REPRO_RACE: unknown race mode \"bogus\" \
           (expected hb|custody|all|default|off)" );
      ( "a malformed flag names the flag",
        [],
        (fun getenv -> Config.resolve ~getenv ~sanitize:"bogus" ()),
        Error
          "bad --sanitize spec \"bogus\": unknown sanitize mode \"bogus\" \
           (expected shadow|quarantine[=N]|protocol|leaks|all|default|off)" );
      ( "--jobs 0",
        [],
        (fun getenv -> Config.resolve ~getenv ~jobs:0 ()),
        Error "--jobs must be >= 1" );
    ]
  in
  check_rows cases

let suite =
  [
    Alcotest.test_case "REPRO_VM" `Quick test_vm_env;
    Alcotest.test_case "REPRO_ALLOC" `Quick test_alloc_env;
    Alcotest.test_case "REPRO_JOBS" `Quick test_jobs_env;
    Alcotest.test_case "resolve: flags, variables, defaults" `Quick test_resolve;
  ]
