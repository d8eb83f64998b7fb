(* Strict parsing of the environment variables the CLI honours: each
   malformed value is an error naming the variable, and unset or empty
   means the default. {!Config.resolve} turns them and the flags into
   one config and a job count. *)

open Simcore

let err = Alcotest.(result unit string)

let test_vm_env () =
  Alcotest.(check (result bool string)) "unset" (Ok true) (Config.vm_of_env None);
  Alcotest.(check (result bool string)) "empty" (Ok true) (Config.vm_of_env (Some ""));
  Alcotest.(check (result bool string)) "1" (Ok true) (Config.vm_of_env (Some "1"));
  Alcotest.(check (result bool string)) "0" (Ok false) (Config.vm_of_env (Some "0"));
  (* Used to mean "on": anything but "0" enabled the VM. *)
  Alcotest.(check err) "yes"
    (Error "REPRO_VM: invalid value 'yes', expected 0 or 1")
    (Result.map ignore (Config.vm_of_env (Some "yes")))

let test_alloc_env () =
  let policy = Alcotest.testable (Fmt.of_to_string Config.alloc_policy_to_string) ( = ) in
  Alcotest.(check (result policy string)) "unset" (Ok Config.Legacy)
    (Config.alloc_of_env None);
  Alcotest.(check (result policy string)) "pooled" (Ok Config.Pooled)
    (Config.alloc_of_env (Some "pooled"));
  (* Used to fall back to Legacy silently; now the --alloc wording. *)
  let cli = Result.get_error (Config.alloc_policy_of_string "fancy") in
  Alcotest.(check err) "fancy" (Error ("REPRO_ALLOC: " ^ cli))
    (Result.map ignore (Config.alloc_of_env (Some "fancy")))

let test_jobs_env () =
  Alcotest.(check (result int string)) "unset" (Ok 1) (Config.jobs_of_env None);
  Alcotest.(check (result int string)) "empty" (Ok 1) (Config.jobs_of_env (Some ""));
  Alcotest.(check (result int string)) "4" (Ok 4) (Config.jobs_of_env (Some "4"));
  (* Both used to become 1 silently. *)
  Alcotest.(check err) "abc"
    (Error "REPRO_JOBS: invalid value 'abc', expected an integer")
    (Result.map ignore (Config.jobs_of_env (Some "abc")));
  Alcotest.(check err) "0" (Error "REPRO_JOBS: --jobs must be >= 1")
    (Result.map ignore (Config.jobs_of_env (Some "0")))

(* One row per case: the variables set, the flags given, and the
   expected (vm, alloc, sanitize, race, jobs) or error. *)
let test_resolve () =
  let san = Sanitizer.default_on and off = Sanitizer.off in
  let quar = Result.get_ok (Sanitizer.mode_of_string "quarantine") in
  let none getenv = Config.resolve ~getenv () in
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

let suite =
  [
    Alcotest.test_case "REPRO_VM" `Quick test_vm_env;
    Alcotest.test_case "REPRO_ALLOC" `Quick test_alloc_env;
    Alcotest.test_case "REPRO_JOBS" `Quick test_jobs_env;
    Alcotest.test_case "resolve: flags, variables, defaults" `Quick test_resolve;
  ]
