(* Strict parsing of the environment variables the CLI honours: each
   malformed value is an error worded like the matching flag's, and
   unset or empty means the default. *)

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

let suite =
  [
    Alcotest.test_case "REPRO_VM" `Quick test_vm_env;
    Alcotest.test_case "REPRO_ALLOC" `Quick test_alloc_env;
    Alcotest.test_case "REPRO_JOBS" `Quick test_jobs_env;
  ]
