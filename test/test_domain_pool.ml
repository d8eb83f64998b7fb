(* The parallel sweep runner: ordering, error attribution, the jobs=1
   no-domain fast path and grid regrouping. That cells on a pool of
   domains give bit-identical results is the invariance harness's
   ([test_invariance]). *)

module Pool = Simcore.Domain_pool

(* Results come back in submission order even when late submissions
   finish first: early jobs spin longest, so completion order is roughly
   the reverse of submission order. *)
let test_ordering_adversarial () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 32 Fun.id in
      let out =
        Pool.map_ordered pool
          (fun i ->
            let spin = (32 - i) * 5_000 in
            let acc = ref 0 in
            for k = 1 to spin do
              acc := !acc + k
            done;
            ignore (Sys.opaque_identity !acc);
            i * i)
          xs
      in
      Alcotest.(check (list int))
        "submission order preserved"
        (List.map (fun i -> i * i) xs)
        out)

let test_exception_names_cell () =
  Pool.with_pool ~jobs:3 (fun pool ->
      (try
         ignore
           (Pool.map_ordered pool
              ~label:(fun i -> Printf.sprintf "cell-%d" i)
              (fun i -> if i = 5 then failwith "boom" else i)
              (List.init 8 Fun.id));
         Alcotest.fail "expected Job_error"
       with Pool.Job_error { index; label; exn; _ } ->
         Alcotest.(check int) "failing index" 5 index;
         Alcotest.(check string) "cell label" "cell-5" label;
         Alcotest.(check bool)
           "original exception" true
           (match exn with Failure m -> m = "boom" | _ -> false));
      (* The failure must not wedge the pool: workers are still alive
         and a subsequent map completes. *)
      Alcotest.(check (list int))
        "pool survives a failing job" [ 0; 2; 4 ]
        (Pool.map_ordered pool (fun i -> 2 * i) [ 0; 1; 2 ]))

(* Earliest submission wins when several jobs fail. *)
let test_first_error_in_submission_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      try
        ignore
          (Pool.map_ordered pool
             (fun i -> if i >= 2 then raise Exit else i)
             [ 0; 1; 2; 3; 4 ]);
        Alcotest.fail "expected Job_error"
      with Pool.Job_error { index; _ } ->
        Alcotest.(check int) "first failing index" 2 index)

let test_jobs1_no_domain_fast_path () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let self = (Domain.self () :> int) in (* lint: allow-atomic *)
      let doms =
        Pool.map_ordered pool (fun _ -> (Domain.self () :> int)) [ 0; 1; 2 ] (* lint: allow-atomic *)
      in
      List.iter
        (fun d ->
          Alcotest.(check int) "runs on the calling domain" self d)
        doms)

let test_jobs_must_be_positive () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Domain_pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0))

let test_map_grid_shape () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let grid =
        Pool.map_grid pool ~rows:[ 10; 20 ] ~cols:[ 1; 2; 3 ] (fun r c -> r + c)
      in
      Alcotest.(check (list (pair int (list int))))
        "row-major regrouping"
        [ (10, [ 11; 12; 13 ]); (20, [ 21; 22; 23 ]) ]
        grid)

let suite =
  [
    Alcotest.test_case "ordering under adversarial durations" `Quick
      test_ordering_adversarial;
    Alcotest.test_case "exception names the cell, pool survives" `Quick
      test_exception_names_cell;
    Alcotest.test_case "first error in submission order" `Quick
      test_first_error_in_submission_order;
    Alcotest.test_case "jobs=1 runs on the calling domain" `Quick
      test_jobs1_no_domain_fast_path;
    Alcotest.test_case "jobs must be positive" `Quick test_jobs_must_be_positive;
    Alcotest.test_case "map_grid regroups row-major" `Quick test_map_grid_shape;
  ]
