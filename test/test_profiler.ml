(* The virtual-time profiler: phase-conservation as a property over
   random annotated workloads, the collapsed-stack golden rendering,
   and the phase-stack overflow. That profiling perturbs no point, and
   that collapsed stacks do not depend on the engine, is the invariance
   harness's ([test_invariance]). *)

open Simcore
module Prof = Profiler

(* --- phase conservation: every paid tick lands in exactly one slot --- *)

(* A per-pid deterministic stream (no ambient randomness in tests
   either): the QCheck-generated seed is the only entropy source. *)
let conservation_prop (procs, seed, ops) =
  let prof = Prof.create ~label:"prop" () in
  let res =
    Sim.run ~profiler:prof ~config:Config.small ~procs (fun pid ->
        let s = ref (seed + (7919 * pid) + 1) in
        let next () =
          s := ((!s * 48271) + 11) land 0x3FFFFFFF;
          !s
        in
        let depth = ref 0 in
        for _ = 1 to ops do
          match next () mod 5 with
          | 0 | 1 -> Proc.pay (1 + (next () mod 9))
          | 2 ->
              (* unbalanced enters (some never popped) and pushes past
                 the packed-stack depth are both legal: overflow ticks
                 charge the deepest packed prefix *)
              Prof.enter (List.nth Prof.phases (next () mod 9));
              incr depth;
              Proc.pay (next () mod 4)
          | 3 ->
              (* exit without a matching enter must be a no-op *)
              Prof.exit ();
              if !depth > 0 then decr depth
          | _ ->
              Prof.with_phase
                (List.nth Prof.phases (next () mod 9))
                (fun () -> Proc.pay (1 + (next () mod 6)))
        done)
  in
  let paid = Array.fold_left ( + ) 0 res.Sim.clocks in
  Prof.expected prof = paid
  && Prof.total prof = paid
  && Prof.conservation_ok prof
  && List.fold_left (fun a (_, v) -> a + v) 0 (Prof.leaf_totals prof) = paid
  && List.fold_left (fun a (_, v) -> a + v) 0 (Prof.collapsed prof) = paid

let conservation_test =
  QCheck.Test.make ~count:60
    ~name:"phase conservation over random annotated workloads"
    QCheck.(triple (int_range 1 5) (int_range 0 10_000) (int_range 0 60))
    conservation_prop

(* --- collapsed-stack golden: the exact flamegraph.pl rendering --- *)

let test_collapsed_golden () =
  let prof = Prof.create ~label:"golden" () in
  let res =
    Sim.run ~profiler:prof ~config:Config.small ~procs:1 (fun _ ->
        Proc.pay 5;
        Prof.with_phase Prof.Alloc (fun () -> Proc.pay 3);
        Prof.with_phase Prof.Cas_retry (fun () -> Proc.pay 4);
        Prof.with_phase Prof.Smr_scan (fun () ->
            Proc.pay 2;
            Prof.with_phase Prof.Free (fun () -> Proc.pay 7)))
  in
  Alcotest.(check int) "total paid ticks" 21
    (Array.fold_left ( + ) 0 res.Sim.clocks);
  Alcotest.(check bool) "conservation" true (Prof.conservation_ok prof);
  (* Root ticks collapse to the bare label (the empty stack has no
     phase frames); nested phases append name frames in stack order. *)
  Alcotest.(check (list (pair string int)))
    "collapsed stacks"
    [
      ("golden", 5);
      ("golden;alloc", 3);
      ("golden;cas-retry", 4);
      ("golden;smr-scan", 2);
      ("golden;smr-scan;free", 7);
    ]
    (Prof.collapsed prof);
  Alcotest.(check string) "collapsed_string (--profile-out payload)"
    "golden 5\n\
     golden;alloc 3\n\
     golden;cas-retry 4\n\
     golden;smr-scan 2\n\
     golden;smr-scan;free 7\n"
    (Prof.collapsed_string [ prof ]);
  (* Leaf aggregation: ticks classify by the top of their stack, root
     ticks as traverse. *)
  let lt = Prof.leaf_totals prof in
  List.iter
    (fun (ph, want) ->
      Alcotest.(check int)
        (Prof.phase_name ph ^ " leaf total")
        want (List.assoc ph lt))
    [
      (Prof.Traverse, 5);
      (Prof.Alloc, 3);
      (Prof.Cas_retry, 4);
      (Prof.Smr_scan, 2);
      (Prof.Free, 7);
      (Prof.Drc_defer, 0);
    ];
  (* The service layer's stall grouping: cas-retry ticks are retry
     stalls; smr-scan and anything nested under it are reclamation. *)
  let tot, retry, reclaim = Prof.group_snapshot prof (Prof.pstate prof ~pid:0) in
  Alcotest.(check (list (pair string int)))
    "group snapshot (total, retry, reclaim)"
    [ ("total", 21); ("retry", 4); ("reclaim", 9) ]
    [ ("total", tot); ("retry", retry); ("reclaim", reclaim) ]

(* Pushes past the packed stack's depth budget must still conserve:
   overflow ticks charge the deepest packed prefix, and exits unwind
   the overflow count before the real stack. *)
let test_overflow_depth () =
  let prof = Prof.create ~label:"deep" () in
  let res =
    Sim.run ~profiler:prof ~config:Config.small ~procs:1 (fun _ ->
        for _ = 1 to 20 do
          Prof.enter Prof.Smr_scan
        done;
        Proc.pay 5;
        for _ = 1 to 20 do
          Prof.exit ()
        done;
        Proc.pay 2)
  in
  Alcotest.(check int) "expected = paid"
    (Array.fold_left ( + ) 0 res.Sim.clocks)
    (Prof.expected prof);
  Alcotest.(check bool) "conservation under overflow" true
    (Prof.conservation_ok prof);
  let deep_path =
    "deep;" ^ String.concat ";" (List.init 12 (fun _ -> "smr-scan"))
  in
  Alcotest.(check (list (pair string int)))
    "overflow ticks charge the deepest packed prefix"
    [ ("deep", 2); (deep_path, 5) ]
    (Prof.collapsed prof)

let suite =
  [
    QCheck_alcotest.to_alcotest conservation_test;
    Alcotest.test_case "collapsed-stack golden" `Quick test_collapsed_golden;
    Alcotest.test_case "phase-stack overflow conserves" `Quick
      test_overflow_depth;
  ]
