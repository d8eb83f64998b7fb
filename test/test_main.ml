(* The full test suite: unit, property, concurrency, and failure
   injection across every library of the reproduction. *)

let () =
  Alcotest.run "cdrc"
    [
      ("rng", Test_rng.suite);
      ("dist", Test_dist.suite);
      ("pqueue", Test_pqueue.suite);
      ("word", Test_word.suite);
      ("config", Test_config.suite);
      ("memory", Test_memory.suite);
      ("alloc", Test_alloc.suite);
      ("stats", Test_stats.suite);
      ("telemetry", Test_telemetry.suite);
      ("coherence", Test_coherence.suite);
      ("sim", Test_sim.suite);
      ("domain-pool", Test_domain_pool.suite);
      ("fastpath", Test_fastpath.suite);
      ("vm", Test_vm.suite);
      ("lincheck", Test_lincheck.suite);
      ("trace", Test_trace.suite);
      ("profiler", Test_profiler.suite);
      ("swcopy", Test_swcopy.suite);
      ("acquire-retire", Test_ar.suite);
      ("drc", Test_drc.suite);
      ("big-atomic", Test_big_atomic.suite);
      ("smr", Test_smr.suite);
      ("rc-schemes", Test_rc_schemes.suite);
      ("stack", Test_stack.suite);
      ("queue", Test_queue.suite);
      ("sets", Test_sets.suite);
      ("list", Test_list.suite);
      ("bst", Test_bst.suite);
      ("sanitizer", Test_sanitizer.suite);
      ("racecheck", Test_racecheck.suite);
      ("failure-injection", Test_failure.suite);
      ("service", Test_service.suite);
      ("workload", Test_workload.suite);
      ("robust", Test_robust.suite);
      ("soak", Test_soak.suite);
    ]
