(* The zero-suspension fast path must be invisible: for every policy and
   every lookahead window, a run with [fastpath:true] is bit-identical to
   the same run with [fastpath:false] — same clocks, steps, faults,
   memory, and per-event timestamps. Plus the two safety bounds the
   budgets must respect: the quantum and the clock-skew window. Figure
   points with the fast path off are the invariance harness's
   ([test_invariance]). *)

open Simcore

let policies =
  [
    ("fair", Sim.Fair);
    ("uniform", Sim.Uniform);
    ("chaos", Sim.Chaos { pause_prob = 0.03; pause_steps = 60 });
  ]

let configs =
  [
    ("W=0", Config.small);
    ("W=64", { Config.small with Config.lookahead = 64 });
  ]

(* A mixed shared-memory workload that records an event timestamp after
   every operation, so any interleaving difference shows up. *)
let run_mixed ~policy ~config ~fastpath =
  let mem = Memory.create config in
  let c = Memory.alloc mem ~tag:"c" ~size:4 in
  let events = ref [] in
  let res =
    Sim.run ~policy ~seed:11 ~fastpath ~config ~procs:6 (fun pid ->
        for i = 1 to 150 do
          (match i mod 4 with
          | 0 -> ignore (Memory.faa mem c 1)
          | 1 -> Memory.write mem (c + 1) ((pid * i) land 1023)
          | 2 -> ignore (Memory.read mem (c + 2))
          | _ -> ignore (Memory.cas mem (c + 3) ~expected:0 ~desired:(pid + 1)));
          Proc.pay ((pid + i) mod 3);
          events := (pid, Proc.now (), Proc.global_now ()) :: !events
        done)
  in
  ( res.Sim.makespan,
    res.Sim.steps,
    res.Sim.clocks,
    List.length res.Sim.faults,
    Memory.peek mem c,
    !events )

let test_bit_identical () =
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun (pname, policy) ->
          let on = run_mixed ~policy ~config ~fastpath:true in
          let off = run_mixed ~policy ~config ~fastpath:false in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: fastpath on = off" pname cname)
            true (on = off))
        policies)
    configs

(* Quantum bound: on one oversubscribed core, no process may run more
   than [quantum] consecutive unit-pay events, no matter how large the
   lookahead window is — the grant is clipped to the remaining slice. *)
let prop_quantum_bound =
  QCheck.Test.make ~count:50 ~name:"budget never outruns the quantum"
    QCheck.(int_range 1 100)
    (fun q ->
      let config =
        { Config.small with Config.cores = 1; quantum = q; lookahead = 1_000 }
      in
      let run fastpath =
        let events = ref [] in
        let _ =
          Sim.run ~fastpath ~config ~procs:2 (fun pid ->
              for _ = 1 to 300 do
                Proc.pay 1;
                events := pid :: !events
              done)
        in
        List.rev !events
      in
      let ev = run true in
      let max_run =
        let best = ref 0 and cur = ref 0 and last = ref (-1) in
        List.iter
          (fun pid ->
            if pid = !last then incr cur else (last := pid; cur := 1);
            if !cur > !best then best := !cur)
          ev;
        !best
      in
      max_run <= q && ev = run false)

(* Clock-skew bound: on two cores, a process's clock at any event is at
   most [lookahead + 1] ahead of the other process's last event — the
   run-ahead window is the only relaxation of min-clock-first order. *)
let prop_skew_bound =
  QCheck.Test.make ~count:50 ~name:"run-ahead bounded by the lookahead window"
    QCheck.(int_range 0 100)
    (fun w ->
      let config =
        { Config.small with Config.cores = 2; lookahead = w }
      in
      let run fastpath =
        let last = [| min_int; min_int |] in
        let worst = ref 0 in
        let trace = ref [] in
        let _ =
          Sim.run ~fastpath ~config ~procs:2 (fun pid ->
              for _ = 1 to 400 do
                Proc.pay 1;
                let n = Proc.now () in
                if last.(1 - pid) <> min_int then begin
                  let skew = n - last.(1 - pid) in
                  if skew > !worst then worst := skew
                end;
                last.(pid) <- n;
                trace := (pid, n) :: !trace
              done)
        in
        last.(0) <- min_int;
        last.(1) <- min_int;
        (!worst, !trace)
      in
      let worst_on, trace_on = run true in
      let worst_off, trace_off = run false in
      worst_on <= w + 1 && worst_on = worst_off && trace_on = trace_off)

(* The point of the exercise: a fast pay is two integer updates and no
   allocation. One process on one core owns an effectively unbounded
   budget, so 100k pays must not allocate (beyond the two boxed floats
   from [Gc.minor_words] itself). *)
let test_fast_pay_no_alloc () =
  let config = { Config.small with Config.cores = 1; max_steps = 0 } in
  let delta = ref max_int in
  let _ =
    Sim.run ~config ~procs:1 (fun _ ->
        Proc.pay 1;
        let w0 = Gc.minor_words () in
        for _ = 1 to 100_000 do
          Proc.pay 1
        done;
        delta := int_of_float (Gc.minor_words () -. w0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per 100k fast pays = %d" !delta)
    true
    (!delta < 1_000)

let suite =
  [
    Alcotest.test_case "bit-identical on/off (3 policies x 2 windows)" `Quick
      test_bit_identical;
    QCheck_alcotest.to_alcotest prop_quantum_bound;
    QCheck_alcotest.to_alcotest prop_skew_bound;
    Alcotest.test_case "fast pay allocation-free" `Quick test_fast_pay_no_alloc;
  ]
