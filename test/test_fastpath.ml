(* The zero-suspension fast path must be invisible: for every policy and
   every lookahead window, a run with [fastpath:true] is bit-identical to
   the same run with [fastpath:false] — same clocks, steps, faults,
   memory, and per-event timestamps. Plus the two safety bounds the
   budgets must respect: the quantum and the clock-skew window. *)

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

(* The figure runners must be equally oblivious: Figure 6a points for
   every scheme, below and above the core count, and a Figure 7 point
   (which run under [Config.default], 144 cores) are structurally
   identical with elision on and off. *)
let test_fig6_point_identical () =
  List.iter
    (fun (name, m) ->
      List.iter
        (fun threads ->
          let run fastpath =
            Workload.Fig6.loadstore_point ~fastpath m ~threads ~horizon:20_000
              ~seed:42 ~n_locs:10 ~p_store:0.1
          in
          Alcotest.(check bool)
            (Printf.sprintf "fig6a point identical (%s, P=%d)" name threads)
            true
            (run true = run false))
        [ 8; 192 ])
    Workload.Fig6.schemes

let test_fig7_point_identical () =
  let run fastpath =
    Workload.Fig7.point ~fastpath ~structure:Workload.Fig7.List_set
      ~scheme:"DRC" ~threads:4 ~horizon:2_500 ~seed:42 ~size:16 ~update_pct:20
      ()
  in
  Alcotest.(check bool) "fig7 point identical" true (run true = run false)

(* A faulted point must be exactly as oblivious: the adversary consults
   its script only at genuine decision points, whose global step counts
   are identical across execution modes, so a stalled-and-neutralized
   DEBRA+ run is bit-identical across all four combinations of the pay
   fast path and the compiled driver loop. This is the regression that
   catches a fastpath elision (or VM pay batching) skipping a decision
   point the adversary needed to see. *)
let test_faulted_point_identical () =
  let run ~fastpath ~vm =
    Workload.Fig_robust.point ~fastpath ~config:{ Config.default with vm }
      ~scheme:"DEBRA+"
      ~fault:Workload.Fig_robust.Stall_one ~threads:4 ~horizon:6_000 ~seed:42
      ~size:16 ~update_pct:50 ()
  in
  let base = run ~fastpath:true ~vm:true in
  let pt, _ = base in
  (* Non-trivially faulted: the stall parked a process and DEBRA+
     neutralized it. *)
  Alcotest.(check bool) "stall fired" true
    (Workload.Fig_robust.counter pt "adv.stalls" > 0);
  List.iter
    (fun (fastpath, vm) ->
      Alcotest.(check bool)
        (Printf.sprintf "faulted point identical (fastpath=%b, vm=%b)" fastpath
           vm)
        true
        (run ~fastpath ~vm = base))
    [ (true, false); (false, true); (false, false) ]

(* Telemetry must be equally invisible. A DRC workload exercises most of
   the probe inventory (heap gauges, acquire/retire, deferred-decrement
   gauge, EBR inside the snapshot machinery, counters on every pid);
   the full snapshot must be bit-identical with elision on and off,
   under every policy. *)
module Drc = Cdrc.Drc

let drc_snapshot ~policy ~fastpath =
  let config = Config.small in
  let mem = Memory.create config in
  let drc = Drc.create ~snapshots:true mem ~procs:4 in
  let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
  let cells = Drc.alloc_cells drc ~tag:"c" ~n:4 in
  let h0 = Drc.handle drc (-1) in
  for k = 0 to 3 do
    Drc.store h0 (cells + k) (Drc.make h0 cls [| k |])
  done;
  let res =
    Sim.run ~policy ~seed:13 ~fastpath ~config ~procs:4 (fun pid ->
        let h = Drc.handle drc pid in
        for i = 1 to 100 do
          let c = cells + ((pid + i) mod 4) in
          if (i + pid) mod 3 = 0 then Drc.store h c (Drc.make h cls [| i |])
          else begin
            let r = Drc.load h c in
            if not (Word.is_null r) then Drc.destruct h r
          end;
          Proc.pay 1
        done)
  in
  Alcotest.(check int) "no faults" 0 (List.length res.Sim.faults);
  Telemetry.snapshot (Memory.telemetry mem)

let test_telemetry_identical () =
  List.iter
    (fun (pname, policy) ->
      let on = drc_snapshot ~policy ~fastpath:true in
      let off = drc_snapshot ~policy ~fastpath:false in
      Alcotest.(check bool)
        (Printf.sprintf "%s: telemetry on = off" pname)
        true (on = off);
      (* And non-trivially so: the workload actually drove the probes. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: probes were exercised" pname)
        true
        (List.mem_assoc "drc.deferred_decs/peak" on
        && List.mem_assoc "ar.delayed/peak" on
        && List.assoc "mem.alloc.fresh" on > 0))
    policies

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
    Alcotest.test_case "fig6a point identical" `Quick test_fig6_point_identical;
    Alcotest.test_case "fig7 point identical" `Quick test_fig7_point_identical;
    Alcotest.test_case "faulted point identical (fastpath x vm)" `Quick
      test_faulted_point_identical;
    Alcotest.test_case "telemetry identical on/off (3 policies)" `Quick
      test_telemetry_identical;
    QCheck_alcotest.to_alcotest prop_quantum_bound;
    QCheck_alcotest.to_alcotest prop_skew_bound;
    Alcotest.test_case "fast pay allocation-free" `Quick test_fast_pay_no_alloc;
  ]
