(* Reclamation robustness under faults (Figure R, DESIGN.md §4l).

   The load-bearing claim is two-sided: a reader stalled inside its
   critical region makes a plain epoch scheme's unreclaimed memory grow
   without bound for the rest of the run, while DEBRA+ neutralizes the
   stalled reader and stays within a constant factor of its fault-free
   footprint. Both sides are asserted against the same workload at the
   same horizon, so a regression that flattens the divergence (the
   stall not biting) or breaks neutralization (DEBRA+ diverging too)
   fails loudly. *)

module FR = Workload.Fig_robust
module Measure = Workload.Measure

(* Memoized: several tests look at the same cells, and a cell is a full
   simulated run. The horizon leaves the stall (at a quarter of it) two
   thirds of the run to bite — shorter runs flatten the divergence. *)
let point =
  let tbl = Hashtbl.create 8 in
  fun ~scheme ~fault ->
    match Hashtbl.find_opt tbl (scheme, fault) with
    | Some r -> r
    | None ->
        let r =
          FR.point ~scheme ~fault ~threads:8 ~horizon:24_000 ~seed:42 ~size:16
            ~update_pct:50 ()
        in
        Hashtbl.add tbl (scheme, fault) r;
        r

let final series = match List.rev series with (_, v) :: _ -> v | [] -> 0

let peak series = List.fold_left (fun m (_, v) -> max m v) 0 series

let test_divergence () =
  let _, ebr_stall = point ~scheme:"EBR" ~fault:FR.Stall_one in
  let dplus_pt, dplus_stall = point ~scheme:"DEBRA+" ~fault:FR.Stall_one in
  let _, dplus_clean = point ~scheme:"DEBRA+" ~fault:FR.No_fault in
  let ebr_end = final ebr_stall in
  let dplus_end = final dplus_stall in
  let dplus_bound = max 8 (2 * peak dplus_clean) in
  (* Divergent side: by the end of the run the stalled EBR cell holds at
     least twice DEBRA+'s garbage, and more than DEBRA+'s fault-free
     envelope — it is still growing when the run ends. *)
  Alcotest.(check bool)
    (Printf.sprintf "ebr diverges (%d >= 2 * %d)" ebr_end dplus_end)
    true
    (ebr_end >= 2 * dplus_end);
  Alcotest.(check bool)
    (Printf.sprintf "ebr escapes the fault-free envelope (%d > %d)" ebr_end
       dplus_bound)
    true (ebr_end > dplus_bound);
  (* Bounded side: DEBRA+ under the same stall stays inside a constant
     factor of its own fault-free peak. *)
  Alcotest.(check bool)
    (Printf.sprintf "debra+ stays bounded (%d <= %d)" (peak dplus_stall)
       dplus_bound)
    true
    (peak dplus_stall <= dplus_bound);
  (* And it got there by actually neutralizing: the stall fired, at
     least one signal was posted, and scans ran. *)
  Alcotest.(check bool) "stall fired" true (FR.counter dplus_pt "adv.stalls" > 0);
  Alcotest.(check bool) "neutralization signalled" true
    (FR.counter dplus_pt "adv.signals" > 0);
  Alcotest.(check bool) "scans ran" true
    (FR.counter dplus_pt "debra.scans" > 0);
  Alcotest.(check bool) "limbo bags were occupied" true
    (FR.counter dplus_pt "smr.limbo_occupancy/peak" > 0)

(* Plain DEBRA (no neutralization) must diverge like EBR under the same
   stall — the bags alone buy constant-time retirement, not robustness;
   that is exactly the gap DEBRA+ closes. *)
let test_plain_debra_diverges () =
  let _, debra_stall = point ~scheme:"DEBRA" ~fault:FR.Stall_one in
  let _, dplus_stall = point ~scheme:"DEBRA+" ~fault:FR.Stall_one in
  Alcotest.(check bool)
    (Printf.sprintf "plain debra diverges (%d >= 2 * %d)" (final debra_stall)
       (final dplus_stall))
    true
    (final debra_stall >= 2 * final dplus_stall)

(* A crash-restart victim is revived mid-run: the scheme must recover —
   the final footprint returns to (a factor of) the fault-free level
   rather than keeping the stall-plateau garbage. *)
let test_crash_restart_recovers () =
  let _, ebr_crash = point ~scheme:"EBR" ~fault:FR.Crash_restart in
  let _, ebr_stall = point ~scheme:"EBR" ~fault:FR.Stall_one in
  let _, ebr_clean = point ~scheme:"EBR" ~fault:FR.No_fault in
  Alcotest.(check bool)
    (Printf.sprintf "revived run recovers (%d < %d, clean peak %d)"
       (final ebr_crash) (final ebr_stall) (peak ebr_clean))
    true
    (final ebr_crash < final ebr_stall
    && final ebr_crash <= max 8 (2 * peak ebr_clean))

(* The no-fault cells of DEBRA and DEBRA+ are the same algorithm — the
   neutralization machinery must cost nothing when nothing stalls. *)
let test_plus_is_free_without_faults () =
  let debra_pt, debra_s = point ~scheme:"DEBRA" ~fault:FR.No_fault in
  let dplus_pt, dplus_s = point ~scheme:"DEBRA+" ~fault:FR.No_fault in
  Alcotest.(check bool) "identical fault-free points" true
    (debra_pt.Measure.throughput = dplus_pt.Measure.throughput
    && debra_s = dplus_s);
  Alcotest.(check int) "no signals" 0 (FR.counter dplus_pt "adv.signals")

(* Profiling must conserve ticks under crash-restart too: a revived
   victim whose core drained re-enters at the current minimum clock
   without paying for the lift, so the profiler's expected total must
   leave it out. [point] raises on a conservation violation. *)
let test_crash_restart_profile_conserves () =
  List.iter
    (fun scheme ->
      let profiled, _ =
        FR.point ~profile:true ~scheme ~fault:FR.Crash_restart ~threads:8
          ~horizon:24_000 ~seed:42 ~size:16 ~update_pct:50 ()
      in
      let plain, _ = point ~scheme ~fault:FR.Crash_restart in
      Alcotest.(check bool)
        (scheme ^ ": profiled point = plain point")
        true (profiled = plain))
    FR.scheme_names

(* Neutralization needs the victim's consent: a DEBRA+ process that
   registered no signal handler and stalls inside its critical region
   (here, a long run of private pays) is still neutralized — the
   scanners close its protection window — so its next pay must fault
   loudly, naming it, rather than drop the signal and run on
   unprotected. *)
let test_unhandled_signal_faults () =
  let module D = Smr.Debra.Plus in
  let open Simcore in
  let config = Config.small in
  let mem = Memory.create config in
  let procs = 3 in
  let d =
    D.create mem ~procs ~params:{ Smr.Smr_intf.default_params with batch = 4 }
  in
  let r =
    Sim.run ~config ~procs (fun pid ->
        let h = D.handle d pid in
        if pid = 0 then begin
          D.begin_op h;
          for _ = 1 to 1_000_000 do
            Proc.pay 1
          done;
          D.end_op h
        end
        else
          for _ = 1 to 400 do
            D.begin_op h;
            let a = D.alloc h ~tag:"node" ~size:2 in
            D.retire h a;
            D.end_op h
          done)
  in
  match r.Sim.faults with
  | [ { Sim.pid = 0; exn = Proc.Unhandled_signal 0 as e } ] ->
      Alcotest.(check string) "the fault names the victim"
        "Proc: a signal reached pid 0, which registered no on_signal handler"
        (Printexc.to_string e)
  | [] -> Alcotest.fail "the stalled process was not neutralized"
  | l ->
      Alcotest.failf "unexpected faults: %s"
        (String.concat "; "
           (List.map
              (fun { Sim.pid; exn } ->
                Printf.sprintf "pid %d: %s" pid (Printexc.to_string exn))
              l))

let suite =
  [
    Alcotest.test_case "stalled reader: ebr diverges, debra+ bounded" `Quick
      test_divergence;
    Alcotest.test_case "plain debra diverges without neutralization" `Quick
      test_plain_debra_diverges;
    Alcotest.test_case "crash-restart recovers" `Quick
      test_crash_restart_recovers;
    Alcotest.test_case "debra+ free when fault-free" `Quick
      test_plus_is_free_without_faults;
    Alcotest.test_case "crash-restart profile conserves ticks" `Quick
      test_crash_restart_profile_conserves;
    Alcotest.test_case "debra+ victim without a handler faults" `Quick
      test_unhandled_signal_faults;
  ]
