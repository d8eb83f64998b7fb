(* The scheduler: atomicity between pay points, determinism, policies,
   fault isolation, oversubscription, and the livelock safety valve. *)

open Simcore

let small = Config.small

let test_counter_atomicity () =
  (* FAA from many processes: no lost updates under any policy. *)
  List.iter
    (fun policy ->
      let mem = Memory.create small in
      let c = Memory.alloc mem ~tag:"c" ~size:1 in
      let res =
        Sim.run ~policy ~config:small ~procs:6 (fun _ ->
            for _ = 1 to 500 do
              ignore (Memory.faa mem c 1)
            done)
      in
      Alcotest.(check int) "no faults" 0 (List.length res.Sim.faults);
      Alcotest.(check int) "exact count" 3000 (Memory.peek mem c))
    [ Sim.Fair; Sim.Uniform; Sim.Chaos { pause_prob = 0.01; pause_steps = 100 } ]

let test_cas_mutex () =
  (* A CAS-guarded critical section admits one process at a time. *)
  let mem = Memory.create small in
  let lock = Memory.alloc mem ~tag:"l" ~size:1 in
  let inside = ref 0 and max_inside = ref 0 in
  let res =
    Sim.run ~policy:Sim.Uniform ~seed:3 ~config:small ~procs:5 (fun _ ->
        for _ = 1 to 100 do
          let rec acquire () =
            if not (Memory.cas mem lock ~expected:0 ~desired:1) then begin
              Proc.pay 3;
              acquire ()
            end
          in
          acquire ();
          incr inside;
          if !inside > !max_inside then max_inside := !inside;
          Proc.pay 5;
          decr inside;
          Memory.write mem lock 0
        done)
  in
  Alcotest.(check int) "no faults" 0 (List.length res.Sim.faults);
  Alcotest.(check int) "mutual exclusion" 1 !max_inside

let test_determinism () =
  let run policy =
    let mem = Memory.create small in
    let c = Memory.alloc mem ~tag:"c" ~size:1 in
    let r =
      Sim.run ~policy ~seed:11 ~config:small ~procs:4 (fun pid ->
          for i = 1 to 200 do
            ignore (Memory.faa mem c ((pid * i) mod 7))
          done)
    in
    (r.Sim.makespan, r.Sim.steps, Memory.peek mem c)
  in
  List.iter
    (fun policy ->
      Alcotest.(check (triple int int int))
        "same seed, same run" (run policy) (run policy))
    [ Sim.Fair; Sim.Uniform; Sim.Chaos { pause_prob = 0.05; pause_steps = 50 } ]

let test_seed_changes_interleaving () =
  let run seed =
    let mem = Memory.create small in
    let c = Memory.alloc mem ~tag:"c" ~size:1 in
    let trace = ref [] in
    let _ =
      Sim.run ~policy:Sim.Uniform ~seed ~config:small ~procs:3 (fun pid ->
          for _ = 1 to 20 do
            ignore (Memory.faa mem c 1);
            trace := pid :: !trace
          done)
    in
    !trace
  in
  Alcotest.(check bool) "different seeds interleave differently" true
    (run 1 <> run 2)

let test_fault_isolation () =
  (* One process faults; the others complete. *)
  let mem = Memory.create small in
  let c = Memory.alloc mem ~tag:"c" ~size:1 in
  let res =
    Sim.run ~config:small ~procs:3 (fun pid ->
        if pid = 1 then ignore (Memory.read mem 999_999)
        else
          for _ = 1 to 100 do
            ignore (Memory.faa mem c 1)
          done)
  in
  Alcotest.(check int) "one fault" 1 (List.length res.Sim.faults);
  Alcotest.(check int) "faulting pid" 1 (List.hd res.Sim.faults).Sim.pid;
  Alcotest.(check int) "others finished" 200 (Memory.peek mem c)

let test_stuck_detection () =
  let config = { small with max_steps = 10_000 } in
  Alcotest.check_raises "livelock detected"
    (Sim.Stuck "exceeded max_steps=10000 with 1 processes unfinished")
    (fun () ->
      ignore
        (Sim.run ~config ~procs:1 (fun _ ->
             while true do
               Proc.pay 1
             done)))

let test_proc_now_monotone () =
  let ok = ref true in
  let _ =
    Sim.run ~config:small ~procs:3 (fun _ ->
        let last = ref 0 in
        for _ = 1 to 200 do
          Proc.pay 2;
          let n = Proc.now () in
          if n < !last then ok := false;
          last := n
        done)
  in
  Alcotest.(check bool) "clock monotone per process" true !ok

let test_oversubscription_serializes () =
  (* 4 processes on 1 core: makespan is the sum of all work. *)
  let config = { small with cores = 1 } in
  let res =
    Sim.run ~config ~procs:4 (fun _ ->
        for _ = 1 to 100 do
          Proc.pay 10
        done)
  in
  Alcotest.(check int) "serialized makespan" 4000 res.Sim.makespan

let test_parallel_speedup () =
  (* 4 processes on 4 cores: makespan is one process's work. *)
  let config = { small with cores = 4 } in
  let res =
    Sim.run ~config ~procs:4 (fun _ ->
        for _ = 1 to 100 do
          Proc.pay 10
        done)
  in
  Alcotest.(check int) "parallel makespan" 1000 res.Sim.makespan

let test_outside_sim_noops () =
  Alcotest.(check int) "self outside" (-1) (Proc.self ());
  Alcotest.(check int) "now outside" 0 (Proc.now ());
  Proc.pay 100 (* must not raise *)

let test_pid_visible () =
  let seen = Array.make 5 false in
  let _ =
    Sim.run ~config:small ~procs:5 (fun pid ->
        Proc.pay 1;
        seen.(Proc.self ()) <- true;
        Alcotest.(check int) "pid matches" pid (Proc.self ()))
  in
  Alcotest.(check bool) "all pids ran" true (Array.for_all Fun.id seen)

(* Pid Sim.max_procs and above would share a coherence slot (and
   race-checker clock) with other pids, so such runs are refused rather
   than silently merged. *)
let test_procs_bounds () =
  let refused procs =
    match Sim.run ~config:small ~procs (fun _ -> ()) with
    | _ -> Alcotest.failf "procs = %d accepted" procs
    | exception Invalid_argument msg ->
        Alcotest.(check string)
          (Printf.sprintf "procs = %d" procs)
          (Printf.sprintf "Sim.run: procs = %d, must be between 1 and 1023" procs)
          msg
  in
  Alcotest.(check int) "bound" (Memcore.max_pids - 1) Sim.max_procs;
  List.iter refused [ 0; -1; Sim.max_procs + 1; 1030 ];
  let last = ref (-1) in
  let _ =
    Sim.run ~config:small ~procs:Sim.max_procs (fun pid ->
        Proc.pay 1;
        if pid > !last then last := pid)
  in
  Alcotest.(check int) "largest pid ran" (Sim.max_procs - 1) !last

let test_global_now_total_order () =
  (* Global steps give an execution-order-consistent timestamp under
     every policy (the Lincheck foundation). *)
  List.iter
    (fun policy ->
      let order = ref [] in
      let _ =
        Sim.run ~policy ~seed:4 ~config:small ~procs:3 (fun _ ->
            for _ = 1 to 30 do
              Proc.pay 3;
              order := Proc.global_now () :: !order
            done)
      in
      let seq = List.rev !order in
      Alcotest.(check bool) "nondecreasing across all processes" true
        (List.sort compare seq = seq))
    [ Sim.Fair; Sim.Uniform; Sim.Chaos { pause_prob = 0.05; pause_steps = 40 } ]

let suite =
  [
    Alcotest.test_case "counter atomicity (all policies)" `Quick
      test_counter_atomicity;
    Alcotest.test_case "cas mutex" `Quick test_cas_mutex;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_interleaving;
    Alcotest.test_case "fault isolation" `Quick test_fault_isolation;
    Alcotest.test_case "stuck detection" `Quick test_stuck_detection;
    Alcotest.test_case "clock monotone" `Quick test_proc_now_monotone;
    Alcotest.test_case "global time total order" `Quick
      test_global_now_total_order;
    Alcotest.test_case "oversubscription serializes" `Quick
      test_oversubscription_serializes;
    Alcotest.test_case "parallel speedup" `Quick test_parallel_speedup;
    Alcotest.test_case "outside-sim noops" `Quick test_outside_sim_noops;
    Alcotest.test_case "pid visible" `Quick test_pid_visible;
    Alcotest.test_case "procs bounds" `Quick test_procs_bounds;
  ]
