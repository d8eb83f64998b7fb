module Proc = Simcore.Proc
module Rng = Simcore.Rng
module Sim = Simcore.Sim
module Telemetry = Simcore.Telemetry
module Vm = Simcore.Vm

type arm = {
  pool : Simcore.Domain_pool.t;
  config : Simcore.Config.t;
  profile : bool;
  tracer : Simcore.Recorder.t option;
}

let unarmed =
  {
    pool = Simcore.Domain_pool.sequential;
    config = Simcore.Config.default;
    profile = false;
    tracer = None;
  }

type point = {
  threads : int;
  ops : int;
  steps : int;
  makespan : int;
  throughput : float;
  mem_metric : float;
  counters : (string * int) list;
}

(* Driver cell protocol (shared with the compiled driver below): cell 0
   counts completed operations, cell 1 is the next sampling deadline. *)
let ops_cell = 0

let sample_cell = 1

let run_point ?(policy = Sim.Fair) ?(seed = 42) ?fastpath ?tracer ?profiler
    ?telemetry ?adversary ?vm ~config ~threads ~horizon ~op ?sample () =
  let ops = Array.make threads 0 in
  (* A faulted run ({!Simcore.Adversary}) can end with processes parked
     mid-benchmark; the compiled driver's per-process epilogue (counter
     flush, op-count readback) then never runs inside the simulation, so
     it is also kept here and replayed after the run for everyone — both
     actions are idempotent — keeping faulted results identical between
     the compiled and closure drivers. *)
  let epilogues = Array.make threads (fun () -> ()) in
  let samples_sum = ref 0.0 and samples_n = ref 0 in
  let sample_every = max 1 (horizon / 64) in
  let res =
    match vm with
    | Some (mem, emit) when config.Simcore.Config.vm ->
        (* Compiled driver: the whole benchmark loop — horizon check, op
           body, op counting, sampling pacing — is assembled into a
           {!Simcore.Vm} program per process and run as a flat coroutine
           (see [Sim.run]'s [coroutine]): scheduling points return to
           the scheduler by plain call, with no fiber in between. The op
           body is the caller's compiled form when it has one, else the
           closure [op] behind a host call (the loop around it still
           avoids re-entering the interpreter). Bit-identical to the
           closure driver below either way. *)
        let coroutine pid =
          let a = Vm.Asm.create ~cells:2 () in
          let r_now = Vm.Asm.reg a in
          let loop = Vm.Asm.label a and halt = Vm.Asm.label a in
          Vm.Asm.place a loop;
          Vm.Asm.now a r_now;
          Vm.Asm.bgei a r_now horizon halt;
          (match emit with
          | Some e -> e a ~pid
          | None -> Vm.Asm.host a (fun fr -> op pid fr.Vm.rng));
          Vm.Asm.cellinc a ops_cell 1;
          (match sample with
          | Some f when pid = 0 ->
              let r_n = Vm.Asm.reg a and r_ns = Vm.Asm.reg a in
              let skip = Vm.Asm.label a in
              Vm.Asm.now a r_n;
              Vm.Asm.cellld a r_ns sample_cell;
              Vm.Asm.blt a r_n r_ns skip;
              Vm.Asm.host_leaf a (fun fr ->
                  fr.Vm.cells.(sample_cell) <- Proc.now () + sample_every;
                  samples_sum := !samples_sum +. float_of_int (f ());
                  incr samples_n);
              Vm.Asm.place a skip
          | Some _ | None -> ());
          Vm.Asm.jmp a loop;
          Vm.Asm.place a halt;
          (* The process's epilogue, in its final resume. *)
          Vm.Asm.host_leaf a (fun _ -> epilogues.(pid) ());
          Vm.Asm.halt a;
          let prog = Vm.Asm.assemble a in
          let cells = Array.make prog.Vm.n_cells 0 in
          let fr = Vm.frame prog ~mem ~rng:(Proc.rng ()) ~cells in
          epilogues.(pid) <-
            (fun () ->
              Vm.flush_counters prog fr;
              ops.(pid) <- cells.(ops_cell));
          Some (Vm.coroutine prog fr)
        in
        Sim.run ~policy ~seed ?fastpath ?tracer ?profiler ?adversary ~config
          ~procs:threads ~coroutine (fun _ -> assert false)
    | Some _ | None ->
        let body pid =
          let rng = Proc.rng () in
          let next_sample = ref 0 in
          while Proc.now () < horizon do
            op pid rng;
            ops.(pid) <- ops.(pid) + 1;
            match sample with
            | Some f when pid = 0 && Proc.now () >= !next_sample ->
                next_sample := Proc.now () + sample_every;
                samples_sum := !samples_sum +. float_of_int (f ());
                incr samples_n
            | Some _ | None -> ()
          done
        in
        Sim.run ~policy ~seed ?fastpath ?tracer ?profiler ?adversary ~config
          ~procs:threads body
  in
  Array.iter (fun f -> f ()) epilogues;
  (match res.Sim.faults with
  | [] -> ()
  | { pid; exn } :: _ ->
      failwith
        (Printf.sprintf "benchmark process %d faulted: %s" pid
           (Printexc.to_string exn)));
  let total_ops = Array.fold_left ( + ) 0 ops in
  let makespan = max 1 res.Sim.makespan in
  {
    threads;
    ops = total_ops;
    steps = res.Sim.steps;
    makespan;
    throughput = float_of_int total_ops *. 1e6 /. float_of_int makespan;
    mem_metric =
      (if !samples_n = 0 then 0.0 else !samples_sum /. float_of_int !samples_n);
    counters =
      (match telemetry with Some t -> Telemetry.snapshot t | None -> []);
  }

let default_threads = [ 1; 4; 16; 48; 96; 144; 192 ]

let quick_threads = [ 1; 8; 48; 144 ]
