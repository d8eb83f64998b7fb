(* Per-layer host-time probes for the traced run.

   Each probe is the unit cost of one call into a single layer, in host
   nanoseconds: the minimum over [batches] timed batches of [n] calls
   through the layer's public functions. The minimum is the cost of the
   layer when the host does not interrupt it; the end-to-end metrics
   carry the noise. Every batch is a span of the traced run.

   Layers below the scheduler (Memory, Proc.pay, Alloc, Ar, Drc, smr,
   cds, service) are timed outside [Sim.run], under a process
   environment built here with an unlimited run-ahead budget: the layer
   sees process [pid], and every pay takes the elided path it takes
   inside a scheduler grant. The scheduler and the VM are timed through
   [Sim.run] itself. *)

module M = Simcore.Memory
module Proc = Simcore.Proc
module Rng = Simcore.Rng
module Sim = Simcore.Sim
module Vm = Simcore.Vm
module Cfg = Simcore.Config
module Ar = Acquire_retire.Ar
module Drc = Cdrc.Drc
module Loadgen = Service.Loadgen

let batches = 7

let unit_cost sp name ~n run =
  let best = ref infinity in
  for _ = 1 to batches do
    let (), ns = Spans.timed sp name (fun _ -> run n) in
    if ns < !best then best := ns
  done;
  !best /. float_of_int n

let env ?prof pid =
  let clock = ref 0 and steps = ref 0 in
  {
    Proc.pid;
    prng = Rng.create ~seed:(pid + 1);
    clock = (fun () -> !clock);
    gclock = (fun () -> !steps);
    budget = max_int;
    fast = true;
    fast_pay =
      (fun n ->
        clock := !clock + n;
        incr steps);
    bulk_pay =
      (fun n k ->
        clock := !clock + n;
        steps := !steps + k);
    regrant = (fun _ -> false);
    prof;
    intr = false;
    on_sig = None;
    sigmask = false;
    peers = [||];
  }

let in_env e f =
  Proc.set_env (Some e);
  Fun.protect ~finally:(fun () -> Proc.set_env None) f

let repeat n f =
  for i = 1 to n do
    f i
  done

(* Strict min-clock interleaving: with equal clocks every pay is a
   scheduling decision, so each one costs a full scheduler round. *)
let no_lookahead = { Cfg.default with Cfg.lookahead = 0 }

(* {1 simcore.Sim} *)

let flat_rounds ~procs n =
  let left = Array.make procs (n / procs) in
  let co pid =
    Some
      (fun () ->
        if left.(pid) = 0 then -1
        else begin
          left.(pid) <- left.(pid) - 1;
          1
        end)
  in
  ignore (Sim.run ~config:no_lookahead ~procs ~coroutine:co (fun _ -> ()))

let fiber_rounds ~procs ?fastpath ~config n =
  ignore
    (Sim.run ?fastpath ~config ~procs (fun _ -> repeat (n / procs) (fun _ -> Proc.pay 1)))

(* {1 simcore.Vm}: a loop of [emit]'s instructions plus a 2-instruction
   loop tail, run as a flat coroutine. *)

let vm_loop ~procs ~config ~emit ~iters =
  let mem = M.create config in
  let addr = M.alloc mem ~tag:"probe" ~size:1 in
  let co _pid =
    let a = Vm.Asm.create () in
    let r_i = Vm.Asm.reg a in
    let loop = Vm.Asm.label a in
    Vm.Asm.movi a r_i 0;
    Vm.Asm.place a loop;
    emit a addr;
    Vm.Asm.addi a r_i r_i 1;
    Vm.Asm.blti a r_i iters loop;
    Vm.Asm.halt a;
    let prog = Vm.Asm.assemble a in
    let fr =
      Vm.frame prog ~mem ~rng:(Proc.rng ())
        ~cells:(Array.make prog.Vm.n_cells 0)
    in
    Some (Vm.coroutine prog fr)
  in
  ignore (Sim.run ~config ~procs ~coroutine:co (fun _ -> ()))

let alu a _ =
  let r = Vm.Asm.reg a in
  repeat 16 (fun _ -> Vm.Asm.addi a r r 1)

let mem_reads a addr =
  let r_a = Vm.Asm.reg a and r_d = Vm.Asm.reg a in
  Vm.Asm.movi a r_a addr;
  repeat 16 (fun _ -> Vm.Asm.read a r_d r_a)

(* {1 Layer set-ups} *)

let read_loop mem a n = repeat n (fun _ -> ignore (M.read mem a))

let pay_loop n = repeat n (fun _ -> Proc.pay 1)

let alloc_pair ~policy sp name =
  let mem = M.create { Cfg.default with Cfg.alloc = policy } in
  let e = env 0 in
  unit_cost sp name ~n:10_000 (fun n ->
      in_env e (fun () ->
          repeat n (fun _ -> M.free mem (M.alloc mem ~tag:"probe" ~size:2))))

let ar_costs sp p =
  let mem = M.create Cfg.default in
  let ar = Ar.create mem ~procs:p ~slots_per_proc:2 ~eject_work:2 in
  let h = Ar.handle ar 0 in
  let cell = M.alloc mem ~tag:"cell" ~size:1 in
  let obj = M.alloc mem ~tag:"obj" ~size:2 in
  M.write mem cell obj;
  let e = env 0 in
  let acq =
    unit_cost sp (Printf.sprintf "ar.acquire_release.p%d" p) ~n:20_000
      (fun n ->
        in_env e (fun () ->
            repeat n (fun _ ->
                ignore (Ar.acquire h ~slot:0 cell);
                Ar.release h ~slot:0)))
  in
  let ret =
    unit_cost sp (Printf.sprintf "ar.retire.p%d" p) ~n:15_000 (fun n ->
        in_env e (fun () ->
            repeat n (fun _ ->
                Ar.retire h obj;
                ignore (Ar.eject h))))
  in
  (acq, ret)

let drc_costs sp p =
  let mem = M.create Cfg.default in
  let drc = Drc.create mem ~procs:p in
  let cls = Drc.register_class drc ~tag:"obj" ~fields:1 ~ref_fields:[] in
  let cell = Drc.alloc_cells drc ~tag:"cell" ~n:1 in
  let h = Drc.handle drc 0 in
  let e = env 0 in
  in_env e (fun () -> Drc.store h cell (Drc.make h cls [| 1 |]));
  let probe op n body =
    unit_cost sp (Printf.sprintf "drc.%s.p%d" op p) ~n (fun n ->
        in_env e (fun () -> repeat n (fun _ -> body ())))
  in
  let load = probe "load" 6_000 (fun () -> Drc.destruct h (Drc.load h cell)) in
  let store =
    probe "store" 3_000 (fun () -> Drc.store h cell (Drc.make h cls [| 2 |]))
  in
  let snapshot =
    probe "snapshot" 12_000 (fun () ->
        Drc.release_snapshot h (Drc.get_snapshot h cell))
  in
  (load, store, snapshot)

let traffic ~duration =
  Loadgen.generate ~seed:1 ~arrival:Loadgen.Poisson ~rate:64 ~duration
    ~clients:64 ~key_dist:(Loadgen.Zipfian 0.9) ~keyspace:1024
    ~mix:Loadgen.default_mix ()

(* One poll loop over an inbox: the serving worker's loop with a fixed
   10-tick service time. Returns the number of polls. *)
let drain reqs =
  let q = Service.Queueing.create ~cap:64 ~arr:(fun r -> r.Loadgen.arr) reqs in
  let polls = ref 0 and now = ref 0 in
  let rec go () =
    incr polls;
    match Service.Queueing.poll q ~now:!now with
    | Service.Queueing.Done -> ()
    | Service.Queueing.Idle_until t ->
        now := t;
        go ()
    | Service.Queueing.Serve _ ->
        now := !now + 10;
        go ()
  in
  go ();
  !polls

(* {1 All probes}

   Names are the per-layer metric names; the values are host ns. *)

let ps = [ 4; 16; 64; 144 ]

let run sp =
  let out = ref [] in
  let add name v = out := (name, v) :: !out in
  (* Sim: flat-coroutine rounds at two process counts; a round through
     the Proc.Pay effect with 8 fibers. *)
  List.iter
    (fun procs ->
      let n = procs * (100_000 / procs) in
      add
        (Printf.sprintf "sim.round_ns.p%d" procs)
        (unit_cost sp (Printf.sprintf "sim.round.p%d" procs) ~n (flat_rounds ~procs)))
    [ 8; 144 ];
  add "sim.fiber_round_ns"
    (unit_cost sp "sim.fiber_round" ~n:50_000
       (fiber_rounds ~procs:8 ~config:no_lookahead));
  (* Vm: instructions of a dispatch-bound loop; a suspension round trip
     (a PAYI that must reach the scheduler, two processes in lockstep). *)
  let iters = 20_000 in
  add "vm.step_ns.alu"
    (unit_cost sp "vm.step.alu" ~n:(iters * 18) (fun _ ->
         vm_loop ~procs:1 ~config:Cfg.default ~emit:alu ~iters));
  add "vm.step_ns.mem"
    (unit_cost sp "vm.step.mem" ~n:(iters * 19) (fun _ ->
         vm_loop ~procs:1 ~config:Cfg.default ~emit:mem_reads ~iters));
  add "vm.suspend_rt_ns"
    (unit_cost sp "vm.suspend_rt" ~n:(2 * 30_000) (fun _ ->
         vm_loop ~procs:2 ~config:no_lookahead
           ~emit:(fun a _ -> Vm.Asm.payi a 1)
           ~iters:30_000));
  (* Proc: a pay inside the run-ahead budget; a pay that performs the
     effect and is resumed by the scheduler (one process). *)
  let e0 = env 0 and e1 = env 1 in
  let pay_elided =
    unit_cost sp "proc.pay_elided" ~n:300_000 (fun n -> in_env e0 (fun () -> pay_loop n))
  in
  add "proc.pay_elided_ns" pay_elided;
  add "proc.pay_suspend_ns"
    (unit_cost sp "proc.pay_suspend" ~n:50_000
       (fiber_rounds ~procs:1 ~fastpath:false ~config:Cfg.default));
  (* Memory (+ Memcore, Coherence): owned lines are re-touched by their
     owner; transferred ones alternate between two processes. The
     transferred read is a write-then-read ping-pong less one
     transferred CAS. *)
  let mem = M.create Cfg.default in
  let a0 = M.alloc mem ~tag:"probe" ~size:1 in
  let shared = M.alloc mem ~tag:"probe" ~size:1 in
  let read_owned =
    unit_cost sp "memory.read.owned" ~n:150_000 (fun n ->
        in_env e0 (fun () -> read_loop mem a0 n))
  in
  let cas_owned =
    unit_cost sp "memory.cas.owned" ~n:150_000 (fun n ->
        in_env e0 (fun () ->
            repeat n (fun _ -> ignore (M.cas mem a0 ~expected:0 ~desired:0))))
  in
  let cas_transferred =
    unit_cost sp "memory.cas.transferred" ~n:150_000 (fun n ->
        repeat (n / 2) (fun _ ->
            Proc.set_env (Some e0);
            ignore (M.cas mem shared ~expected:0 ~desired:0);
            Proc.set_env (Some e1);
            ignore (M.cas mem shared ~expected:0 ~desired:0));
        Proc.set_env None)
  in
  let ping_pong =
    unit_cost sp "memory.write_read.transferred" ~n:100_000 (fun n ->
        repeat n (fun _ ->
            Proc.set_env (Some e0);
            M.write mem shared 0;
            Proc.set_env (Some e1);
            ignore (M.read mem shared));
        Proc.set_env None)
  in
  add "memory.read_ns.owned" read_owned;
  add "memory.read_ns.transferred" (ping_pong -. cas_transferred);
  add "memory.cas_ns.owned" cas_owned;
  add "memory.cas_ns.transferred" cas_transferred;
  (* Alloc: one alloc+free pair under each policy. *)
  add "alloc.pair_ns.legacy" (alloc_pair ~policy:Cfg.Legacy sp "alloc.pair.legacy");
  add "alloc.pair_ns.pooled" (alloc_pair ~policy:Cfg.Pooled sp "alloc.pair.pooled");
  (* Racecheck, Sanitizer, Profiler: armed cost less plain cost. *)
  let armed name config =
    let mem = M.create config in
    let a = M.alloc mem ~tag:"probe" ~size:1 in
    Simcore.Racecheck.note_run_start ();
    unit_cost sp name ~n:50_000 (fun n -> in_env e0 (fun () -> read_loop mem a n))
  in
  add "racecheck.read_overhead_ns"
    (armed "racecheck.read"
       { Cfg.default with Cfg.race = Simcore.Racecheck.default_on }
    -. read_owned);
  add "sanitizer.read_overhead_ns"
    (armed "sanitizer.read"
       { Cfg.default with Cfg.sanitize = Simcore.Sanitizer.default_on }
    -. read_owned);
  let prof = Simcore.Profiler.create ~label:"probe" () in
  let ep = env ~prof:(Simcore.Profiler.pstate prof ~pid:0) 0 in
  add "profiler.pay_overhead_ns"
    (unit_cost sp "profiler.pay" ~n:300_000 (fun n -> in_env ep (fun () -> pay_loop n))
    -. pay_elided);
  (* Ar and Drc across P: Theorem 1 in host ns. *)
  let ar = List.map (fun p -> (p, ar_costs sp p)) ps in
  List.iter (fun (p, (acq, _)) -> add (Printf.sprintf "ar.acquire_release_ns.p%d" p) acq) ar;
  List.iter (fun (p, (_, ret)) -> add (Printf.sprintf "ar.retire_ns.p%d" p) ret) ar;
  let drc = List.map (fun p -> (p, drc_costs sp p)) ps in
  let pick f = List.map (fun (p, c) -> (p, f c)) drc in
  let flat = ref [] in
  List.iter
    (fun (op, series) ->
      List.iter (fun (p, v) -> add (Printf.sprintf "drc.%s_ns.p%d" op p) v) series;
      flat := (op, List.assoc 144 series /. List.assoc 4 series) :: !flat)
    [
      ("load", pick (fun (l, _, _) -> l));
      ("store", pick (fun (_, s, _) -> s));
      ("snapshot", pick (fun (_, _, s) -> s));
    ];
  List.iter (fun (op, r) -> add ("drc.flatness." ^ op) r) (List.rev !flat);
  (* smr: one hazard-pointer protect + clear. *)
  let hp =
    Smr.Hp.create mem ~procs:4
      ~params:{ Smr.Smr_intf.slots = 3; batch = 64; era_freq = 32 }
  in
  let hph = Smr.Hp.handle hp 0 in
  add "hp.protect_ns"
    (unit_cost sp "hp.protect" ~n:20_000 (fun n ->
         in_env e0 (fun () ->
             repeat n (fun _ ->
                 ignore (Smr.Hp.protect_read hph ~slot:0 a0);
                 Smr.Hp.clear hph ~slot:0))));
  (* cds: the DRC Natarajan–Mittal BST of Figure 7's DRC line, 4096 keys
     from an 8192-key range; an update is one delete or one insert. *)
  let module B = Cds.Bst_rc.Plain in
  let bmem = M.create Cfg.default in
  let bst = B.create bmem ~procs:1 in
  let bh = B.handle bst 0 in
  let rng = Rng.create ~seed:7 in
  let keys = Array.init 4096 (fun _ -> Rng.int rng 8192) in
  in_env e0 (fun () -> Array.iter (fun k -> ignore (B.insert bh k)) keys);
  add "cds.bst.find_ns"
    (unit_cost sp "cds.bst.find" ~n:600 (fun n ->
         in_env e0 (fun () ->
             repeat n (fun i -> ignore (B.contains bh keys.(i land 4095))))));
  add "cds.bst.update_ns"
    (unit_cost sp "cds.bst.update" ~n:500 (fun n ->
         in_env e0 (fun () ->
             repeat (n / 2) (fun i ->
                 let k = keys.(i land 4095) in
                 ignore (B.delete bh k);
                 ignore (B.insert bh k)))));
  (* service: traffic generation per request, one inbox poll, one KV
     request on the DRC backend. *)
  let reqs = traffic ~duration:100_000 in
  let nreq = Array.length reqs in
  add "loadgen.generate_ns_per_req"
    (unit_cost sp "loadgen.generate" ~n:nreq (fun _ ->
         ignore (traffic ~duration:100_000)));
  let polls = drain reqs in
  add "queueing.poll_ns"
    (unit_cost sp "queueing.poll" ~n:polls (fun _ -> ignore (drain reqs)));
  let kmem = M.create Cfg.default in
  let kv =
    Service.Kv.create ~scheme:"DRC" kmem ~procs:1 ~buckets:512 ~keyspace:1024
      ~prefill:512 ~seed:1
  in
  add "kv.exec_ns"
    (unit_cost sp "kv.exec" ~n:7_000 (fun n ->
         in_env e0 (fun () ->
             repeat n (fun i ->
                 ignore (Service.Kv.exec kv ~pid:0 reqs.(i mod nreq).Loadgen.op)))));
  List.rev !out
