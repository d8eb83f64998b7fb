module M = Simcore.Memory
module Sim = Simcore.Sim
module Proc = Simcore.Proc
module Tele = Simcore.Telemetry
module Prof = Simcore.Profiler
module Recorder = Simcore.Recorder

type params = {
  scheme : string;
  rate : int;
  duration : int;
  arrival : Loadgen.arrival;
  key_dist : Loadgen.key_dist;
  mix : Loadgen.mix;
  clients : int;
  workers : int;
  keyspace : int;
  buckets : int;
  prefill : int;
  queue_cap : int;
  slo : int;
}

(* Fixed per-request handling cost (parse + dispatch + reply), charged
   on top of the backend operation so even a no-op backend has a
   nonzero service time. *)
let request_overhead = 8

let run ?fastpath ?tracer ?(config = Simcore.Config.default) ?profiler
    ?(seed = 42) p =
  if p.workers < 1 then invalid_arg "Bench.run: workers must be >= 1";
  let reqs =
    Loadgen.generate ~seed ~arrival:p.arrival ~rate:p.rate
      ~duration:p.duration ~clients:p.clients ~key_dist:p.key_dist
      ~keyspace:p.keyspace ~mix:p.mix ()
  in
  let shards = Loadgen.shard reqs ~workers:p.workers in
  let mem = M.create config in
  let kv =
    Kv.create ~scheme:p.scheme mem ~procs:p.workers ~buckets:p.buckets
      ~keyspace:p.keyspace ~prefill:p.prefill ~seed
  in
  let tele = M.telemetry mem in
  let lat_h = Tele.hist tele "svc.latency" in
  let qd_h = Tele.hist tele "svc.queueing" in
  let inflight = Tele.gauge tele "svc.inflight" in
  let depth_g = Tele.gauge tele "svc.queue_depth" in
  let shed_c = Tele.counter tele "svc.shed" in
  let done_c = Tele.counter tele "svc.done" in
  let ok_c = Tele.counter tele "svc.ok" in
  let span_begin () =
    match tracer with Some tr -> Recorder.span_begin tr "svc.req" | None -> ()
  in
  let span_end () =
    match tracer with Some tr -> Recorder.span_end tr "svc.req" | None -> ()
  in
  (* Per-request critical-path totals (see {!Slo.breakdown}). All
     workers run on the scheduler's one domain, so plain refs suffice.
     The profiler group deltas around each serve attribute the worker's
     own paid ticks; reading them never pays, so profiled and
     unprofiled runs stay bit-identical. *)
  let bd_requests = ref 0 and bd_queue_wait = ref 0 and bd_service = ref 0 in
  let bd_retry = ref 0 and bd_reclaim = ref 0 in
  (* A worker fetches its env once when it starts ([worker_env]): its
     process never changes, so the request loop reads the clock and
     pays through it with no domain-local lookup. *)
  let serve e arr op =
    let pid = e.Proc.pid in
    let start = e.Proc.clock () in
    Tele.observe qd_h (start - arr);
    span_begin ();
    let snap0 =
      match profiler with
      | Some t -> Prof.group_snapshot t (Prof.pstate t ~pid)
      | None -> (0, 0, 0)
    in
    (* The fixed handling cost (parse + dispatch + reply) is
       serving-stack overhead, not backend work: charge it to the
       queueing phase. *)
    Prof.enter_env e Prof.Queueing;
    Proc.pay_env e request_overhead;
    Prof.exit_env e;
    ignore (Kv.exec kv ~pid op);
    let finish = e.Proc.clock () in
    (match profiler with
    | Some t ->
        let _, r1, c1 = Prof.group_snapshot t (Prof.pstate t ~pid) in
        let _, r0, c0 = snap0 in
        bd_requests := !bd_requests + 1;
        bd_queue_wait := !bd_queue_wait + (start - arr);
        bd_service := !bd_service + (finish - start);
        bd_retry := !bd_retry + (r1 - r0);
        bd_reclaim := !bd_reclaim + (c1 - c0)
    | None -> ());
    span_end ();
    let lat = finish - arr in
    Tele.observe lat_h lat;
    Tele.add_gauge inflight (-1);
    Tele.incr done_c;
    if lat <= p.slo then Tele.incr ok_c
  in
  let worker_env () =
    match Proc.get_env () with
    | Some e -> e
    | None -> invalid_arg "Bench.run: worker outside a simulation"
  in
  let open_loop pid =
    let e = worker_env () in
    let inbox =
      Queueing.create ~cap:p.queue_cap
        ~arr:(fun r -> r.Loadgen.arr)
        ~on_admit:(fun d ->
          Tele.set_gauge depth_g d;
          Tele.add_gauge inflight 1)
        ~on_serve:(fun d -> Tele.set_gauge depth_g d)
        ~on_shed:(fun _ -> Tele.incr shed_c)
        shards.(pid)
    in
    let rec loop () =
      let now = e.Proc.clock () in
      match Queueing.poll inbox ~now with
      | Queueing.Done -> ()
      | Queueing.Idle_until t ->
          (* Waiting for the next arrival is idle time, not service. *)
          Prof.enter_env e Prof.Idle;
          Proc.pay_env e (Int.max 1 (t - now));
          Prof.exit_env e;
          loop ()
      | Queueing.Serve r ->
          serve e r.Loadgen.arr r.Loadgen.op;
          loop ()
    in
    loop ()
  in
  let closed_loop ~think pid =
    let e = worker_env () in
    Array.iter
      (fun r ->
        if think > 0 then begin
          Prof.enter_env e Prof.Idle;
          Proc.pay_env e think;
          Prof.exit_env e
        end;
        Tele.add_gauge inflight 1;
        (* Latency counts from issue: a closed-loop client experiences
           no queueing, so arrival = serve start. *)
        serve e (e.Proc.clock ()) r.Loadgen.op)
      shards.(pid)
  in
  let body =
    match p.arrival with
    | Loadgen.Closed { think } -> closed_loop ~think
    | _ -> open_loop
  in
  let res =
    Sim.run ~policy:Sim.Fair ~seed ?fastpath ?tracer ?profiler ~config
      ~procs:p.workers body
  in
  (match res.Sim.faults with
  | [] -> ()
  | { pid; exn } :: _ ->
      failwith
        (Printf.sprintf "service worker %d faulted: %s" pid
           (Printexc.to_string exn)));
  Kv.flush kv;
  let offered = Array.length reqs in
  let completed = Tele.total done_c and shed = Tele.total shed_c in
  if completed + shed <> offered then
    failwith
      (Printf.sprintf
         "service accounting broken: %d completed + %d shed <> %d offered"
         completed shed offered);
  let breakdown =
    match profiler with
    | None -> None
    | Some _ ->
        Some
          {
            Slo.requests = !bd_requests;
            queue_wait = !bd_queue_wait;
            service = !bd_service;
            retry_stall = !bd_retry;
            reclaim_stall = !bd_reclaim;
          }
  in
  let r =
    {
      Slo.scheme = p.scheme;
      rate = p.rate;
      offered;
      completed;
      ok = Tele.total ok_c;
      shed;
      makespan = res.Sim.makespan;
      latency = Tele.merged lat_h;
      queueing = Tele.merged qd_h;
      counters = Tele.snapshot tele;
      breakdown;
      flight = None;
    }
  in
  (* An SLO breach is the service layer's fault path: capture the
     heap's flight-recorder timeline into the report so the breach
     arrives with its last events attached. *)
  if Slo.pass ~slo:p.slo r then r
  else
    {
      r with
      Slo.flight =
        Some
          (Recorder.dump_string
             ~header:(Printf.sprintf "flight recorder: %s SLO breach" p.scheme)
             (M.recorder mem));
    }
