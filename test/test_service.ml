(* The serving stack: deterministic traffic generation, bounded-inbox
   admission control, KV linearizability, and cell-level bit-identity
   across fastpath modes and pool parallelism. *)

open Simcore
module L = Service.Loadgen
module Q = Service.Queueing
module B = Service.Bench

(* {1 Load generation} *)

let gen ?(seed = 9) ?(arrival = L.Poisson) ?(rate = 40) ?(duration = 5_000)
    ?(clients = 8) ?(key_dist = L.Uniform) ?(keyspace = 64)
    ?(mix = L.default_mix) () =
  L.generate ~seed ~arrival ~rate ~duration ~clients ~key_dist ~keyspace ~mix
    ()

let test_generate_deterministic () =
  List.iter
    (fun arrival ->
      Alcotest.(check bool)
        (Format.asprintf "same seed, same schedule (%a)" L.pp_arrival arrival)
        true
        (gen ~arrival () = gen ~arrival ()))
    [ L.Fixed; L.Poisson; L.Bursty { on = 200; off = 600 } ];
  Alcotest.(check bool) "different seeds differ" true
    (gen ~seed:1 () <> gen ~seed:2 ())

let test_generate_sorted_in_window () =
  List.iter
    (fun arrival ->
      let reqs = gen ~arrival () in
      Alcotest.(check bool) "nonempty" true (Array.length reqs > 0);
      Array.iteri
        (fun i r ->
          Alcotest.(check bool) "arrival in window" true
            (r.L.arr >= 0 && r.L.arr < 5_000);
          if i > 0 then
            Alcotest.(check bool) "sorted" true (reqs.(i - 1).L.arr <= r.L.arr))
        reqs)
    [ L.Fixed; L.Poisson; L.Bursty { on = 200; off = 600 } ]

let test_fixed_rate_exact () =
  (* Fixed arrivals hit the open-loop budget exactly. *)
  let reqs = gen ~arrival:L.Fixed ~rate:40 ~duration:5_000 () in
  Alcotest.(check int) "rate * duration / 1000" 200 (Array.length reqs)

let test_bursty_respects_off_windows () =
  let on = 200 and off = 600 in
  let b = Dist.Onoff.create ~on ~off in
  let reqs = gen ~arrival:(L.Bursty { on; off }) () in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "arrival inside an on-window" true
        (Dist.Onoff.is_on b r.L.arr))
    reqs

let test_shard_partitions () =
  let reqs = gen () in
  let workers = 3 in
  let shards = L.shard reqs ~workers in
  Alcotest.(check int) "every request landed" (Array.length reqs)
    (Array.fold_left (fun acc s -> acc + Array.length s) 0 shards);
  Array.iteri
    (fun w shard ->
      Array.iteri
        (fun i r ->
          Alcotest.(check int) "client affinity" w
            (L.worker_of_client ~workers r.L.client);
          if i > 0 then
            Alcotest.(check bool) "shard order preserved" true
              (shard.(i - 1).L.arr <= r.L.arr))
        shard)
    shards

let test_generate_rejects_bad_args () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero rate" true (raises (fun () -> ignore (gen ~rate:0 ())));
  Alcotest.(check bool) "zero duration" true
    (raises (fun () -> ignore (gen ~duration:0 ())));
  Alcotest.(check bool) "bad mix" true
    (raises (fun () ->
         ignore (gen ~mix:{ L.gets = 50; puts = 50; removes = 50 } ())))

(* {1 Queueing} *)

let inbox ?(cap = 2) arrivals =
  Q.create ~cap ~arr:Fun.id (Array.of_list arrivals)

let test_queue_fifo () =
  let q = inbox ~cap:10 [ 1; 2; 3 ] in
  Alcotest.(check bool) "idle before first arrival" true
    (Q.poll q ~now:0 = Q.Idle_until 1);
  Alcotest.(check bool) "first" true (Q.poll q ~now:5 = Q.Serve 1);
  Alcotest.(check bool) "second" true (Q.poll q ~now:5 = Q.Serve 2);
  Alcotest.(check bool) "third" true (Q.poll q ~now:5 = Q.Serve 3);
  Alcotest.(check bool) "done" true (Q.poll q ~now:5 = Q.Done);
  Alcotest.(check int) "nothing shed" 0 (Q.shed q)

let test_queue_sheds_on_overflow () =
  (* Five simultaneous arrivals into a cap-2 inbox: two admitted, three
     shed, and the shed ones never reappear. *)
  let q = inbox ~cap:2 [ 0; 0; 0; 0; 0 ] in
  Alcotest.(check bool) "head served" true (Q.poll q ~now:0 = Q.Serve 0);
  Alcotest.(check int) "three shed" 3 (Q.shed q);
  Alcotest.(check bool) "second served" true (Q.poll q ~now:0 = Q.Serve 0);
  Alcotest.(check bool) "then done" true (Q.poll q ~now:0 = Q.Done)

let test_queue_frees_capacity () =
  (* A dequeue frees a slot: arrivals spread over time are all admitted
     even though they exceed cap in total. *)
  let q = inbox ~cap:1 [ 0; 10; 20 ] in
  Alcotest.(check bool) "t=0" true (Q.poll q ~now:0 = Q.Serve 0);
  Alcotest.(check bool) "t=10" true (Q.poll q ~now:10 = Q.Serve 10);
  Alcotest.(check bool) "t=20" true (Q.poll q ~now:25 = Q.Serve 20);
  Alcotest.(check int) "nothing shed" 0 (Q.shed q)

let test_queue_callbacks () =
  let admits = ref [] and serves = ref [] and sheds = ref 0 in
  let q =
    Q.create ~cap:2 ~arr:Fun.id
      ~on_admit:(fun d -> admits := d :: !admits)
      ~on_serve:(fun d -> serves := d :: !serves)
      ~on_shed:(fun _ -> incr sheds)
      [| 0; 0; 0 |]
  in
  ignore (Q.poll q ~now:0);
  Alcotest.(check (list int)) "admit depths" [ 1; 2 ] (List.rev !admits);
  Alcotest.(check (list int)) "serve depths" [ 1 ] (List.rev !serves);
  Alcotest.(check int) "sheds" 1 !sheds

(* {1 KV linearizability: small histories vs a functional set spec} *)

module Kv_spec = struct
  type state = int list (* the set, unordered *)

  type op = Service.Kv.op

  type res = R of bool

  let init = []

  let apply st : op -> state * res = function
    | Service.Kv.Get k -> (st, R (List.mem k st))
    | Service.Kv.Put k ->
        if List.mem k st then (st, R false) else (k :: st, R true)
    | Service.Kv.Remove k ->
        if List.mem k st then (List.filter (( <> ) k) st, R true)
        else (st, R false)
end

let kv_history ~scheme seed =
  let config = Config.small in
  let mem = Memory.create config in
  let kv =
    Service.Kv.create ~scheme mem ~procs:3 ~buckets:4 ~keyspace:8 ~prefill:0
      ~seed
  in
  let rec_ = Lincheck.recorder () in
  let r =
    Sim.run ~policy:(Sim.Chaos { pause_prob = 0.05; pause_steps = 120 })
      ~seed ~config ~procs:3 (fun pid ->
        let rng = Proc.rng () in
        for _ = 1 to 5 do
          let k = Rng.int rng 8 in
          let op =
            match Rng.int rng 3 with
            | 0 -> Service.Kv.Get k
            | 1 -> Service.Kv.Put k
            | _ -> Service.Kv.Remove k
          in
          ignore
            (Lincheck.record rec_ op (fun () ->
                 Kv_spec.R (Service.Kv.exec kv ~pid op)))
        done)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  Lincheck.events rec_

let test_kv_linearizable () =
  List.iter
    (fun scheme ->
      for seed = 1 to 6 do
        Alcotest.(check bool)
          (Printf.sprintf "%s history linearizable (seed %d)" scheme seed)
          true
          (Lincheck.check (module Kv_spec) (kv_history ~scheme seed))
      done)
    [ "EBR"; "DRC"; "DRC (+snap)" ]

let test_kv_prefill () =
  let mem = Memory.create Config.small in
  let kv =
    Service.Kv.create ~scheme:"DRC" mem ~procs:1 ~buckets:8 ~keyspace:32
      ~prefill:10 ~seed:3
  in
  Alcotest.(check int) "prefill size" 10
    (List.length (Service.Kv.keys kv));
  Alcotest.(check bool) "unknown scheme rejected" true
    (try
       ignore
         (Service.Kv.create ~scheme:"nope" mem ~procs:1 ~buckets:8
            ~keyspace:32 ~prefill:0 ~seed:3);
       false
     with Invalid_argument _ -> true)

(* {1 Bench cells: determinism and identity across execution modes} *)

let small_params ?(scheme = "DRC (+snap)") ?(rate = 60)
    ?(arrival = L.Poisson) ?(queue_cap = 8) () =
  {
    B.scheme;
    rate;
    duration = 3_000;
    arrival;
    key_dist = L.Zipfian 0.9;
    mix = L.default_mix;
    clients = 8;
    workers = 4;
    keyspace = 128;
    buckets = 64;
    prefill = 64;
    queue_cap;
    slo = 2_000;
  }

let test_cell_accounting () =
  let r = B.run ~seed:5 (small_params ()) in
  Alcotest.(check bool) "offered > 0" true (r.Service.Slo.offered > 0);
  Alcotest.(check int) "completed + shed = offered" r.Service.Slo.offered
    (r.Service.Slo.completed + r.Service.Slo.shed);
  Alcotest.(check int) "latency histogram covers completions"
    r.Service.Slo.completed
    (Stats.Histogram.count r.Service.Slo.latency);
  Alcotest.(check bool) "ok <= completed" true
    (r.Service.Slo.ok <= r.Service.Slo.completed)

let test_cell_determinism () =
  let p = small_params () in
  Alcotest.(check bool) "identical reruns" true
    (B.run ~seed:5 p = B.run ~seed:5 p)

let test_cell_fastpath_identity () =
  let p = small_params () in
  Alcotest.(check bool) "fastpath on = off" true
    (B.run ~fastpath:false ~seed:5 p = B.run ~fastpath:true ~seed:5 p)

let test_cell_overload_sheds () =
  (* A tiny inbox under heavy load must shed, and shed_rate reflects
     it. *)
  let r = B.run ~seed:5 (small_params ~rate:400 ~queue_cap:2 ()) in
  Alcotest.(check bool) "sheds under overload" true (r.Service.Slo.shed > 0);
  Alcotest.(check bool) "shed rate in (0,1)" true
    (Service.Slo.shed_rate r > 0.0 && Service.Slo.shed_rate r < 1.0)

let test_closed_loop_no_queueing () =
  let r =
    B.run ~seed:5 (small_params ~arrival:(L.Closed { think = 20 }) ())
  in
  Alcotest.(check int) "nothing shed" 0 r.Service.Slo.shed;
  (* Closed-loop queueing delay is identically zero by construction. *)
  Alcotest.(check int) "no queueing delay" 0
    (Stats.Histogram.max_sample r.Service.Slo.queueing)

let test_pool_identity () =
  (* The acceptance bar: the whole (rate x scheme) grid, bit-identical
     between a sequential pool and a 4-domain pool. *)
  let grid pool =
    Domain_pool.map_grid pool ~rows:[ 30; 120 ]
      ~cols:[ "EBR"; "DRC"; "DRC (+snap)" ]
      (fun rate scheme -> B.run ~seed:7 (small_params ~scheme ~rate ()))
  in
  let seq = Domain_pool.with_pool ~jobs:1 grid in
  let par = Domain_pool.with_pool ~jobs:4 grid in
  Alcotest.(check bool) "jobs=1 = jobs=4" true (seq = par)

let test_sanitized_cell_clean () =
  (* Default sanitizer modes must neither report nor perturb. *)
  let p = small_params () in
  let config = { Config.default with sanitize = Sanitizer.default_on } in
  Alcotest.(check bool) "sanitized = plain" true
    (B.run ~config ~seed:5 p = B.run ~seed:5 p)

let test_registry_has_serve () =
  Alcotest.(check bool) "registry has serve" true
    (List.exists
       (fun e -> e.Workload.Registry.id = "serve")
       Workload.Registry.all)

let suite =
  [
    Alcotest.test_case "generate deterministic" `Quick
      test_generate_deterministic;
    Alcotest.test_case "generate sorted in window" `Quick
      test_generate_sorted_in_window;
    Alcotest.test_case "fixed rate exact" `Quick test_fixed_rate_exact;
    Alcotest.test_case "bursty off-windows" `Quick
      test_bursty_respects_off_windows;
    Alcotest.test_case "shard partitions" `Quick test_shard_partitions;
    Alcotest.test_case "generate rejects bad args" `Quick
      test_generate_rejects_bad_args;
    Alcotest.test_case "queue fifo" `Quick test_queue_fifo;
    Alcotest.test_case "queue sheds on overflow" `Quick
      test_queue_sheds_on_overflow;
    Alcotest.test_case "queue frees capacity" `Quick test_queue_frees_capacity;
    Alcotest.test_case "queue callbacks" `Quick test_queue_callbacks;
    Alcotest.test_case "kv linearizable" `Quick test_kv_linearizable;
    Alcotest.test_case "kv prefill" `Quick test_kv_prefill;
    Alcotest.test_case "cell accounting" `Quick test_cell_accounting;
    Alcotest.test_case "cell determinism" `Quick test_cell_determinism;
    Alcotest.test_case "cell fastpath identity" `Quick
      test_cell_fastpath_identity;
    Alcotest.test_case "cell overload sheds" `Quick test_cell_overload_sheds;
    Alcotest.test_case "closed loop no queueing" `Quick
      test_closed_loop_no_queueing;
    Alcotest.test_case "pool identity" `Quick test_pool_identity;
    Alcotest.test_case "sanitized cell clean" `Quick test_sanitized_cell_clean;
    Alcotest.test_case "registry has serve" `Quick test_registry_has_serve;
  ]
