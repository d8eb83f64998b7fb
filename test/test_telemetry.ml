(* The telemetry registry: per-process counter shards, gauge high-water
   marks, histogram shards, snapshot key naming, and the global
   collection behind [repro --stats]. *)

open Simcore
module Tele = Telemetry

let test_counter_sharding () =
  let t = Tele.create () in
  let c = Tele.counter t "ops" in
  Tele.incr c;
  (* outside a simulation: the setup shard, pid -1 *)
  let _ =
    Sim.run ~config:Config.small ~procs:3 (fun pid ->
        for _ = 1 to pid + 1 do
          Tele.incr c;
          Proc.pay 1
        done)
  in
  Alcotest.(check int) "setup shard" 1 (Tele.shard c ~pid:(-1));
  Alcotest.(check int) "pid 0 shard" 1 (Tele.shard c ~pid:0);
  Alcotest.(check int) "pid 1 shard" 2 (Tele.shard c ~pid:1);
  Alcotest.(check int) "pid 2 shard" 3 (Tele.shard c ~pid:2);
  Alcotest.(check int) "total sums shards" 7 (Tele.total c);
  Alcotest.(check int) "untouched shard" 0 (Tele.shard c ~pid:9)

let test_registration_idempotent () =
  let t = Tele.create () in
  Tele.add (Tele.counter t "x") 5;
  Tele.incr (Tele.counter t "x");
  Alcotest.(check int) "same probe under one name" 6
    (Tele.total (Tele.counter t "x"));
  Tele.set_gauge (Tele.gauge t "g") 3;
  Alcotest.(check int) "gauge rebinding sees state" 3
    (Tele.gauge_peak (Tele.gauge t "g"))

let test_shard_growth () =
  (* More processes than the preallocated shard array: growth is
     deterministic and loses nothing. *)
  let t = Tele.create () in
  let c = Tele.counter t "wide" in
  let procs = 300 in
  let _ =
    Sim.run ~config:Config.small ~procs (fun _ ->
        Tele.incr c;
        Proc.pay 1)
  in
  Alcotest.(check int) "every pid counted" procs (Tele.total c);
  Alcotest.(check int) "last shard intact" 1 (Tele.shard c ~pid:(procs - 1))

let test_gauge_peak () =
  let t = Tele.create () in
  let g = Tele.gauge t "level" in
  Tele.set_gauge g 4;
  Tele.set_gauge g 9;
  Tele.set_gauge g 2;
  Alcotest.(check int) "cur follows last set" 2 (Tele.gauge_value g);
  Alcotest.(check int) "peak is high water" 9 (Tele.gauge_peak g);
  Tele.add_gauge g 10;
  Alcotest.(check int) "delta cur" 12 (Tele.gauge_value g);
  Alcotest.(check int) "delta peak" 12 (Tele.gauge_peak g);
  Tele.add_gauge g (-5);
  Alcotest.(check int) "negative delta" 7 (Tele.gauge_value g);
  Alcotest.(check int) "peak sticks" 12 (Tele.gauge_peak g)

let test_hist_shards () =
  let t = Tele.create () in
  let h = Tele.hist t "lat" in
  Tele.observe h 100;
  (* setup shard *)
  let _ =
    Sim.run ~config:Config.small ~procs:2 (fun pid ->
        Tele.observe h (10 * (pid + 1));
        Proc.pay 1)
  in
  let m = Tele.merged h in
  Alcotest.(check int) "merged count" 3 (Stats.Histogram.count m);
  Alcotest.(check int) "merged max" 100 (Stats.Histogram.max_sample m)

let test_snapshot_keys () =
  let t = Tele.create () in
  Tele.add (Tele.counter t "c") 3;
  Tele.set_gauge (Tele.gauge t "g") 5;
  Tele.set_gauge (Tele.gauge t "g") 2;
  Tele.observe (Tele.hist t "h") 7;
  let snap = Tele.snapshot t in
  Alcotest.(check (list string)) "sorted key naming"
    [ "c"; "g/cur"; "g/peak"; "h/max"; "h/n"; "h/p50"; "h/p99" ]
    (List.map fst snap);
  Alcotest.(check int) "counter value" 3 (List.assoc "c" snap);
  Alcotest.(check int) "gauge cur" 2 (List.assoc "g/cur" snap);
  Alcotest.(check int) "gauge peak" 5 (List.assoc "g/peak" snap);
  Alcotest.(check int) "hist n" 1 (List.assoc "h/n" snap);
  Alcotest.(check int) "hist max" 7 (List.assoc "h/max" snap)

let test_reset () =
  let t = Tele.create () in
  Tele.add (Tele.counter t "c") 3;
  Tele.set_gauge (Tele.gauge t "g") 5;
  Tele.observe (Tele.hist t "h") 7;
  Tele.reset t;
  Alcotest.(check int) "counter cleared" 0 (Tele.total (Tele.counter t "c"));
  Alcotest.(check int) "gauge peak cleared" 0 (Tele.gauge_peak (Tele.gauge t "g"));
  Alcotest.(check int) "hist cleared" 0
    (Stats.Histogram.count (Tele.merged (Tele.hist t "h")))

let test_merged_recent () =
  Tele.mark ();
  let a = Tele.create () in
  let b = Tele.create () in
  Tele.add (Tele.counter a "ops") 3;
  Tele.add (Tele.counter b "ops") 4;
  Tele.set_gauge (Tele.gauge a "lvl") 10;
  Tele.set_gauge (Tele.gauge a "lvl") 0;
  Tele.set_gauge (Tele.gauge b "lvl") 6;
  Alcotest.(check int) "two registries since mark" 2
    (List.length (Tele.recent ()));
  let m = Tele.merged_recent () in
  Alcotest.(check int) "counters sum" 7 (List.assoc "ops" m);
  Alcotest.(check int) "gauge curs sum" 6 (List.assoc "lvl/cur" m);
  Alcotest.(check int) "gauge peaks max" 10 (List.assoc "lvl/peak" m);
  Tele.mark ();
  Alcotest.(check (list (pair string int))) "mark forgets" []
    (Tele.merged_recent ())

(* Registries are collected only between [mark] and the read that
   closes the collection: a heap made outside one is not kept. *)
let test_collection_window () =
  let kept mem =
    List.exists (fun r -> r == Memory.telemetry mem) (Tele.recent ())
  in
  ignore (Tele.recent ());
  let outside = Memory.create Config.small in
  Alcotest.(check bool) "heap outside a collection not kept" false
    (kept outside);
  Tele.mark ();
  let inside = Memory.create Config.small in
  Alcotest.(check bool) "heap inside a collection kept" true (kept inside);
  let after = Memory.create Config.small in
  Alcotest.(check bool) "the read closed the collection" false (kept after)

(* The heap's built-in probes: one allocate/free round trip shows up in
   the counters, the per-tag probes, and the live gauges. *)
let test_memory_probes () =
  let mem = Memory.create Config.small in
  let a = Memory.alloc mem ~tag:"box" ~size:2 in
  Memory.free mem a; (* lint: allow-free *)
  let snap = Tele.snapshot (Memory.telemetry mem) in
  Alcotest.(check int) "fresh alloc counted" 1
    (List.assoc "mem.alloc.fresh" snap);
  Alcotest.(check int) "free counted" 1 (List.assoc "mem.free" snap);
  Alcotest.(check bool) "per-tag alloc probe" true
    (List.mem_assoc "mem.alloc[box]" snap);
  Alcotest.(check int) "live gauge back to zero" 0
    (List.assoc "mem.live_blocks/cur" snap);
  Alcotest.(check bool) "live peak saw the block" true
    (List.assoc "mem.live_blocks/peak" snap >= 1)

let suite =
  [
    Alcotest.test_case "counter sharding" `Quick test_counter_sharding;
    Alcotest.test_case "registration idempotent" `Quick
      test_registration_idempotent;
    Alcotest.test_case "shard growth past preallocation" `Quick
      test_shard_growth;
    Alcotest.test_case "gauge high water" `Quick test_gauge_peak;
    Alcotest.test_case "histogram shards merge" `Quick test_hist_shards;
    Alcotest.test_case "snapshot key naming" `Quick test_snapshot_keys;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "mark/recent/merged_recent" `Quick test_merged_recent;
    Alcotest.test_case "no registry kept outside a collection" `Quick
      test_collection_window;
    Alcotest.test_case "memory heap probes" `Quick test_memory_probes;
  ]
