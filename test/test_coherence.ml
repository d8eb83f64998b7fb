(* The cache-coherence cost model: the asymmetries the benchmarks rely
   on must actually hold. *)

open Simcore

let cost = Config.default_cost

let fresh () = Memcore.create cost

let test_read_hit_vs_miss () =
  let c = fresh () in
  (* First read: shared hit. *)
  Alcotest.(check int) "cold read" cost.c_hit (Memcore.cost_read c ~pid:0 ~addr:64);
  (* Re-read of same line by same pid: L1. *)
  Alcotest.(check int) "L1 streak" cost.c_l1 (Memcore.cost_read c ~pid:0 ~addr:65)

let test_exclusive_transfer () =
  let c = fresh () in
  ignore (Memcore.cost_write c ~pid:0 ~addr:64);
  (* Other core reads a line held exclusively: full miss. *)
  Alcotest.(check int) "read of exclusive line" cost.c_read_miss
    (Memcore.cost_read c ~pid:1 ~addr:64);
  (* Now demoted to shared: owner's next write must re-acquire. *)
  Alcotest.(check int) "write after demotion" cost.c_rmw_transfer
    (Memcore.cost_write c ~pid:0 ~addr:64)

let test_owned_rmw_cheap () =
  let c = fresh () in
  ignore (Memcore.cost_write c ~pid:2 ~addr:128);
  Alcotest.(check int) "owned rmw" cost.c_rmw_owned
    (Memcore.cost_write c ~pid:2 ~addr:128)

let test_contended_faa_expensive () =
  let c = fresh () in
  (* Alternating writers always pay the transfer price. *)
  for i = 0 to 9 do
    Alcotest.(check int) "alternating writers transfer" cost.c_rmw_transfer
      (Memcore.cost_write c ~pid:(i mod 2) ~addr:256)
  done

let test_write_invalidates_l1 () =
  let c = fresh () in
  ignore (Memcore.cost_read c ~pid:0 ~addr:64);
  ignore (Memcore.cost_read c ~pid:0 ~addr:65);
  (* Another core writes the line: our cached copy is stale. *)
  ignore (Memcore.cost_write c ~pid:1 ~addr:64);
  Alcotest.(check int) "invalidated re-read" cost.c_read_miss
    (Memcore.cost_read c ~pid:0 ~addr:66)

let test_own_write_keeps_l1 () =
  let c = fresh () in
  ignore (Memcore.cost_write c ~pid:3 ~addr:512);
  Alcotest.(check int) "read own written line" cost.c_l1
    (Memcore.cost_read c ~pid:3 ~addr:513)

let test_single_writer_announcement_pattern () =
  (* The paper's asymmetry (§5.2): a process writing its own slot stays
     cheap even while others occasionally scan it. *)
  let c = fresh () in
  ignore (Memcore.cost_write c ~pid:0 ~addr:1024);
  let own = Memcore.cost_write c ~pid:0 ~addr:1024 in
  Alcotest.(check int) "repeat announce is owned" cost.c_rmw_owned own;
  ignore (Memcore.cost_read c ~pid:1 ~addr:1024);
  let after_scan = Memcore.cost_write c ~pid:0 ~addr:1024 in
  Alcotest.(check int) "announce after scan pays once" cost.c_rmw_transfer
    after_scan;
  Alcotest.(check int) "then owned again" cost.c_rmw_owned
    (Memcore.cost_write c ~pid:0 ~addr:1024)

let suite =
  [
    Alcotest.test_case "read hit vs L1" `Quick test_read_hit_vs_miss;
    Alcotest.test_case "exclusive transfer" `Quick test_exclusive_transfer;
    Alcotest.test_case "owned rmw cheap" `Quick test_owned_rmw_cheap;
    Alcotest.test_case "contended faa expensive" `Quick
      test_contended_faa_expensive;
    Alcotest.test_case "write invalidates L1" `Quick test_write_invalidates_l1;
    Alcotest.test_case "own write keeps L1" `Quick test_own_write_keeps_l1;
    Alcotest.test_case "announcement pattern" `Quick
      test_single_writer_announcement_pattern;
  ]
