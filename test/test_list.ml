(* Harris–Michael list specifics: marked-node handling, traversal
   cleanup, duplicate-key discipline, and cross-scheme agreement on a
   shared random schedule. *)

open Simcore

let config = { Config.small with max_steps = 300_000_000 }

(* A list from the catalogue, with small retire batches so the short
   runs reclaim. *)
let create scheme mem ~procs : Cds.Set_catalogue.instance =
  Cds.Set_catalogue.(create_batched ~batch:8 List_set) scheme mem ~procs
    ~buckets:0

let drc = "DRC (+snap)"

let test_boundaries () =
  let mem = Memory.create config in
  let t = create drc mem ~procs:1 in
  (* min_int/max_int-adjacent keys exercise comparison edges. *)
  Alcotest.(check bool) "insert big" true (t.insert (-1) (max_int / 4));
  Alcotest.(check bool) "insert negative" true (t.insert (-1) (-17));
  Alcotest.(check bool) "insert zero" true (t.insert (-1) 0);
  Alcotest.(check (list int)) "sorted" [ -17; 0; max_int / 4 ] (t.to_list ())

let test_marked_invisible () =
  (* A logically deleted node is absent from to_list even before any
     traversal physically unlinks it. *)
  let mem = Memory.create config in
  let t = create drc mem ~procs:1 in
  ignore (t.insert (-1) 1);
  ignore (t.insert (-1) 2);
  ignore (t.insert (-1) 3);
  ignore (t.delete (-1) 2);
  Alcotest.(check (list int)) "marked excluded" [ 1; 3 ] (t.to_list ());
  Alcotest.(check bool) "contains agrees" false (t.contains (-1) 2)

let test_traversal_cleans_up () =
  (* After a delete, a later traversal physically unlinks and the node
     count drops back to the live set. *)
  let mem = Memory.create config in
  let t = create "HP" mem ~procs:1 in
  for k = 0 to 9 do
    ignore (t.insert (-1) k)
  done;
  for k = 0 to 9 do
    if k mod 2 = 1 then ignore (t.delete (-1) k)
  done;
  (* Traversals to the end sweep any leftover marked nodes. *)
  ignore (t.contains (-1) 100);
  t.flush ();
  Alcotest.(check int) "unlinked nodes freed" 0 (t.extra_nodes ());
  Alcotest.(check int) "five survive" 5 (Memory.live_with_tag mem "node")

let test_interleaved_same_key () =
  (* Many processes fight over one key: the slot must always hold 0 or 1
     logical copies, never duplicates. *)
  List.iter
    (fun seed ->
      let mem = Memory.create config in
      let t = create drc mem ~procs:4 in
      let r =
        Sim.run ~policy:Sim.Uniform ~seed ~config ~procs:4 (fun pid ->
            for _ = 1 to 40 do
              if pid mod 2 = 0 then ignore (t.insert pid 7)
              else ignore (t.delete pid 7)
            done)
      in
      Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
      let l = t.to_list () in
      Alcotest.(check bool) "at most one copy" true
        (l = [] || l = [ 7 ]))
    [ 3; 4; 5; 6 ]

let test_schemes_agree () =
  (* The same deterministic schedule over HP and DRC lists must yield the
     same abstract set (their linearizations may differ, but a fully
     deterministic single-process script must not). *)
  let script =
    let rng = Rng.create ~seed:404 in
    List.init 300 (fun _ -> (Rng.int rng 3, Rng.int rng 24))
  in
  let run_script insert delete contains =
    List.map
      (fun (op, k) ->
        match op with
        | 0 -> insert k
        | 1 -> delete k
        | _ -> contains k)
      script
  in
  let run scheme =
    let t = create scheme (Memory.create config) ~procs:1 in
    (run_script (t.insert (-1)) (t.delete (-1)) (t.contains (-1)), t.to_list ())
  in
  let r1, l1 = run "HP" and r2, l2 = run drc in
  Alcotest.(check (list bool)) "result streams equal" r1 r2;
  Alcotest.(check (list int)) "final sets equal" l1 l2

let test_snapshot_budget () =
  (* The DRC list promises at most three snapshots in flight; exceeding
     the seven slots would silently fall back to counted increments, so
     traversals of long lists must leave counts untouched. *)
  let mem = Memory.create config in
  let t = create drc mem ~procs:1 in
  for k = 0 to 63 do
    ignore (t.insert (-1) k)
  done;
  (* Apply the prefill's deferred decrements so the baseline is clean. *)
  t.flush ();
  let r =
    Sim.run ~config ~procs:1 (fun _ ->
        Alcotest.(check bool) "find far key" true (t.contains 0 63))
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  (* Every node's count must be exactly 1 (its predecessor's link). *)
  let bad = ref 0 in
  Memory.iter_live mem (fun ~base ~size:_ ~tag ->
      if tag = "node" && Memory.peek mem base <> 1 then incr bad);
  Alcotest.(check int) "all counts exactly 1 after traversal" 0 !bad

let suite =
  [
    Alcotest.test_case "boundary keys" `Quick test_boundaries;
    Alcotest.test_case "marked invisible" `Quick test_marked_invisible;
    Alcotest.test_case "traversal cleans up" `Quick test_traversal_cleans_up;
    Alcotest.test_case "same-key fights" `Quick test_interleaved_same_key;
    Alcotest.test_case "schemes agree" `Quick test_schemes_agree;
    Alcotest.test_case "snapshot budget" `Quick test_snapshot_budget;
  ]
