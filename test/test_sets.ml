(* The §7.2 data structures over every reclamation scheme: sequential
   oracle equivalence, concurrent set-semantics invariants under chaotic
   scheduling, operation-count consistency, and exact reclamation. *)

open Simcore
module ISet = Set.Make (Int)
module Sets = Cds.Set_catalogue

let config = { Config.small with max_steps = 400_000_000 }

(* Small retire batches, so every scheme scans often in these short
   runs. *)
let create structure scheme mem ~procs =
  Sets.create_batched ~batch:16 structure scheme mem ~procs ~buckets:8

(* Case names: "drc" is the snapshot flavour, "drc-plain" the other. *)
let slug = function
  | "No MM" -> "nomm"
  | "DEBRA+" -> "debra-plus"
  | "DRC" -> "drc-plain"
  | "DRC (+snap)" -> "drc"
  | scheme -> String.lowercase_ascii scheme

let structure_name = function
  | Sets.List_set -> "list"
  | Hash_set -> "hash"
  | Bst_set -> "bst"

(* Every (structure, scheme) pair of the catalogue. *)
let instances ~procs =
  List.concat_map
    (fun structure ->
      List.map
        (fun scheme ->
          ( structure_name structure ^ "-" ^ slug scheme,
            create structure scheme ~procs ))
        Sets.schemes)
    Sets.structures

(* Sequential: every structure behaves exactly like Set.Make(Int). *)
let sequential_oracle (mk : Memory.t -> Sets.instance) seed =
  let mem = Memory.create config in
  let t = mk mem in
  let model = ref ISet.empty in
  let rng = Rng.create ~seed in
  for _ = 1 to 1500 do
    let k = Rng.int rng 40 in
    match Rng.int rng 3 with
    | 0 ->
        let expect = not (ISet.mem k !model) in
        model := ISet.add k !model;
        Alcotest.(check bool) "insert result" expect (t.insert (-1) k)
    | 1 ->
        let expect = ISet.mem k !model in
        model := ISet.remove k !model;
        Alcotest.(check bool) "delete result" expect (t.delete (-1) k)
    | _ ->
        Alcotest.(check bool) "contains result" (ISet.mem k !model)
          (t.contains (-1) k)
  done;
  Alcotest.(check (list int)) "final contents" (ISet.elements !model)
    (t.to_list ())

(* Concurrent: operation results must be consistent with the final set
   (counting successful inserts/deletes), the structure must be a valid
   sorted set, and teardown must reclaim every removed node. DEBRA+
   neutralizes a process it finds stalled, which aborts that process's
   operation in flight: the driver catches the abort, as the scheme
   requires, and counts the operation as one that may or may not have
   taken effect. *)
let concurrent_invariants (mk : Memory.t -> Sets.instance) seed =
  let procs = 6 in
  let mem = Memory.create config in
  let t = mk mem in
  for k = 0 to 47 do
    if k mod 2 = 0 then ignore (t.insert (-1) k)
  done;
  let ins_ok = Array.make procs 0 and del_ok = Array.make procs 0 in
  let ins_cut = Array.make procs 0 and del_cut = Array.make procs 0 in
  let bump a pid = a.(pid) <- a.(pid) + 1 in
  let r =
    Sim.run ~policy:(Sim.Chaos { pause_prob = 0.004; pause_steps = 1200 })
      ~seed ~config ~procs (fun pid ->
        Proc.on_signal ignore;
        let rng = Proc.rng () in
        for _ = 1 to 350 do
          let k = Rng.int rng 48 in
          match Rng.int rng 8 with
          | 0 | 1 | 2 -> (
              match t.insert pid k with
              | true -> bump ins_ok pid
              | false -> ()
              | exception Proc.Interrupted -> bump ins_cut pid)
          | 3 | 4 | 5 -> (
              match t.delete pid k with
              | true -> bump del_ok pid
              | false -> ()
              | exception Proc.Interrupted -> bump del_cut pid)
          | _ -> ( try ignore (t.contains pid k) with Proc.Interrupted -> ())
        done)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  let l = t.to_list () in
  Alcotest.(check (list int)) "sorted unique" (List.sort_uniq compare l) l;
  let sum = Array.fold_left ( + ) 0 in
  let size = 24 + sum ins_ok - sum del_ok and n = List.length l in
  if n < size - sum del_cut || n > size + sum ins_cut then
    Alcotest.failf "size %d, successful ops give %d (%d inserts and %d \
                    deletes aborted)" n size (sum ins_cut) (sum del_cut);
  t.flush ();
  Alcotest.(check int) "exact reclamation" 0 (t.extra_nodes ())

let suite =
  List.concat_map
    (fun (name, mk) ->
      [
        Alcotest.test_case (name ^ ": sequential oracle") `Quick (fun () ->
            sequential_oracle mk 5);
        Alcotest.test_case (name ^ ": concurrent invariants") `Quick (fun () ->
            concurrent_invariants mk 77);
      ])
    (instances ~procs:6)
  @ [
      (* The leaky baseline still satisfies set semantics; only its
         memory accounting differs (reclaimed lazily by flush). *)
      Alcotest.test_case "nomm: leaks until flush" `Quick (fun () ->
          let mem = Memory.create config in
          let t = create Sets.List_set "No MM" mem ~procs:2 in
          for k = 0 to 9 do
            ignore (t.insert (-1) k)
          done;
          for k = 0 to 9 do
            ignore (t.delete (-1) k)
          done;
          Alcotest.(check int) "10 unreclaimed" 10 (t.extra_nodes ());
          t.flush ();
          Alcotest.(check int) "flush reclaims" 0 (t.extra_nodes ()));
    ]
