(* Natarajan–Mittal tree specifics: sentinel discipline, the
   deletion-chain races (two deletes under one parent — the retire-walk
   trap of §8/Fig. 2), helping, and set linearizability on small
   histories. *)

open Simcore
module ISet = Set.Make (Int)

let config = { Config.small with max_steps = 300_000_000 }

(* A tree from the catalogue, with small retire batches so the short
   runs reclaim. *)
let create scheme mem ~procs : Cds.Set_catalogue.instance =
  Cds.Set_catalogue.(create_batched ~batch:8 Bst_set) scheme mem ~procs
    ~buckets:0

let drc = "DRC (+snap)"

let test_empty_tree () =
  let mem = Memory.create config in
  let t = create drc mem ~procs:1 in
  Alcotest.(check bool) "contains on empty" false (t.contains (-1) 5);
  Alcotest.(check bool) "delete on empty" false (t.delete (-1) 5);
  Alcotest.(check (list int)) "empty to_list" [] (t.to_list ())

let test_insert_delete_reinsert () =
  let mem = Memory.create config in
  let t = create drc mem ~procs:1 in
  Alcotest.(check bool) "insert" true (t.insert (-1) 5);
  Alcotest.(check bool) "duplicate insert" false (t.insert (-1) 5);
  Alcotest.(check bool) "delete" true (t.delete (-1) 5);
  Alcotest.(check bool) "gone" false (t.contains (-1) 5);
  Alcotest.(check bool) "reinsert" true (t.insert (-1) 5);
  Alcotest.(check bool) "back" true (t.contains (-1) 5);
  Alcotest.(check bool) "delete last key" true (t.delete (-1) 5);
  Alcotest.(check (list int)) "empty again" [] (t.to_list ());
  t.flush ();
  Alcotest.(check int) "no nodes beyond skeleton" 0 (t.extra_nodes ())

let test_ascending_descending () =
  (* External trees have no rebalancing; sorted insertions build a
     degenerate spine that must still behave. *)
  let mem = Memory.create config in
  let t = create drc mem ~procs:1 in
  for k = 0 to 63 do
    ignore (t.insert (-1) k)
  done;
  for k = 63 downto 32 do
    Alcotest.(check bool) "delete from spine" true (t.delete (-1) k)
  done;
  Alcotest.(check (list int)) "survivors" (List.init 32 Fun.id)
    (t.to_list ())

(* Two deletes of sibling leaves under the same parent, driven to
   overlap: this is exactly the case where the retire-walk must pick the
   removed leaf by address, not by flag (see Bst_smr.cleanup). *)
let sibling_delete_race scheme seeds () =
  List.iter
    (fun seed ->
      let mem = Memory.create config in
      let t = create scheme mem ~procs:2 in
      (* Keys 10 and 11 end up as the two leaves of one parent. *)
      ignore (t.insert (-1) 10);
      ignore (t.insert (-1) 11);
      let r =
        Sim.run ~policy:Sim.Uniform ~seed ~config ~procs:2 (fun pid ->
            ignore (t.delete pid (10 + pid)))
      in
      Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
      Alcotest.(check (list int)) "both deleted" [] (t.to_list ());
      t.flush ();
      Alcotest.(check int) "no leak" 0 (t.extra_nodes ()))
    seeds

let test_concurrent_mixed_vs_model scheme seed () =
  let mem = Memory.create config in
  let t = create scheme mem ~procs:4 in
  let model = ref ISet.empty in
  for k = 0 to 31 do
    if k mod 3 = 0 then begin
      ignore (t.insert (-1) k);
      model := ISet.add k !model
    end
  done;
  let ins = Array.make 4 [] and del = Array.make 4 [] in
  let r =
    Sim.run ~policy:(Sim.Chaos { pause_prob = 0.01; pause_steps = 400 }) ~seed
      ~config ~procs:4 (fun pid ->
        let rng = Proc.rng () in
        for _ = 1 to 150 do
          let k = Rng.int rng 32 in
          if Rng.bool rng then begin
            if t.insert pid k then ins.(pid) <- k :: ins.(pid)
          end
          else if t.delete pid k then del.(pid) <- k :: del.(pid)
        done)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  (* Successful inserts minus successful deletes per key must equal the
     final membership delta. *)
  for k = 0 to 31 do
    let count l = List.length (List.filter (( = ) k) l) in
    let ins_k = Array.fold_left (fun a l -> a + count l) 0 ins in
    let del_k = Array.fold_left (fun a l -> a + count l) 0 del in
    let was = if ISet.mem k !model then 1 else 0 in
    let now = if List.mem k (t.to_list ()) then 1 else 0 in
    Alcotest.(check int)
      (Printf.sprintf "key %d flux" k)
      (now - was) (ins_k - del_k)
  done;
  t.flush ();
  Alcotest.(check int) "no leak" 0 (t.extra_nodes ())

(* Set linearizability on small histories via the checker. *)
module Set_spec = struct
  type state = ISet.t

  type op = Ins of int | Del of int | Mem of int

  type res = bool

  let init = ISet.empty

  let apply st = function
    | Ins k -> (ISet.add k st, not (ISet.mem k st))
    | Del k -> (ISet.remove k st, ISet.mem k st)
    | Mem k -> (st, ISet.mem k st)
end

let test_bst_linearizable () =
  for seed = 1 to 10 do
    let mem = Memory.create config in
    let t = create drc mem ~procs:3 in
    let rec_ = Lincheck.recorder () in
    let r =
      Sim.run ~policy:(Sim.Chaos { pause_prob = 0.05; pause_steps = 150 })
        ~seed ~config ~procs:3 (fun pid ->
          let rng = Proc.rng () in
          for _ = 1 to 5 do
            let k = Rng.int rng 4 in
            match Rng.int rng 3 with
            | 0 ->
                ignore
                  (Lincheck.record rec_ (Set_spec.Ins k) (fun () ->
                       t.insert pid k))
            | 1 ->
                ignore
                  (Lincheck.record rec_ (Set_spec.Del k) (fun () ->
                       t.delete pid k))
            | _ ->
                ignore
                  (Lincheck.record rec_ (Set_spec.Mem k) (fun () ->
                       t.contains pid k))
          done)
    in
    Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
    Alcotest.(check bool)
      (Printf.sprintf "bst history linearizable (seed %d)" seed)
      true
      (Lincheck.check (module Set_spec) (Lincheck.events rec_))
  done

let suite =
  [
    Alcotest.test_case "empty tree" `Quick test_empty_tree;
    Alcotest.test_case "insert/delete/reinsert" `Quick
      test_insert_delete_reinsert;
    Alcotest.test_case "degenerate spine" `Quick test_ascending_descending;
    Alcotest.test_case "sibling delete race (hp)" `Quick
      (sibling_delete_race "HP" (List.init 20 (fun i -> i + 1)));
    Alcotest.test_case "sibling delete race (ebr)" `Quick
      (sibling_delete_race "EBR" (List.init 20 (fun i -> i + 1)));
    Alcotest.test_case "sibling delete race (drc)" `Quick
      (sibling_delete_race drc (List.init 20 (fun i -> i + 1)));
    Alcotest.test_case "mixed vs model (hp)" `Quick
      (test_concurrent_mixed_vs_model "HP" 51);
    Alcotest.test_case "mixed vs model (drc)" `Quick
      (test_concurrent_mixed_vs_model drc 52);
    Alcotest.test_case "small histories linearizable" `Quick
      test_bst_linearizable;
  ]
