(* One generic battery applied to every reference-counting scheme of
   the catalogue: sequential count bookkeeping against a model, concurrent
   stack conservation under chaos, and exact reclamation at teardown. *)

open Simcore

let small = Config.small

(* Case names by catalogue scheme. *)
let slug = function
  | "GNU C++" -> "locked"
  | "just::thread" -> "dwcas"
  | "Folly" -> "split"
  | "Herlihy (opt)" -> "herlihy-opt"
  | "DRC (+snap)" -> "drc-snap"
  | "DRC (wait-free)" -> "drc-waitfree"
  | name -> String.lowercase_ascii name

(* Sequential model check: random loads/stores/cas over a few cells;
   the model tracks which object each cell holds and which references
   are owned. Value fields must agree throughout; dropping everything
   must reclaim every object. *)
let sequential_model (module R : Rc_baselines.Rc_intf.S) seed =
  let mem = Memory.create small in
  let n_cells = 4 in
  let t = R.create mem ~procs:1 in
  let cls = R.register_class t ~tag:"obj" ~fields:1 ~ref_fields:[] in
  let cells = Array.init n_cells (fun _ -> Memory.alloc mem ~tag:"cell" ~size:1) in
  let model = Array.make n_cells None in
  let owned : (int * int) list ref = ref [] in
  let rng = Rng.create ~seed in
  let fail = ref None in
  let r =
    Sim.run ~config:small ~procs:1 (fun _ ->
        let h = R.handle t 0 in
        (try
           for _ = 1 to 400 do
             let i = Rng.int rng n_cells in
             match Rng.int rng 4 with
             | 0 ->
                 let v = Rng.int rng 10_000 in
                 R.store h cells.(i) (R.make h cls [| v |]);
                 model.(i) <- Some v
             | 1 -> (
                 let w = R.load h cells.(i) in
                 match (model.(i), Word.is_null w) with
                 | None, true -> ()
                 | Some v, false ->
                     let got = Memory.read mem (R.field_addr w 0) in
                     if got <> v then
                       fail := Some (Printf.sprintf "load saw %d, expected %d" got v);
                     owned := (i, w) :: !owned
                 | None, false -> fail := Some "load from empty cell non-null"
                 | Some _, true -> fail := Some "load from full cell null")
             | 2 -> (
                 match !owned with
                 | (_, w) :: rest ->
                     R.destruct h w;
                     owned := rest
                 | [] -> ())
             | _ ->
                 let v = Rng.int rng 10_000 in
                 let d = R.make h cls [| v |] in
                 let expected = R.peek_ref h cells.(i) in
                 if R.cas_move h cells.(i) ~expected ~desired:d then
                   model.(i) <- Some v
                 else R.destruct h d
           done;
           (* Drop everything. *)
           List.iter (fun (_, w) -> R.destruct h w) !owned;
           Array.iter (fun c -> R.store h c Word.null) cells
         with e -> fail := Some (Printexc.to_string e)))
  in
  (match !fail with Some msg -> Alcotest.fail msg | None -> ());
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  R.flush t;
  Alcotest.(check int) "exact reclamation" 0 (Memory.live_with_tag mem "obj")

(* Concurrent stack conservation (the §7.1 structure) under a chaotic
   schedule, then exact reclamation. *)
let stack_chaos (module R : Rc_baselines.Rc_intf.S) seed =
  let module S = Cds.Stack.Make (R) in
  let config = { small with max_steps = 300_000_000 } in
  let mem = Memory.create config in
  let procs = 6 in
  let t = S.create mem ~procs ~stacks:3 in
  let setup = S.handle t (-1) in
  for s = 0 to 2 do
    for v = 1 to 10 do
      S.push setup ~stack:s v
    done
  done;
  let pushed = Array.make procs 0 and popped = Array.make procs 0 in
  let r =
    Sim.run ~policy:(Sim.Chaos { pause_prob = 0.005; pause_steps = 800 })
      ~seed ~config ~procs (fun pid ->
        let h = S.handle t pid in
        let rng = Proc.rng () in
        for _ = 1 to 300 do
          let s = Rng.int rng 3 in
          match Rng.int rng 3 with
          | 0 -> (
              match S.pop h ~stack:s with
              | Some _ -> popped.(pid) <- popped.(pid) + 1
              | None -> ())
          | 1 ->
              S.push h ~stack:s (Rng.int rng 100);
              pushed.(pid) <- pushed.(pid) + 1
          | _ -> ignore (S.find h ~stack:s (Rng.int rng 12))
        done)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  let remaining =
    List.init 3 (fun s -> S.size t ~stack:s) |> List.fold_left ( + ) 0
  in
  let balance =
    30 + Array.fold_left ( + ) 0 pushed - Array.fold_left ( + ) 0 popped
  in
  Alcotest.(check int) "value conservation" balance remaining;
  S.flush t;
  Alcotest.(check int) "exact reclamation" remaining (S.live_nodes t)


(* qcheck: arbitrary operation scripts against the cell/ownership model,
   one property per scheme. The script drives loads, move-stores,
   move-CASes and destructs over four cells; the model tracks cell
   contents and owned references; teardown must reclaim exactly. *)
let prop_script (module R : Rc_baselines.Rc_intf.S) name =
  QCheck.Test.make ~count:40 ~name:(name ^ ": random script vs model")
    QCheck.(
      pair small_int
        (list_of_size Gen.(5 -- 120)
           (pair (int_range 0 3) (int_range 0 3))))
    (fun (salt, script) ->
      let mem = Memory.create small in
      let t = R.create mem ~procs:1 in
      let cls = R.register_class t ~tag:"obj" ~fields:1 ~ref_fields:[] in
      let cells = Array.init 4 (fun _ -> Memory.alloc mem ~tag:"cell" ~size:1) in
      let model = Array.make 4 None in
      let owned = ref [] in
      let ok = ref true in
      let value = ref (1 + abs salt mod 1000) in
      let r =
        Sim.run ~config:small ~procs:1 (fun _ ->
            let h = R.handle t 0 in
            List.iter
              (fun (op, i) ->
                match op with
                | 0 ->
                    incr value;
                    R.store h cells.(i) (R.make h cls [| !value |]);
                    model.(i) <- Some !value
                | 1 -> (
                    let w = R.load h cells.(i) in
                    match (model.(i), Word.is_null w) with
                    | None, true -> ()
                    | Some v, false ->
                        if Memory.read mem (R.field_addr w 0) <> v then
                          ok := false;
                        owned := w :: !owned
                    | _ -> ok := false)
                | 2 -> (
                    match !owned with
                    | w :: rest ->
                        R.destruct h w;
                        owned := rest
                    | [] -> ())
                | _ ->
                    incr value;
                    let d = R.make h cls [| !value |] in
                    let expected = R.peek_ref h cells.(i) in
                    if R.cas_move h cells.(i) ~expected ~desired:d then
                      model.(i) <- Some !value
                    else R.destruct h d)
              script;
            List.iter (fun w -> R.destruct h w) !owned;
            Array.iter (fun c -> R.store h c Word.null) cells)
      in
      !ok && r.Sim.faults = []
      &&
      (R.flush t;
       Memory.live_with_tag mem "obj" = 0))

(* A flush is quiescent only while it runs: a snapshot taken after it
   must still protect its object when the setup handle drops the last
   counted reference (OrcGC scans right there, outside any simulation),
   and the object goes at the next flush once released. *)
let snapshot_after_flush (module R : Rc_baselines.Rc_intf.S) () =
  let mem = Memory.create small in
  let t = R.create mem ~procs:2 in
  let cls = R.register_class t ~tag:"obj" ~fields:1 ~ref_fields:[] in
  let cell = Memory.alloc mem ~tag:"cell" ~size:1 in
  let h = R.handle t (-1) in
  R.store h cell (R.make h cls [| 7 |]);
  R.flush t;
  let snap = ref None in
  let run f =
    let r = Sim.run ~config:small ~procs:2 (fun pid -> if pid = 0 then f (R.handle t 0)) in
    Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults)
  in
  run (fun h0 -> snap := Some (R.get_snapshot h0 cell));
  let s = Option.get !snap in
  R.store h cell Word.null;
  Alcotest.(check bool) "snapshot still protects" true
    (Memory.block_is_live mem (Word.to_addr (R.snap_word s)));
  Alcotest.(check int) "field intact" 7
    (Memory.read mem (R.field_addr (R.snap_word s) 0));
  run (fun h0 -> R.release_snapshot h0 s);
  R.flush t;
  Alcotest.(check int) "reclaimed once released" 0
    (Memory.live_with_tag mem "obj")

let suite =
  List.concat_map
    (fun (name, m) ->
      let name = slug name in
      [
        Alcotest.test_case (name ^ ": sequential model") `Quick (fun () ->
            sequential_model m 101);
        Alcotest.test_case (name ^ ": sequential model (seed 2)") `Quick
          (fun () -> sequential_model m 202);
        Alcotest.test_case (name ^ ": stack chaos") `Quick (fun () ->
            stack_chaos m 31);
        Alcotest.test_case (name ^ ": snapshot held after a flush") `Quick
          (snapshot_after_flush m);
        QCheck_alcotest.to_alcotest (prop_script m name);
      ])
    Rc_baselines.Rc_catalogue.all
