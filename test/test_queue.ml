(* Michael–Scott queue over the reference-counting schemes: FIFO model
   equivalence, per-producer order under concurrency, conservation, and
   exact reclamation. *)

open Simcore

let config = { Config.small with max_steps = 300_000_000 }

(* Case names by catalogue scheme; this suite calls Folly "folly". *)
let slug = function "Folly" -> "folly" | name -> Test_rc_schemes.slug name

let sequential_fifo (module R : Rc_baselines.Rc_intf.S) () =
  let module Q = Cds.Queue_rc.Make (R) in
  let mem = Memory.create config in
  let q = Q.create mem ~procs:1 in
  let h = Q.handle q (-1) in
  Alcotest.(check (option int)) "empty" None (Q.dequeue h);
  List.iter (Q.enqueue h) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "contents" [ 1; 2; 3 ] (Q.to_list q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Q.dequeue h);
  Q.enqueue h 4;
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Q.dequeue h);
  Alcotest.(check (option int)) "fifo 3" (Some 3) (Q.dequeue h);
  Alcotest.(check (option int)) "fifo 4" (Some 4) (Q.dequeue h);
  Alcotest.(check (option int)) "empty again" None (Q.dequeue h);
  Q.flush q;
  Alcotest.(check int) "only dummy remains" 1 (Q.live_nodes q)

let prop_fifo_model (module R : Rc_baselines.Rc_intf.S) name =
  QCheck.Test.make ~count:60 ~name:(name ^ ": queue matches FIFO model")
    QCheck.(list (option (int_range 0 100)))
    (fun script ->
      let module Q = Cds.Queue_rc.Make (R) in
      let mem = Memory.create config in
      let q = Q.create mem ~procs:1 in
      let h = Q.handle q (-1) in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              Q.enqueue h v;
              Queue.push v model;
              true
          | None -> (
              match (Q.dequeue h, Queue.is_empty model) with
              | None, true -> true
              | Some v, false -> v = Queue.pop model
              | Some _, true | None, false -> false))
        script
      && Q.to_list q = List.of_seq (Queue.to_seq model))

(* Concurrent: 3 producers, 3 consumers. Check conservation, and that
   each producer's values are consumed in the order produced (FIFO per
   producer is implied by queue linearizability). *)
let concurrent (module R : Rc_baselines.Rc_intf.S) seed () =
  let module Q = Cds.Queue_rc.Make (R) in
  let mem = Memory.create config in
  let procs = 6 in
  let q = Q.create mem ~procs in
  let per_producer = 120 in
  (* consumed.(consumer-3).(producer) = seq numbers, newest first *)
  let consumed = Array.init 3 (fun _ -> Array.init 3 (fun _ -> ref [])) in
  let r =
    Sim.run ~policy:(Sim.Chaos { pause_prob = 0.005; pause_steps = 600 })
      ~seed ~config ~procs (fun pid ->
        let h = Q.handle q pid in
        if pid < 3 then
          for i = 0 to per_producer - 1 do
            Q.enqueue h ((pid * 1_000_000) + i)
          done
        else
          for _ = 1 to per_producer + 30 do
            match Q.dequeue h with
            | Some v ->
                let r = consumed.(pid - 3).(v / 1_000_000) in
                r := (v mod 1_000_000) :: !r
            | None -> Proc.pay 20
          done)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  (* Conservation: consumed + remaining = produced, without duplicates. *)
  let remaining = Q.to_list q in
  let consumed_n =
    Array.fold_left
      (fun acc per -> Array.fold_left (fun a r -> a + List.length !r) acc per)
      0 consumed
  in
  Alcotest.(check int) "conservation" (3 * per_producer)
    (consumed_n + List.length remaining);
  (* Each consumer's view of each producer's items preserves production
     order — the per-process projection of queue linearizability. *)
  Array.iter
    (fun per ->
      Array.iter
        (fun r ->
          let seq = List.rev !r in
          Alcotest.(check bool) "per-producer FIFO" true
            (List.sort compare seq = seq))
        per)
    consumed;
  Q.flush q;
  (* Remaining items + the dummy, plus possibly one node pinned by a
     lagging tail. *)
  let live = Q.live_nodes q in
  let lo = List.length remaining + 1 in
  Alcotest.(check bool)
    (Printf.sprintf "exact reclamation (%d live, %d remaining)" live lo)
    true
    (live = lo || live = lo + 1)

let suite =
  List.concat_map
    (fun (name, m) ->
      let name = slug name in
      [
        Alcotest.test_case (name ^ ": sequential fifo") `Quick
          (sequential_fifo m);
        Alcotest.test_case (name ^ ": concurrent") `Quick (concurrent m 41);
        QCheck_alcotest.to_alcotest (prop_fifo_model m name);
      ])
    Rc_baselines.Rc_catalogue.all
