(* Acquire-retire (§4/§6): multiset retire/eject semantics, protection,
   the Theorem 2 bound, and both acquire flavours. *)

open Simcore
module Ar = Acquire_retire.Ar

let small = Config.small

let setup ?(mode = `Lockfree) ?(procs = 4) ?(slots = 4) () =
  let mem = Memory.create small in
  let ar = Ar.create ~mode mem ~procs ~slots_per_proc:slots ~eject_work:4 in
  (mem, ar)

let mk_cell mem v =
  let c = Memory.alloc mem ~tag:"cell" ~size:1 in
  Memory.write mem c v;
  c

(* Retiring n times with nothing announced ejects n times. *)
let test_retire_then_eject_all () =
  let mem, ar = setup () in
  let h = Ar.handle ar 0 in
  let w = Word.of_addr 40 in
  ignore mem;
  Ar.retire h w;
  Ar.retire h w;
  Ar.retire h w;
  Alcotest.(check int) "delayed" 3 (Ar.delayed ar);
  let ejected = Ar.eject_all h in
  Alcotest.(check int) "all ejected" 3 (List.length ejected);
  Alcotest.(check bool) "same handle" true (List.for_all (( = ) w) ejected);
  Alcotest.(check int) "none delayed" 0 (Ar.delayed ar)

(* The multiset rule (Definition 4.1): s retires and t announcements of
   the same handle eject exactly s - t times. *)
let test_multiset_difference () =
  let mem, ar = setup () in
  let w = Word.of_addr 64 in
  let cell = mk_cell mem w in
  let h0 = Ar.handle ar 0 and h1 = Ar.handle ar 1 in
  (* Announce w twice, in two different processes' slots. *)
  let r =
    Sim.run ~config:small ~procs:2 (fun pid ->
        let h = Ar.handle ar pid in
        ignore (Ar.acquire h ~slot:0 cell))
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  Ar.retire h0 w;
  Ar.retire h0 w;
  Ar.retire h0 w;
  Alcotest.(check int) "3 - 2 announced = 1 ejected" 1
    (List.length (Ar.eject_all h0));
  (* Releasing one announcement frees one more. *)
  let _ =
    Sim.run ~config:small ~procs:1 (fun _ -> Ar.release (Ar.handle ar 0) ~slot:0)
  in
  Alcotest.(check int) "one more after release" 1
    (List.length (Ar.eject_all h0));
  let _ = Sim.run ~config:small ~procs:2 (fun pid ->
      if pid = 1 then Ar.release (Ar.handle ar 1) ~slot:0)
  in
  Alcotest.(check int) "last after final release" 1
    (List.length (Ar.eject_all h0));
  ignore h1

let test_acquire_reads_current () =
  let mem, ar = setup () in
  let cell = mk_cell mem (Word.of_addr 8) in
  let r =
    Sim.run ~config:small ~procs:1 (fun _ ->
        let h = Ar.handle ar 0 in
        Alcotest.(check int) "acquire returns stored word" (Word.of_addr 8)
          (Ar.acquire h ~slot:0 cell);
        Alcotest.(check int) "announced" (Word.of_addr 8)
          (Ar.announced h ~slot:0);
        Ar.release h ~slot:0;
        Alcotest.(check int) "released" Word.null (Ar.announced h ~slot:0))
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults)

(* Cross-process protection: an acquired handle is not ejected until the
   release, under concurrent retires. *)
let test_protection_window () =
  let mem, ar = setup ~procs:2 () in
  let target = Word.of_addr 120 in
  let cell = mk_cell mem target in
  let phase = ref 0 in
  let leaked_early = ref false in
  let r =
    Sim.run ~config:small ~procs:2 (fun pid ->
        let h = Ar.handle ar pid in
        if pid = 0 then begin
          ignore (Ar.acquire h ~slot:0 cell);
          phase := 1;
          (* Hold the protection while the other process retires. *)
          while !phase < 2 do
            Proc.pay 5
          done;
          Proc.pay 200;
          Ar.release h ~slot:0;
          phase := 3
        end
        else begin
          while !phase < 1 do
            Proc.pay 5
          done;
          Ar.retire h target;
          (* While protected, a full pass must not eject it. *)
          if Ar.eject_all h <> [] then leaked_early := true;
          phase := 2;
          while !phase < 3 do
            Proc.pay 5
          done;
          if Ar.eject_all h <> [ target ] then leaked_early := true
        end)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  Alcotest.(check bool) "protected until release" false !leaked_early

(* qcheck: for random multisets of retires and random announcement
   subsets, eject_all returns exactly the multiset difference. *)
let prop_multiset =
  QCheck.Test.make ~count:100 ~name:"eject_all = retires minus announcements"
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 8) (int_range 0 3))
        (list_of_size Gen.(0 -- 6) (int_range 0 3)))
    (fun (retires, announce) ->
      let mem, ar = setup ~procs:8 ~slots:1 () in
      let addrs = Array.init 4 (fun i -> Word.of_addr (8 * (i + 1))) in
      let cells = Array.map (fun w -> mk_cell mem w) addrs in
      (* Announce each listed index from a distinct process (max 6). *)
      let announce = List.filteri (fun i _ -> i < 6) announce in
      let r =
        Sim.run ~config:small ~procs:8 (fun pid ->
            match List.nth_opt announce pid with
            | Some idx -> ignore (Ar.acquire (Ar.handle ar pid) ~slot:0 cells.(idx))
            | None -> ())
      in
      assert (r.Sim.faults = []);
      let h = Ar.handle ar 7 in
      List.iter (fun idx -> Ar.retire h addrs.(idx)) retires;
      let ejected = Ar.eject_all h in
      let count l x = List.length (List.filter (( = ) x) l) in
      let expected idx =
        max 0 (count retires idx - count announce idx)
      in
      List.for_all
        (fun idx ->
          count ejected addrs.(idx) = expected idx)
        [ 0; 1; 2; 3 ])

(* The Theorem 2 bound under churn: delayed retires stay O(K * P). *)
let test_delayed_bound () =
  let mem, ar = setup ~procs:6 ~slots:2 () in
  let cells = Array.init 8 (fun i -> mk_cell mem (Word.of_addr (8 * (i + 1)))) in
  let max_delayed = ref 0 in
  let r =
    Sim.run ~policy:Sim.Uniform ~seed:5 ~config:small ~procs:6 (fun pid ->
        let h = Ar.handle ar pid in
        let rng = Proc.rng () in
        for _ = 1 to 400 do
          let c = cells.(Rng.int rng 8) in
          let w = Ar.acquire h ~slot:(Rng.int rng 2) c in
          Ar.retire h w;
          (match Ar.eject h with Some _ -> () | None -> ());
          if Rng.bool rng then Ar.release h ~slot:(Rng.int rng 2);
          if Ar.delayed ar > !max_delayed then max_delayed := Ar.delayed ar
        done)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  (* K = procs * slots = 12; allow the analysis constant. *)
  Alcotest.(check bool)
    (Printf.sprintf "delayed (max %d) within O(KP)" !max_delayed)
    true
    (!max_delayed <= 4 * 12 * 6)

let test_waitfree_acquire () =
  let mem, ar = setup ~mode:`Waitfree ~procs:4 () in
  let cell = mk_cell mem (Word.of_addr 16) in
  let r =
    Sim.run ~policy:(Sim.Chaos { pause_prob = 0.02; pause_steps = 100 })
      ~seed:21 ~config:small ~procs:4 (fun pid ->
        let h = Ar.handle ar pid in
        for i = 1 to 200 do
          (* Writer keeps changing the cell to force slow paths. *)
          if pid = 0 then Memory.write mem cell (Word.of_addr (8 * (1 + (i mod 4))))
          else begin
            let w = Ar.acquire h ~slot:0 cell in
            Alcotest.(check bool) "acquired a valid word" true
              (Word.to_addr w >= 8 && Word.to_addr w <= 32);
            Ar.release h ~slot:0
          end
        done)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults)


(* Regression: an eject pass interrupted mid-run holds a stale
   announcement snapshot; a later quiescent eject_all must not trust it
   and must drain everything once protections are gone. *)
let test_stale_pass_drained () =
  let mem, ar = setup ~procs:2 ~slots:2 () in
  let target = Word.of_addr 48 in
  let cell = mk_cell mem target in
  let r =
    Sim.run ~config:small ~procs:2 (fun pid ->
        let h = Ar.handle ar pid in
        if pid = 0 then begin
          (* Protect, let the other process start a pass against our
             announcement, then release. *)
          ignore (Ar.acquire h ~slot:0 cell);
          Proc.pay 3_000;
          Ar.release h ~slot:0
        end
        else begin
          Proc.pay 50;
          Ar.retire h target;
          (* A few ejects: starts a pass that snapshots the announcement
             while it is still live, then stalls mid-pass. *)
          for _ = 1 to 2 do
            ignore (Ar.eject h)
          done
        end)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  (* Quiescence: the announcement is gone; the stale pass must not pin
     the handle forever. *)
  let ejected = Ar.eject_all (Ar.handle ar 1) in
  Alcotest.(check (list int)) "drained despite stale pass" [ target ] ejected;
  Alcotest.(check int) "nothing delayed" 0 (Ar.delayed ar)

(* Regression: a process parked for good between an eject's plan and
   its finish leaves laid-out steps that were never applied. The
   quiescent [eject_all] must run them, or their slot reads never reach
   the announced multiset, their diffs are never popped, and those
   retired handles are neither kept nor ejected. At every stall point of
   a short retire-and-eject run, each retire must come back once. *)
let test_parked_mid_eject () =
  let n_words = 40 in
  let words = Array.init n_words (fun i -> Word.of_addr (8 * (i + 1))) in
  let bad = ref [] in
  for at = 1 to 400 do
    let mem = Memory.create small in
    let ar = Ar.create mem ~procs:2 ~slots_per_proc:4 ~eject_work:2 in
    (* Per word: retires minus ejects. *)
    let owed = Array.make n_words 0 in
    let note d w =
      let i = (Word.to_addr w / 8) - 1 in
      owed.(i) <- owed.(i) + d
    in
    let adversary =
      Adversary.create ~procs:2
        { Adversary.spec_none with stalls = [ Adversary.stall ~victim:1 ~at () ] }
    in
    let r =
      Sim.run ~adversary ~config:small ~procs:2 (fun pid ->
          if pid = 0 then
            for _ = 1 to 400 do
              Proc.pay 1
            done
          else begin
            let h = Ar.handle ar 1 in
            Array.iter
              (fun w ->
                Ar.retire h w;
                note 1 w;
                match Ar.eject h with Some e -> note (-1) e | None -> ())
              words
          end)
    in
    Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
    List.iter (note (-1)) (Ar.eject_all (Ar.handle ar 1));
    if Ar.delayed ar <> 0 || Array.exists (fun c -> c <> 0) owed then
      bad := at :: !bad
  done;
  Alcotest.(check (list int)) "stall points losing a handle" [] (List.rev !bad)

let suite =
  [
    Alcotest.test_case "retire then eject_all" `Quick test_retire_then_eject_all;
    Alcotest.test_case "multiset difference" `Quick test_multiset_difference;
    Alcotest.test_case "acquire reads current" `Quick test_acquire_reads_current;
    Alcotest.test_case "protection window" `Quick test_protection_window;
    Alcotest.test_case "delayed bound (Thm 2)" `Quick test_delayed_bound;
    Alcotest.test_case "stale pass drained (regression)" `Quick
      test_stale_pass_drained;
    Alcotest.test_case "parked mid-eject (regression)" `Quick
      test_parked_mid_eject;
    Alcotest.test_case "wait-free acquire" `Quick test_waitfree_acquire;
    QCheck_alcotest.to_alcotest prop_multiset;
  ]
