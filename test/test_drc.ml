(* The core library (§5): reference-count bookkeeping, deferred
   decrements, snapshots (including slot exhaustion and takeover), marked
   pointers, recursive destruction, and concurrent safety. *)

open Simcore
module Drc = Cdrc.Drc

let small = Config.small

let setup ?(snapshots = true) ?(procs = 4) () =
  let mem = Memory.create small in
  let drc = Drc.create ~snapshots mem ~procs in
  (mem, drc)

let count mem w = Memory.peek mem (Word.to_addr w)

let test_make_destruct () =
  let mem, drc = setup () in
  let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
  let h = Drc.handle drc (-1) in
  let o = Drc.make h cls [| 9 |] in
  Alcotest.(check int) "fresh count" 1 (count mem o);
  Alcotest.(check int) "field" 9 (Memory.peek mem (Drc.field_addr o 0));
  Drc.destruct h o;
  Drc.flush drc;
  Alcotest.(check int) "reclaimed" 0 (Memory.live_with_tag mem "box")

let test_load_store_counts () =
  let mem, drc = setup () in
  let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
  let cell = Drc.alloc_cells drc ~tag:"c" ~n:1 in
  let r =
    Sim.run ~config:small ~procs:1 (fun _ ->
        let h = Drc.handle drc 0 in
        let o = Drc.make h cls [| 1 |] in
        Drc.store h cell o;
        Alcotest.(check int) "cell owns the ref" 1 (count mem o);
        let l = Drc.load h cell in
        Alcotest.(check int) "load returns same object" o l;
        Alcotest.(check int) "load incremented" 2 (count mem o);
        Drc.destruct h l;
        let o2 = Drc.make h cls [| 2 |] in
        Drc.store h cell o2;
        (* The old object's decrement is deferred, not lost. *)
        Drc.destruct h (Drc.load h cell))
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  Drc.store (Drc.handle drc (-1)) cell Word.null;
  Drc.flush drc;
  Alcotest.(check int) "all reclaimed" 0 (Memory.live_with_tag mem "box");
  Alcotest.(check int) "nothing deferred" 0 (Drc.deferred_decrements drc)

let test_store_copy_and_dup () =
  let mem, drc = setup () in
  let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
  let cell = Drc.alloc_cells drc ~tag:"c" ~n:2 in
  let h = Drc.handle drc (-1) in
  let o = Drc.make h cls [| 1 |] in
  Drc.store_copy h cell o;
  Alcotest.(check int) "copy keeps caller's ref" 2 (count mem o);
  let o' = Drc.dup h o in
  Alcotest.(check int) "dup increments" 3 (count mem o');
  Drc.destruct h o;
  Drc.destruct h o';
  Drc.store h cell Word.null;
  Drc.flush drc;
  Alcotest.(check int) "reclaimed" 0 (Memory.live_with_tag mem "box")

let test_cas_semantics () =
  let mem, drc = setup () in
  let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
  let cell = Drc.alloc_cells drc ~tag:"c" ~n:1 in
  let r =
    Sim.run ~config:small ~procs:1 (fun _ ->
        let h = Drc.handle drc 0 in
        let a = Drc.make h cls [| 1 |] in
        let b = Drc.make h cls [| 2 |] in
        Drc.store h cell a;
        (* Failing CAS changes nothing. *)
        Alcotest.(check bool) "cas wrong expected" false
          (Drc.cas h cell ~expected:b ~desired:b);
        Alcotest.(check int) "a count intact" 1 (count mem a);
        (* Successful copy-CAS: cell swaps a for b, b gains the cell's
           reference, a's is retired. *)
        Alcotest.(check bool) "cas succeeds" true
          (Drc.cas h cell ~expected:a ~desired:b);
        Alcotest.(check int) "b gained cell ref" 2 (count mem b);
        Drc.destruct h b;
        (* Move-CAS consumes the caller's reference. *)
        let c = Drc.make h cls [| 3 |] in
        Alcotest.(check bool) "cas_move" true
          (Drc.cas_move h cell ~expected:b ~desired:c);
        Alcotest.(check int) "c count is just the cell" 1 (count mem c))
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  Drc.store (Drc.handle drc (-1)) cell Word.null;
  Drc.flush drc;
  Alcotest.(check int) "reclaimed" 0 (Memory.live_with_tag mem "box")

let test_recursive_destruction () =
  let mem, drc = setup () in
  (* A linked chain: destroying the head reclaims everything. *)
  let cls = Drc.register_class drc ~tag:"node" ~fields:2 ~ref_fields:[ 1 ] in
  let h = Drc.handle drc (-1) in
  let rec build n tail =
    if n = 0 then tail else build (n - 1) (Drc.make h cls [| n; tail |])
  in
  let head = build 50 Word.null in
  Alcotest.(check int) "chain allocated" 50 (Memory.live_with_tag mem "node");
  Drc.destruct h head;
  Drc.flush drc;
  Alcotest.(check int) "chain reclaimed" 0 (Memory.live_with_tag mem "node")

let test_snapshot_basic () =
  let mem, drc = setup () in
  let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
  let cell = Drc.alloc_cells drc ~tag:"c" ~n:1 in
  let h0 = Drc.handle drc (-1) in
  Drc.store h0 cell (Drc.make h0 cls [| 5 |]);
  let r =
    Sim.run ~config:small ~procs:1 (fun _ ->
        let h = Drc.handle drc 0 in
        let s = Drc.get_snapshot h cell in
        Alcotest.(check bool) "snapshot non-null" false (Drc.snap_is_null s);
        (* A snapshot does not touch the count. *)
        Alcotest.(check int) "no increment" 1 (count mem (Drc.snap_word s));
        Alcotest.(check int) "value readable" 5
          (Memory.read mem (Drc.field_addr (Drc.snap_word s) 0));
        Drc.release_snapshot h s)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults)

let test_snapshot_protects () =
  (* The object survives its cell being overwritten while a snapshot is
     held, and is reclaimed after release. *)
  let mem, drc = setup ~procs:2 () in
  let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
  let cell = Drc.alloc_cells drc ~tag:"c" ~n:1 in
  let h0 = Drc.handle drc (-1) in
  Drc.store h0 cell (Drc.make h0 cls [| 5 |]);
  let phase = ref 0 in
  let r =
    Sim.run ~config:small ~procs:2 (fun pid ->
        let h = Drc.handle drc pid in
        if pid = 0 then begin
          let s = Drc.get_snapshot h cell in
          phase := 1;
          while !phase < 2 do
            Proc.pay 5
          done;
          (* Still protected; reading must be safe. *)
          Alcotest.(check int) "value intact under protection" 5
            (Memory.read mem (Drc.field_addr (Drc.snap_word s) 0));
          Drc.release_snapshot h s
        end
        else begin
          while !phase < 1 do
            Proc.pay 5
          done;
          Drc.store h cell (Drc.make h cls [| 6 |]);
          phase := 2
        end)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  Drc.store h0 cell Word.null;
  Drc.flush drc;
  Alcotest.(check int) "all reclaimed" 0 (Memory.live_with_tag mem "box")

let test_snapshot_slot_exhaustion () =
  (* Take more snapshots than the seven slots: the round-robin takeover
     applies the deferred increment (Fig. 4) and everything still
     balances. *)
  let mem, drc = setup () in
  let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
  let cell = Drc.alloc_cells drc ~tag:"c" ~n:1 in
  let h0 = Drc.handle drc (-1) in
  Drc.store h0 cell (Drc.make h0 cls [| 5 |]);
  let r =
    Sim.run ~config:small ~procs:1 (fun _ ->
        let h = Drc.handle drc 0 in
        let snaps = List.init 20 (fun _ -> Drc.get_snapshot h cell) in
        (* All twenty must be safely readable. *)
        List.iter
          (fun s ->
            Alcotest.(check int) "readable" 5
              (Memory.read mem (Drc.field_addr (Drc.snap_word s) 0)))
          snaps;
        List.iter (fun s -> Drc.release_snapshot h s) snaps)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  Drc.store h0 cell Word.null;
  Drc.flush drc;
  Alcotest.(check int) "balanced counts, no leak" 0
    (Memory.live_with_tag mem "box")

let prop_snapshot_release_orders =
  (* Snapshots released in arbitrary orders never unbalance the counts. *)
  QCheck.Test.make ~count:60 ~name:"snapshot interleavings balance"
    QCheck.(pair small_int (list_of_size Gen.(1 -- 25) bool))
    (fun (seed, script) ->
      let mem, drc = setup () in
      let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
      let cell = Drc.alloc_cells drc ~tag:"c" ~n:1 in
      let h0 = Drc.handle drc (-1) in
      Drc.store h0 cell (Drc.make h0 cls [| 5 |]);
      let r =
        Sim.run ~seed:(1 + abs seed) ~config:small ~procs:1 (fun _ ->
            let h = Drc.handle drc 0 in
            let held = ref [] in
            List.iter
              (fun take ->
                if take then held := Drc.get_snapshot h cell :: !held
                else
                  match !held with
                  | s :: rest ->
                      Drc.release_snapshot h s;
                      held := rest
                  | [] -> ())
              script;
            List.iter (fun s -> Drc.release_snapshot h s) !held)
      in
      r.Sim.faults = []
      &&
      (Drc.store h0 cell Word.null;
       Drc.flush drc;
       Memory.live_with_tag mem "box" = 0))

let test_marked_pointers () =
  let mem, drc = setup () in
  let cls = Drc.register_class drc ~tag:"node" ~fields:2 ~ref_fields:[ 1 ] in
  let cell = Drc.alloc_cells drc ~tag:"c" ~n:1 in
  let h = Drc.handle drc (-1) in
  let o = Drc.make h cls [| 1; Word.null |] in
  Drc.store h cell o;
  let w = Memory.peek mem cell in
  Alcotest.(check bool) "mark succeeds" true (Drc.try_mark h cell ~expected:w);
  Alcotest.(check bool) "marked in place" true (Word.marked (Memory.peek mem cell));
  Alcotest.(check bool) "second mark fails" false (Drc.try_mark h cell ~expected:w);
  Alcotest.(check bool) "flag over mark" true
    (Drc.try_flag h cell ~expected:(Memory.peek mem cell));
  Alcotest.(check bool) "both bits" true
    (Word.marked (Memory.peek mem cell) && Word.flagged (Memory.peek mem cell));
  (* Marks never disturb reference counts. *)
  Alcotest.(check int) "count untouched" 1 (count mem o);
  Drc.store h cell Word.null;
  Drc.flush drc;
  Alcotest.(check int) "reclaimed" 0 (Memory.live_with_tag mem "node")

let chaos_mix ~snapshots () =
  let mem, drc = setup ~snapshots ~procs:8 () in
  let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
  let cells = Drc.alloc_cells drc ~tag:"c" ~n:4 in
  let h0 = Drc.handle drc (-1) in
  for i = 0 to 3 do
    Drc.store h0 (cells + i) (Drc.make h0 cls [| i |])
  done;
  let r =
    Sim.run ~policy:(Sim.Chaos { pause_prob = 0.01; pause_steps = 500 })
      ~seed:17 ~config:small ~procs:8 (fun pid ->
        let h = Drc.handle drc pid in
        let rng = Proc.rng () in
        for _ = 1 to 600 do
          let c = cells + Rng.int rng 4 in
          match Rng.int rng 4 with
          | 0 -> Drc.store h c (Drc.make h cls [| Rng.int rng 100 |])
          | 1 ->
              let o = Drc.load h c in
              if not (Word.is_null o) then begin
                ignore (Memory.read mem (Drc.field_addr o 0));
                Drc.destruct h o
              end
          | 2 ->
              let s = Drc.get_snapshot h c in
              if not (Drc.snap_is_null s) then
                ignore (Memory.read mem (Drc.field_addr (Drc.snap_word s) 0));
              Drc.release_snapshot h s
          | _ ->
              let s = Drc.get_snapshot h c in
              let desired = Drc.make h cls [| 7 |] in
              if
                not
                  (Drc.cas_move h c
                     ~expected:(Word.clean (Drc.snap_word s))
                     ~desired)
              then Drc.destruct h desired;
              Drc.release_snapshot h s
        done)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  for i = 0 to 3 do
    Drc.store h0 (cells + i) Word.null
  done;
  Drc.flush drc;
  Alcotest.(check int) "no leaks" 0 (Memory.live_with_tag mem "box");
  Alcotest.(check int) "no deferred left" 0 (Drc.deferred_decrements drc)

let test_chaos_with_snapshots () = chaos_mix ~snapshots:true ()

let test_chaos_without_snapshots () = chaos_mix ~snapshots:false ()

let test_deferred_bound () =
  (* Theorem 1: O(P^2) deferred decrements, constant = slots per
     process. *)
  let mem, drc = setup ~procs:8 () in
  let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
  let cells = Drc.alloc_cells drc ~tag:"c" ~n:2 in
  let h0 = Drc.handle drc (-1) in
  Drc.store h0 cells (Drc.make h0 cls [| 0 |]);
  Drc.store h0 (cells + 1) (Drc.make h0 cls [| 1 |]);
  let max_deferred = ref 0 in
  let r =
    Sim.run ~config:small ~procs:8 (fun pid ->
        let h = Drc.handle drc pid in
        let rng = Proc.rng () in
        for _ = 1 to 500 do
          Drc.store h (cells + Rng.int rng 2) (Drc.make h cls [| 9 |]);
          let d = Drc.deferred_decrements drc in
          if d > !max_deferred then max_deferred := d
        done)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  ignore mem;
  Alcotest.(check bool)
    (Printf.sprintf "deferred (max %d) within 8 P^2" !max_deferred)
    true
    (!max_deferred <= 8 * 8 * 8)


(* {1 Weak references (§9 extension)} *)

let test_weak_basic () =
  let mem, drc = setup () in
  let cls =
    Drc.register_class ~weak:true drc ~tag:"wbox" ~fields:1 ~ref_fields:[]
  in
  let h = Drc.handle drc (-1) in
  let o = Drc.make h cls [| 3 |] in
  let w = Drc.weak_of h o in
  (* Upgrade while alive. *)
  (match Drc.upgrade h w with
  | Some r ->
      Alcotest.(check int) "upgraded reads fields" 3
        (Memory.peek mem (Drc.field_addr r 0));
      Drc.destruct h r
  | None -> Alcotest.fail "upgrade of live object failed");
  (* Kill the object; the weak reference keeps only the block. *)
  Drc.destruct h o;
  Drc.flush drc;
  Alcotest.(check bool) "block survives for the weak ref" true
    (Memory.block_is_live mem (Word.to_addr w));
  Alcotest.(check bool) "upgrade after death fails" true
    (Drc.upgrade h w = None);
  Drc.drop_weak h w;
  Alcotest.(check int) "block freed with last weak" 0
    (Memory.live_with_tag mem "wbox")

let test_weak_breaks_cycle () =
  let mem, drc = setup () in
  (* parent <-> child: the child points back weakly, so dropping the
     external reference reclaims both (a strong cycle would leak — the
     reference-counting limitation §9 discusses). *)
  let parent =
    Drc.register_class ~weak:true drc ~tag:"parent" ~fields:1 ~ref_fields:[ 0 ]
  in
  let child =
    Drc.register_class drc ~tag:"child" ~fields:1 ~ref_fields:[]
  in
  let h = Drc.handle drc (-1) in
  let p = Drc.make h parent [| Word.null |] in
  let c = Drc.make h child [| Drc.weak_of h p |] in
  Drc.set_field h p 0 c;
  (* The child's field 0 holds a weak ref to p: reading it and upgrading
     works while p lives. *)
  let back = Memory.peek mem (Drc.field_addr c 0) in
  (match Drc.upgrade h back with
  | Some r -> Drc.destruct h r
  | None -> Alcotest.fail "back-edge upgrade failed");
  Drc.destruct h p;
  Drc.flush drc;
  (* p died (strong cycle avoided); its block lingers for the weak ref,
     but the child was reclaimed through p's destructor. *)
  Alcotest.(check int) "child reclaimed" 0 (Memory.live_with_tag mem "child");
  Alcotest.(check bool) "upgrade fails after teardown" true
    (Drc.upgrade h back = None);
  Drc.drop_weak h back;
  Alcotest.(check int) "parent block freed" 0 (Memory.live_with_tag mem "parent")

let test_weak_concurrent_upgrade () =
  let mem, drc = setup ~procs:6 () in
  let cls =
    Drc.register_class ~weak:true drc ~tag:"wbox" ~fields:1 ~ref_fields:[]
  in
  let cell = Drc.alloc_cells drc ~tag:"c" ~n:1 in
  let h0 = Drc.handle drc (-1) in
  let o = Drc.make h0 cls [| 11 |] in
  let weaks = Array.init 6 (fun _ -> Drc.weak_of h0 o) in
  Drc.store h0 cell o;
  let upgrades = ref 0 and failures = ref 0 in
  let r =
    Sim.run ~policy:(Sim.Chaos { pause_prob = 0.01; pause_steps = 300 })
      ~seed:23 ~config:small ~procs:6 (fun pid ->
        let h = Drc.handle drc pid in
        if pid = 0 then begin
          Proc.pay 300;
          (* Kill the only strong holder mid-run. *)
          Drc.store h cell Word.null
        end
        else
          for _ = 1 to 100 do
            match Drc.upgrade h weaks.(pid) with
            | Some r ->
                incr upgrades;
                Alcotest.(check int) "upgraded object readable" 11
                  (Memory.read mem (Drc.field_addr r 0));
                Drc.destruct h r
            | None -> incr failures
          done)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  Alcotest.(check bool) "some upgrades succeeded" true (!upgrades > 0);
  ignore !failures;
  (* Once the deferred decrement lands, upgrades must fail. *)
  Drc.flush drc;
  Alcotest.(check bool) "upgrade fails after death" true
    (Drc.upgrade h0 weaks.(1) = None);
  Array.iter (fun w -> Drc.drop_weak h0 w) weaks;
  Drc.flush drc;
  Alcotest.(check int) "fully reclaimed" 0 (Memory.live_with_tag mem "wbox")


let test_weak_fields () =
  (* Weak references held in object fields are dropped by the destructor;
     a parent<->child pair with a weak back-edge fully reclaims. *)
  let mem, drc = setup () in
  let parent =
    Drc.register_class ~weak:true drc ~tag:"wparent" ~fields:1 ~ref_fields:[ 0 ]
  in
  let child =
    Drc.register_class ~weak_fields:[ 0 ] drc ~tag:"wchild" ~fields:1
      ~ref_fields:[]
  in
  let h = Drc.handle drc (-1) in
  let p = Drc.make h parent [| Word.null |] in
  let c = Drc.make h child [| Drc.weak_of h p |] in
  Drc.set_field h p 0 c;
  Drc.destruct h p;
  Drc.flush drc;
  Alcotest.(check int) "child reclaimed" 0 (Memory.live_with_tag mem "wchild");
  (* The child's destructor dropped its weak ref, so the parent block is
     gone too — no manual drop_weak needed anywhere. *)
  Alcotest.(check int) "parent block reclaimed" 0
    (Memory.live_with_tag mem "wparent")


let test_snapshot_takeover_aba () =
  (* The subtle Fig. 4 case the paper credits Correia et al. for: a slot
     taken over and re-acquired for the *same* pointer. The old snapshot
     observes its word still announced and releases the slot; the new
     snapshot then rides the takeover's applied increment — counts must
     balance and the object stays protected throughout. *)
  let mem, drc = setup () in
  let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
  let cell = Drc.alloc_cells drc ~tag:"c" ~n:1 in
  let h0 = Drc.handle drc (-1) in
  Drc.store h0 cell (Drc.make h0 cls [| 3 |]);
  let r =
    Sim.run ~config:small ~procs:1 (fun _ ->
        let h = Drc.handle drc 0 in
        (* Fill all seven slots with snapshots of the same object. *)
        let first = Drc.get_snapshot h cell in
        let rest = List.init 6 (fun _ -> Drc.get_snapshot h cell) in
        (* Eighth snapshot: round-robin takeover lands on slot 1 (the
           first snapshot's), increments the occupant, and re-announces
           the same word. *)
        let eighth = Drc.get_snapshot h cell in
        Alcotest.(check bool) "still readable" true
          (Memory.read mem (Drc.field_addr (Drc.snap_word eighth) 0) = 3);
        (* Release the victim first: its slot still shows its word. *)
        Drc.release_snapshot h first;
        (* The eighth must still be safe to use. *)
        Alcotest.(check bool) "post-release readable" true
          (Memory.read mem (Drc.field_addr (Drc.snap_word eighth) 0) = 3);
        Drc.release_snapshot h eighth;
        List.iter (fun s -> Drc.release_snapshot h s) rest)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  Drc.store h0 cell Word.null;
  Drc.flush drc;
  Alcotest.(check int) "balanced" 0 (Memory.live_with_tag mem "box")

(* The compiled load carries the closure's slot-protection notes: with
   the sanitizer's protocol auditor on, whether pid 0 is shielded
   evolves identically when it runs DRC [load]/[destruct] pairs as
   compiled code ({!Vm.exec}) or as closures. Pid 1 samples
   [pid_shielded ~pid:0] after each unit pay; without the fast path
   every pay is a scheduling point, so the samples interleave with pid
   0's acquire windows. *)
let shield_trace ~compiled =
  let config = { small with Config.sanitize = Sanitizer.default_on } in
  let mem = Memory.create config in
  let drc = Drc.create mem ~procs:2 in
  let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
  let cell = Drc.alloc_cells drc ~tag:"c" ~n:1 in
  let h0 = Drc.handle drc (-1) in
  Drc.store h0 cell (Drc.make h0 cls [| 1 |]);
  let pairs = 50 in
  let trace = ref [] in
  let pid0 () =
    if compiled then begin
      let module A = Vm.Asm in
      let a = A.create () in
      let r_src = A.reg a and r_n = A.reg a in
      let loop = A.label a and done_ = A.label a in
      A.movi a r_src cell;
      A.movi a r_n pairs;
      A.place a loop;
      A.beqi a r_n 0 done_;
      let r_w = Drc.vm_emit_load drc a ~pid:0 ~src:r_src in
      Drc.vm_emit_destruct drc a ~pid:0 ~ptr:r_w;
      A.addi a r_n r_n (-1);
      A.jmp a loop;
      A.place a done_;
      A.halt a;
      let prog = A.assemble a in
      Vm.exec prog
        (Vm.frame prog ~mem ~rng:(Proc.rng ())
           ~cells:(Array.make prog.Vm.n_cells 0))
    end
    else begin
      let h = Drc.handle drc 0 in
      for _ = 1 to pairs do
        Drc.destruct h (Drc.load h cell)
      done
    end
  in
  let r =
    Sim.run ~fastpath:false ~config ~procs:2 (fun pid ->
        if pid = 0 then pid0 ()
        else
          for _ = 1 to 400 do
            Proc.pay 1;
            trace :=
              Sanitizer.pid_shielded (Memory.sanitizer mem) ~pid:0 :: !trace
          done)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  List.rev !trace

let test_compiled_protection_parity () =
  let closure = shield_trace ~compiled:false in
  Alcotest.(check (list bool))
    "shielded samples: compiled = closure" closure
    (shield_trace ~compiled:true);
  Alcotest.(check bool) "pid 0 observed shielded" true (List.mem true closure)

(* {1 Quiescent flush}

   [flush] reads each announcement once ({!Acquire_retire.Ar.quiescent})
   and serves every later pass from that read. The steps, telemetry and
   frees must be those of uncached passes: the pinned values below are
   what re-reading every slot in every pass produces. *)

let ar_probes mem =
  List.filter
    (fun (k, _) -> String.length k > 3 && String.sub k 0 3 = "ar.")
    (Telemetry.snapshot (Memory.telemetry mem))

(* Four processes churn their own cell (every store retires and runs
   part of a pass), and pid 0 ends holding a snapshot of an object its
   last store retired: several handles stop mid-pass, one announcement
   is still held. Returns the heap, the object held, and the snapshot. *)
let partial_pass_heap () =
  let mem, drc = setup ~procs:4 () in
  let cls = Drc.register_class drc ~tag:"box" ~fields:1 ~ref_fields:[] in
  let cells = Drc.alloc_cells drc ~tag:"c" ~n:4 in
  let held = ref None in
  let r =
    Sim.run ~config:small ~procs:4 (fun pid ->
        let h = Drc.handle drc pid in
        let cell = cells + pid in
        for i = 1 to 3 + (5 * pid) do
          Drc.store h cell (Drc.make h cls [| (10 * pid) + i |])
        done;
        if pid = 0 then begin
          let s = Drc.get_snapshot h cell in
          Drc.store h cell (Drc.make h cls [| 99 |]);
          held := Some s
        end)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  let s = Option.get !held in
  (mem, drc, cells, s)

let test_quiescent_flush () =
  let mem, drc, _, s = partial_pass_heap () in
  Alcotest.(check bool) "decrements still deferred" true
    (Drc.deferred_decrements drc > 0);
  Drc.flush drc;
  let x = Drc.snap_word s in
  Alcotest.(check bool) "held object survives" true
    (Memory.block_is_live mem (Word.to_addr x));
  Alcotest.(check int) "live boxes: 4 cells + the held one" 5
    (Memory.live_with_tag mem "box");
  Alcotest.(check int) "one decrement still deferred" 1
    (Drc.deferred_decrements drc);
  Alcotest.(check (list (pair string int))) "ar.* telemetry"
    [
      ("ar.delayed/cur", 1); ("ar.delayed/peak", 37);
      ("ar.eject_batch/max", 9); ("ar.eject_batch/n", 12);
      ("ar.eject_batch/p50", 1); ("ar.eject_batch/p99", 16);
      ("ar.pass_size/max", 9); ("ar.pass_size/n", 12);
      ("ar.pass_size/p50", 1); ("ar.pass_size/p99", 16);
      ("ar.scan_passes", 12); ("ar.scan_steps", 449);
    ]
    (ar_probes mem)

(* A flush's read cache lives for that flush only: an announcement
   withdrawn between two flushes must be seen by the second. *)
let test_flush_sees_new_announcements () =
  let mem, drc, cells, s = partial_pass_heap () in
  Drc.flush drc;
  let x = Drc.snap_word s in
  let r =
    Sim.run ~config:small ~procs:4 (fun pid ->
        if pid = 0 then Drc.release_snapshot (Drc.handle drc 0) s)
  in
  Alcotest.(check int) "no faults" 0 (List.length r.Sim.faults);
  Drc.flush drc;
  Alcotest.(check bool) "released object reclaimed" false
    (Memory.block_is_live mem (Word.to_addr x));
  Alcotest.(check int) "live boxes: the 4 cells" 4 (Memory.live_with_tag mem "box");
  let h = Drc.handle drc (-1) in
  for i = 0 to 3 do
    Drc.store h (cells + i) Word.null
  done;
  Drc.flush drc;
  Alcotest.(check int) "all reclaimed" 0 (Memory.live_with_tag mem "box");
  Alcotest.(check int) "nothing deferred" 0 (Drc.deferred_decrements drc);
  Alcotest.(check (list (pair string int))) "ar.* telemetry"
    [
      ("ar.delayed/cur", 0); ("ar.delayed/peak", 37);
      ("ar.eject_batch/max", 9); ("ar.eject_batch/n", 15);
      ("ar.eject_batch/p50", 1); ("ar.eject_batch/p99", 16);
      ("ar.pass_size/max", 9); ("ar.pass_size/n", 15);
      ("ar.pass_size/p50", 1); ("ar.pass_size/p99", 16);
      ("ar.scan_passes", 15); ("ar.scan_steps", 556);
    ]
    (ar_probes mem)

let suite =
  [
    Alcotest.test_case "make/destruct" `Quick test_make_destruct;
    Alcotest.test_case "load/store counts" `Quick test_load_store_counts;
    Alcotest.test_case "store_copy & dup" `Quick test_store_copy_and_dup;
    Alcotest.test_case "cas semantics" `Quick test_cas_semantics;
    Alcotest.test_case "recursive destruction" `Quick test_recursive_destruction;
    Alcotest.test_case "snapshot basics" `Quick test_snapshot_basic;
    Alcotest.test_case "snapshot protects" `Quick test_snapshot_protects;
    Alcotest.test_case "snapshot slot exhaustion" `Quick
      test_snapshot_slot_exhaustion;
    Alcotest.test_case "snapshot takeover ABA" `Quick
      test_snapshot_takeover_aba;
    Alcotest.test_case "marked pointers" `Quick test_marked_pointers;
    Alcotest.test_case "chaos mix (snapshots)" `Quick test_chaos_with_snapshots;
    Alcotest.test_case "chaos mix (plain)" `Quick test_chaos_without_snapshots;
    Alcotest.test_case "deferred bound (Thm 1)" `Quick test_deferred_bound;
    Alcotest.test_case "weak: basics" `Quick test_weak_basic;
    Alcotest.test_case "weak: fields dropped by destructor" `Quick
      test_weak_fields;
    Alcotest.test_case "weak: breaks cycles" `Quick test_weak_breaks_cycle;
    Alcotest.test_case "weak: concurrent upgrades" `Quick
      test_weak_concurrent_upgrade;
    QCheck_alcotest.to_alcotest prop_snapshot_release_orders;
    Alcotest.test_case "compiled load: protection-state parity" `Quick
      test_compiled_protection_parity;
    Alcotest.test_case "quiescent flush: partial passes, held slot" `Quick
      test_quiescent_flush;
    Alcotest.test_case "quiescent flush: cache scoped to one flush" `Quick
      test_flush_sees_new_announcements;
  ]
