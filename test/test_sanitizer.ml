(* The heap sanitizer: mode parsing, shadow provenance, quarantine
   (ABA-masked use-after-free), the SMR protection auditor and
   leak-site attribution. The default modes' zero perturbation is the
   invariance harness's ([test_invariance]). *)

open Simcore

let small = Config.small

let mode_shadow = { Sanitizer.off with Sanitizer.shadow = true }

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let reports_mention mem sub =
  List.exists (fun r -> contains_sub r sub) (Memory.sanitizer_reports mem)

(* {1 Mode parsing} *)

let test_mode_parsing () =
  let ok s = Result.get_ok (Sanitizer.mode_of_string s) in
  Alcotest.(check bool) "default = default_on" true (ok "default" = Sanitizer.default_on);
  Alcotest.(check bool) "on = default_on" true (ok "on" = Sanitizer.default_on);
  Alcotest.(check bool) "all = all_on" true (ok "all" = Sanitizer.all_on);
  Alcotest.(check bool) "off is off" true (Sanitizer.is_off (ok "off"));
  Alcotest.(check bool) "default_on has no quarantine" true
    (Sanitizer.default_on.Sanitizer.quarantine = 0);
  let m = ok "shadow,protocol" in
  Alcotest.(check bool) "shadow,protocol" true
    (m.Sanitizer.shadow && m.Sanitizer.protocol && (not m.Sanitizer.leaks)
    && m.Sanitizer.quarantine = 0);
  Alcotest.(check int) "quarantine=8" 8 (ok "quarantine=8").Sanitizer.quarantine;
  Alcotest.(check int) "bare quarantine depth" Sanitizer.default_quarantine
    (ok "quarantine").Sanitizer.quarantine;
  Alcotest.(check bool) "bad token rejected" true
    (Result.is_error (Sanitizer.mode_of_string "bogus"));
  Alcotest.(check bool) "bad depth rejected" true
    (Result.is_error (Sanitizer.mode_of_string "quarantine=x"));
  (* Canonical round-trip through the printer. *)
  List.iter
    (fun m ->
      Alcotest.(check bool) "round-trip" true
        (ok (Sanitizer.mode_to_string m) = m))
    [ Sanitizer.off; Sanitizer.default_on; Sanitizer.all_on; ok "leaks" ]

(* {1 The ABA-masked use-after-free}

   The freelist is exact-size LIFO, so free-then-alloc returns the same
   address: a stale pointer dereferenced after the reuse silently reads
   the *new* block and the base heap provably cannot object. Quarantine
   delays the reuse, so the same schedule faults — and shadow provenance
   names all three parties. *)

let aba_schedule config =
  let mem = Memory.create config in
  let cell = Memory.alloc mem ~tag:"cell" ~size:1 in
  let phase = ref 0 in
  let first_addr = ref 0 and second_addr = ref 0 in
  let wait k =
    while !phase < k do
      Proc.pay 5
    done
  in
  let res =
    Sim.run ~config ~procs:2 (fun pid ->
        if pid = 1 then begin
          (* Allocator: publish a node, wait for the reader to capture
             the pointer, then free and reallocate the same size. *)
          let node = Memory.alloc mem ~tag:"node" ~size:2 in
          first_addr := node;
          Memory.write mem node 7;
          Memory.write mem cell (Word.of_addr node);
          phase := 1;
          wait 2;
          Memory.free mem node; (* lint: allow-free *)
          second_addr := Memory.alloc mem ~tag:"node" ~size:2;
          phase := 3
        end
        else begin
          (* Reader with a stale pointer. *)
          wait 1;
          let w = Memory.read mem cell in
          phase := 2;
          wait 3;
          ignore (Memory.read mem (Word.to_addr w))
        end)
  in
  (mem, res, !first_addr, !second_addr)

let test_aba_masked_on_base_heap () =
  let _, res, a1, a2 = aba_schedule { small with cores = 2 } in
  Alcotest.(check int) "freelist reused the same address" a1 a2;
  Alcotest.(check int) "base heap saw nothing wrong" 0
    (List.length res.Sim.faults)

let test_aba_caught_by_quarantine () =
  let config =
    {
      small with
      cores = 2;
      sanitize =
        { Sanitizer.shadow = true; quarantine = 4; protocol = false; leaks = false };
    }
  in
  let mem, res, a1, a2 = aba_schedule config in
  Alcotest.(check bool) "quarantine blocked the reuse" true (a1 <> a2);
  let uaf = function
    | { Sim.exn = Memory.Fault { kind = Memory.Use_after_free; _ }; pid } ->
        pid = 0
    | _ -> false
  in
  Alcotest.(check bool) "stale dereference faulted in the reader" true
    (List.exists uaf res.Sim.faults);
  (* The report names all three parties of the bug. *)
  Alcotest.(check bool) "report names the allocator" true
    (reports_mention mem "allocated by pid 1");
  Alcotest.(check bool) "report names the freer" true
    (reports_mention mem "freed by pid 1");
  Alcotest.(check bool) "report names the victim" true
    (reports_mention mem "faulting access by pid 0")

(* {1 Quarantine FIFO} *)

let test_quarantine_fifo () =
  let config =
    {
      small with
      sanitize =
        { Sanitizer.shadow = false; quarantine = 2; protocol = false; leaks = false };
    }
  in
  let m = Memory.create config in
  let a = Memory.alloc m ~tag:"q" ~size:1 in
  let b = Memory.alloc m ~tag:"q" ~size:1 in
  let c = Memory.alloc m ~tag:"q" ~size:1 in
  Memory.free m a; (* lint: allow-free *)
  Memory.free m b; (* lint: allow-free *)
  (* Depth 2: a and b sit in quarantine, nothing is reusable yet. *)
  let d = Memory.alloc m ~tag:"q" ~size:1 in
  Alcotest.(check bool) "quarantined blocks not reused" true
    (d <> a && d <> b);
  Memory.free m c; (* lint: allow-free *)
  (* The third free overflows the quarantine and releases the oldest
     entry (a) back to the freelist, poison verified and zeroed. *)
  let e = Memory.alloc m ~tag:"q" ~size:1 in
  Alcotest.(check int) "oldest quarantined block released first" a e;
  Alcotest.(check int) "released block zeroed" 0 (Memory.peek m e)

(* A quarantined block whose poison was damaged behind the heap's back
   (here: straight through the hot record) is reported when it leaves
   the quarantine, noted in the flight recorder, and still reused. *)
let test_quarantine_poison_damaged () =
  let quarantine = { Sanitizer.off with quarantine = 1 } in
  let m = Memory.create { small with sanitize = quarantine } in
  let a = Memory.alloc m ~tag:"q" ~size:1 in
  let b = Memory.alloc m ~tag:"q" ~size:1 in
  Memory.free m a; (* lint: allow-free *)
  (Memory.hot m).Memcore.words.(a) <- 7;
  Memory.free m b; (* lint: allow-free *)
  Alcotest.(check (list string)) "damage reported"
    [ Printf.sprintf "==sanitizer== quarantine poison damaged: addr=%d tag=q" a ]
    (Memory.sanitizer_reports m);
  Alcotest.(check bool) "noted in the flight recorder" true
    (List.exists
       (fun (e : Recorder.event) ->
         e.label = "quarantine-poison" && e.kind = Recorder.Count a)
       (Recorder.events (Memory.recorder m)));
  Alcotest.(check int) "evicted block reused" a (Memory.alloc m ~tag:"q" ~size:1)

(* {1 Shadow provenance on a double free} *)

let test_double_free_provenance () =
  let m = Memory.create { small with sanitize = mode_shadow } in
  let a = Memory.alloc m ~tag:"t" ~size:2 in
  Memory.free m a; (* lint: allow-free *)
  (match Memory.free m a (* lint: allow-free *) with
  | () -> Alcotest.fail "expected a double-free fault"
  | exception Memory.Fault { kind = Memory.Double_free; _ } -> ());
  Alcotest.(check bool) "report shows the first free site" true
    (reports_mention m "freed by pid");
  Alcotest.(check bool) "report shows the allocation site" true
    (reports_mention m "allocated by pid");
  Alcotest.(check int) "one report" 1 (List.length (Memory.sanitizer_reports m))

(* {1 Protection auditor: free under an active acquire} *)

let test_free_under_acquire_caught () =
  let config = { small with sanitize = Sanitizer.default_on } in
  let mem = Memory.create config in
  let cell = Memory.alloc mem ~tag:"cell" ~size:1 in
  let obj = Memory.alloc mem ~tag:"obj" ~size:1 in
  Memory.write mem cell (Word.of_addr obj);
  let ar =
    Acquire_retire.Ar.create mem ~procs:1 ~slots_per_proc:2 ~eject_work:2
  in
  let res =
    Sim.run ~config ~procs:1 (fun pid ->
        let h = Acquire_retire.Ar.handle ar pid in
        let w = Acquire_retire.Ar.acquire h ~slot:0 cell in
        (* A buggy owner frees the block while the acquire still
           protects it: the auditor faults at the free, before the heap
           is damaged. *)
        Memory.free mem (Word.to_addr w) (* lint: allow-free *))
  in
  let violation = function
    | { Sim.exn = Memory.Fault { kind = Memory.Protection_violation; addr; _ }; _ }
      ->
        addr = obj
    | _ -> false
  in
  Alcotest.(check bool) "free of a protected block faulted" true
    (List.exists violation res.Sim.faults);
  Alcotest.(check bool) "report names the protector" true
    (reports_mention mem "protected by pid 0")

(* {1 Leak attribution by allocation site} *)

let test_leaks_by_site () =
  let config =
    {
      small with
      cores = 2;
      sanitize = { Sanitizer.off with Sanitizer.leaks = true };
    }
  in
  let mem = Memory.create config in
  let _ =
    Sim.run ~config ~procs:2 (fun pid ->
        if pid = 0 then
          for _ = 1 to 3 do
            ignore (Memory.alloc mem ~tag:"leaky" ~size:1)
          done
        else begin
          ignore (Memory.alloc mem ~tag:"leaky" ~size:1);
          ignore (Memory.alloc mem ~tag:"leaky" ~size:1);
          ignore (Memory.alloc mem ~tag:"other" ~size:2)
        end)
  in
  Alcotest.(check (list (triple string int (pair int int))))
    "sites grouped by (tag, allocating pid), most blocks first"
    [ ("leaky", 0, (3, 3)); ("leaky", 1, (2, 2)); ("other", 1, (1, 2)) ]
    (List.map
       (fun (tag, pid, blocks, words) -> (tag, pid, (blocks, words)))
       (Memory.leaks_by_site mem))

let test_leaks_off_is_empty () =
  let mem = Memory.create small in
  ignore (Memory.alloc mem ~tag:"leaky" ~size:1);
  Alcotest.(check int) "no attribution without the mode" 0
    (List.length (Memory.leaks_by_site mem))

(* {1 Auditor-clean schemes}

   Every shipped scheme must drive a mixed list workload under the full
   non-perturbing sanitizer without a single report: the annotations
   register only validated protections, so any report would be a real
   protocol bug. *)

let clean_list_workload scheme =
  let config = { small with cores = 4; sanitize = Sanitizer.default_on } in
  let mem = Memory.create config in
  let t =
    Cds.Set_catalogue.(create List_set) scheme mem ~procs:4 ~buckets:0
  in
  for k = 0 to 15 do
    ignore (t.insert (-1) (2 * k))
  done;
  let res =
    Sim.run ~config ~procs:4 (fun pid ->
        let rng = Proc.rng () in
        for _ = 1 to 150 do
          let k = Rng.int rng 32 in
          match Rng.int rng 4 with
          | 0 -> ignore (t.insert pid k)
          | 1 -> ignore (t.delete pid k)
          | _ -> ignore (t.contains pid k)
        done)
  in
  t.flush ();
  Alcotest.(check int) (scheme ^ ": no faults") 0 (List.length res.Sim.faults);
  Alcotest.(check int)
    (scheme ^ ": no sanitizer reports")
    0
    (List.length (Memory.sanitizer_reports mem))

let test_schemes_auditor_clean () =
  List.iter clean_list_workload Cds.Set_catalogue.schemes

(* {1 Protocol state edge cases}

   Driven on a bare auditor: slot keys, pids and addresses are plain
   ints here, so the array-backed state is exercised at its growth
   boundaries and across a reset. *)

let auditor ?(mode = Sanitizer.default_on) () =
  Sanitizer.create mode (Telemetry.create ()) (Memcore.create Config.default_cost)

let who = Alcotest.(list (pair int string))

let test_slot_overwrite_and_clear () =
  let s = auditor () in
  let k = Sanitizer.register_slots s ~n:2 in
  Sanitizer.protect s ~key:k ~pid:0 64;
  Sanitizer.protect s ~key:(k + 1) ~pid:0 64;
  Alcotest.(check int) "two slots on one addr" 2 (Sanitizer.protected_count s 64);
  (* Overwriting a slot drops its previous protection. *)
  Sanitizer.protect s ~key:k ~pid:0 96;
  Alcotest.(check int) "old addr dropped" 1 (Sanitizer.protected_count s 64);
  Alcotest.(check int) "new addr held" 1 (Sanitizer.protected_count s 96);
  Sanitizer.protect s ~key:k ~pid:0 0;
  Sanitizer.protect s ~key:(k + 1) ~pid:0 0;
  Alcotest.(check int) "cleared" 0
    (Sanitizer.protected_count s 64 + Sanitizer.protected_count s 96);
  Alcotest.(check bool) "pid no longer shielded" false
    (Sanitizer.pid_shielded s ~pid:0);
  (* Clearing an empty slot is a no-op. *)
  Sanitizer.protect s ~key:k ~pid:0 0;
  Alcotest.(check who) "no protectors" [] (Sanitizer.protectors s 64)

let test_pid_range () =
  let s = auditor () in
  (* The orchestrator (pid -1) and a pid far above the initial
     capacity, on slot keys far above theirs. *)
  let k = Sanitizer.register_slots s ~n:1000 in
  Sanitizer.window_enter s ~pid:(-1);
  Sanitizer.window_protect s ~pid:(-1) 32;
  Sanitizer.protect s ~key:(k + 999) ~pid:700 32;
  Alcotest.(check int) "both count" 2 (Sanitizer.protected_count s 32);
  Alcotest.(check bool) "pid -1 shielded" true (Sanitizer.pid_shielded s ~pid:(-1));
  Alcotest.(check bool) "pid 700 shielded" true (Sanitizer.pid_shielded s ~pid:700);
  Alcotest.(check bool) "pid 5000 unseen" false (Sanitizer.pid_shielded s ~pid:5000);
  Alcotest.(check who) "protectors" [ (-1, "window"); (700, "slot") ]
    (Sanitizer.protectors s 32);
  Sanitizer.window_exit s ~pid:(-1);
  Alcotest.(check int) "window released" 1 (Sanitizer.protected_count s 32);
  (* An address beyond anything registered is simply unprotected. *)
  Alcotest.(check int) "far addr" 0 (Sanitizer.protected_count s 1_000_000)

let test_nested_windows () =
  let s = auditor () in
  Sanitizer.window_protect s ~pid:1 48;
  Alcotest.(check int) "no window, no protection" 0 (Sanitizer.protected_count s 48);
  Sanitizer.window_enter s ~pid:1;
  Sanitizer.window_protect s ~pid:1 48;
  Sanitizer.window_enter s ~pid:1;
  Sanitizer.window_protect s ~pid:1 48;
  Sanitizer.window_protect s ~pid:1 80;
  Sanitizer.window_exit s ~pid:1;
  Alcotest.(check int) "inner exit keeps all" 2 (Sanitizer.protected_count s 48);
  Alcotest.(check bool) "still shielded" true (Sanitizer.pid_shielded s ~pid:1);
  Sanitizer.window_exit s ~pid:1;
  Alcotest.(check int) "outer exit drops all" 0
    (Sanitizer.protected_count s 48 + Sanitizer.protected_count s 80);
  Alcotest.(check bool) "unshielded" false (Sanitizer.pid_shielded s ~pid:1);
  (* An unmatched exit stays at depth 0. *)
  Sanitizer.window_exit s ~pid:1;
  Sanitizer.window_enter s ~pid:1;
  Sanitizer.window_protect s ~pid:1 48;
  Alcotest.(check int) "fresh window" 1 (Sanitizer.protected_count s 48)

let test_reset_then_reuse () =
  let s = auditor () in
  let k = Sanitizer.register_slots s ~n:4 in
  Sanitizer.protect s ~key:k ~pid:0 16;
  Sanitizer.window_enter s ~pid:2;
  Sanitizer.window_protect s ~pid:2 16;
  Sanitizer.reset_protocol s;
  Alcotest.(check int) "reset clears counts" 0 (Sanitizer.protected_count s 16);
  Alcotest.(check bool) "reset clears slots" false (Sanitizer.pid_shielded s ~pid:0);
  Alcotest.(check bool) "reset closes windows" false (Sanitizer.pid_shielded s ~pid:2);
  Alcotest.(check who) "no protectors" [] (Sanitizer.protectors s 16);
  (* Keys keep counting past the reset; old keys stay usable. *)
  let k' = Sanitizer.register_slots s ~n:4 in
  Alcotest.(check int) "fresh keys follow the old" (k + 4) k';
  Sanitizer.protect s ~key:k ~pid:0 16;
  Sanitizer.protect s ~key:k' ~pid:3 16;
  Alcotest.(check int) "reused" 2 (Sanitizer.protected_count s 16);
  Sanitizer.window_protect s ~pid:2 16;
  Alcotest.(check int) "closed window adds nothing" 2 (Sanitizer.protected_count s 16)

let test_protectors_sorted () =
  let s = auditor () in
  let k = Sanitizer.register_slots s ~n:8 in
  (* Registered out of order, with a duplicate slot and window per pid. *)
  Sanitizer.protect s ~key:(k + 7) ~pid:3 40;
  Sanitizer.window_enter s ~pid:2;
  Sanitizer.window_protect s ~pid:2 40;
  Sanitizer.window_protect s ~pid:2 40;
  Sanitizer.protect s ~key:(k + 1) ~pid:0 40;
  Sanitizer.protect s ~key:(k + 2) ~pid:0 40;
  Sanitizer.window_enter s ~pid:0;
  Sanitizer.window_protect s ~pid:0 40;
  Sanitizer.protect s ~key:(k + 4) ~pid:2 40;
  Sanitizer.protect s ~key:(k + 5) ~pid:1 72;
  Alcotest.(check who) "sorted, deduplicated"
    [ (0, "slot"); (0, "window"); (2, "slot"); (2, "window"); (3, "slot") ]
    (Sanitizer.protectors s 40);
  Alcotest.(check int) "every protection counted" 7 (Sanitizer.protected_count s 40)

let test_protocol_off_is_inert () =
  let s = auditor ~mode:{ Sanitizer.default_on with protocol = false } () in
  let k = Sanitizer.register_slots s ~n:1 in
  Sanitizer.protect s ~key:k ~pid:0 16;
  Sanitizer.window_enter s ~pid:0;
  Sanitizer.window_protect s ~pid:0 16;
  Alcotest.(check int) "nothing counted" 0 (Sanitizer.protected_count s 16);
  Alcotest.(check bool) "nobody shielded" false (Sanitizer.pid_shielded s ~pid:0)

let suite =
  [
    Alcotest.test_case "mode parsing" `Quick test_mode_parsing;
    Alcotest.test_case "ABA masked on the base heap" `Quick
      test_aba_masked_on_base_heap;
    Alcotest.test_case "ABA caught by quarantine" `Quick
      test_aba_caught_by_quarantine;
    Alcotest.test_case "quarantine FIFO" `Quick test_quarantine_fifo;
    Alcotest.test_case "quarantine poison damage reported" `Quick
      test_quarantine_poison_damaged;
    Alcotest.test_case "double-free provenance" `Quick
      test_double_free_provenance;
    Alcotest.test_case "free under acquire caught" `Quick
      test_free_under_acquire_caught;
    Alcotest.test_case "leak sites" `Quick test_leaks_by_site;
    Alcotest.test_case "leaks off" `Quick test_leaks_off_is_empty;
    Alcotest.test_case "schemes auditor-clean" `Quick
      test_schemes_auditor_clean;
    Alcotest.test_case "protocol: slot overwrite and clear" `Quick
      test_slot_overwrite_and_clear;
    Alcotest.test_case "protocol: pid -1 and high pids" `Quick test_pid_range;
    Alcotest.test_case "protocol: nested windows" `Quick test_nested_windows;
    Alcotest.test_case "protocol: reuse after reset" `Quick
      test_reset_then_reuse;
    Alcotest.test_case "protocol: protectors sorted" `Quick
      test_protectors_sorted;
    Alcotest.test_case "protocol: off is inert" `Quick
      test_protocol_off_is_inert;
  ]
