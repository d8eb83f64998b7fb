(* The pluggable allocator: differential equivalence of the pooled
   scheme against the legacy freelist oracle, the constant-time bound
   under adversarial scheduling, the steal/hand-off paths, and the
   sanitizer modes over the new reuse order. Allocation-obliviousness
   of figure points is the invariance harness's ([test_invariance]). *)

open Simcore

let small = Config.small

let counter_of mem key =
  match List.assoc_opt key (Telemetry.snapshot (Memory.telemetry mem)) with
  | Some v -> v
  | None -> 0

(* {1 Differential: pooled vs legacy on random sequential traces}

   The two policies hand out different addresses (reuse order differs),
   but everything a program can observe through its own handles must
   agree: read-back values, accounting, fault-freedom, and the
   fresh/reuse totals. Custody conservation pins the allocator's books
   against the heap's: every freed-but-not-reissued block is in
   custody. *)

let prop_pooled_matches_legacy =
  QCheck.Test.make ~count:120 ~name:"pooled matches legacy on random traces"
    QCheck.(list (triple (int_range 0 3) (int_range 1 8) (int_range 0 999)))
    (fun script ->
      let ml = Memory.create { small with Config.alloc = Config.Legacy } in
      let mp = Memory.create { small with Config.alloc = Config.Pooled } in
      (* Parallel handle table: (legacy addr, pooled addr, size). *)
      let live = ref [] in
      let n_live () = List.length !live in
      let ok = ref true in
      List.iter
        (fun (op, size, v) ->
          match op with
          | 0 | 3 when op = 3 || n_live () = 0 || v mod 3 <> 0 ->
              let size = if op = 3 then 600 + size else size in
              let al = Memory.alloc ml ~tag:"t" ~size in
              let ap = Memory.alloc mp ~tag:"t" ~size in
              Memory.write ml (al + (v mod size)) v;
              Memory.write mp (ap + (v mod size)) v;
              live := (al, ap, size) :: !live
          | 0 | 3 | 1 when n_live () > 0 ->
              let i = v mod n_live () in
              let al, ap, _ = List.nth !live i in
              Memory.free ml al; (* lint: allow-free *)
              Memory.free mp ap; (* lint: allow-free *)
              live := List.filteri (fun j _ -> j <> i) !live
          | 2 when n_live () > 0 ->
              let i = v mod n_live () in
              let al, ap, size = List.nth !live i in
              let o = v mod size in
              ok :=
                !ok && Memory.read ml (al + o) = Memory.read mp (ap + o)
          | _ -> ())
        script;
      let ul = Memory.usage ml and up = Memory.usage mp in
      let books m =
        let u = Memory.usage m in
        let reuse = counter_of m "mem.alloc.reuse" in
        counter_of m "mem.alloc.fresh" + reuse = u.Memory.allocated
        && Alloc.custody (Memory.allocator m) = u.Memory.freed - reuse
      in
      !ok
      && ul.Memory.allocated = up.Memory.allocated
      && ul.Memory.freed = up.Memory.freed
      && ul.Memory.live = up.Memory.live
      && ul.Memory.live_words = up.Memory.live_words
      && books ml && books mp)

(* {1 Cross-process churn: the steal / hand-off pipeline}

   Producer/consumer pairs over a shared ring: every block is freed on a
   different process than it was allocated on, so under [pooled] custody
   must flow back through exchange hand-offs and batch steals. *)

let churn ?policy ~alloc ~seed () =
  let procs = 8 and horizon = 40_000 in
  let config = { small with Config.cores = procs; alloc } in
  let mem = Memory.create config in
  let pairs = procs / 2 in
  let ring_cap = 64 in
  let ring =
    Array.init pairs (fun _ -> Memory.alloc mem ~tag:"ring" ~size:ring_cap)
  in
  let wpos = Array.make pairs 0 and rpos = Array.make pairs 0 in
  for p = 0 to pairs - 1 do
    for s = 0 to (ring_cap / 2) - 1 do
      Memory.write mem (ring.(p) + s) (Memory.alloc mem ~tag:"node" ~size:4)
    done;
    wpos.(p) <- ring_cap / 2
  done;
  let res =
    Sim.run ?policy ~seed ~config ~procs (fun pid ->
        let p = pid / 2 in
        if pid land 1 = 0 then
          while Proc.now () < horizon do
            let slot = ring.(p) + (wpos.(p) mod ring_cap) in
            if Memory.read mem slot = 0 then begin
              let a = Memory.alloc mem ~tag:"node" ~size:4 in
              Memory.write mem a pid;
              Memory.write mem slot a;
              wpos.(p) <- wpos.(p) + 1
            end
          done
        else
          while Proc.now () < horizon do
            let slot = ring.(p) + (rpos.(p) mod ring_cap) in
            let a = Memory.read mem slot in
            if a <> 0 then begin
              Memory.write mem slot 0;
              Memory.free mem a; (* lint: allow-free *)
              rpos.(p) <- rpos.(p) + 1
            end
          done)
  in
  (mem, res)

let chaos = Sim.Chaos { pause_prob = 0.05; pause_steps = 40 }

let test_steals_and_handoffs_under_chaos () =
  let mem, res = churn ~policy:chaos ~alloc:Config.Pooled ~seed:11 () in
  Alcotest.(check int) "no faults" 0 (List.length res.Sim.faults);
  Alcotest.(check bool) "local pool hits" true (counter_of mem "mem.pool.local" > 0);
  Alcotest.(check bool) "batches handed off" true
    (counter_of mem "mem.pool.handoffs" > 0);
  Alcotest.(check bool) "batches stolen" true
    (counter_of mem "mem.pool.steals" > 0)

(* The constant-time property: no operation, under any of these
   adversarial schedules, touches more than [exchange_slots] probe words
   plus two batches of metadata. *)
let test_constant_time_bound () =
  List.iter
    (fun (policy, seed) ->
      let mem, res = churn ?policy ~alloc:Config.Pooled ~seed () in
      Alcotest.(check int) "no faults" 0 (List.length res.Sim.faults);
      let touch = Alloc.max_touch (Memory.allocator mem) in
      Alcotest.(check bool) "pooled ops touched metadata" true (touch > 0);
      Alcotest.(check bool)
        (Printf.sprintf "max_touch %d <= exchange_slots + 2" touch)
        true
        (touch <= Alloc.exchange_slots + 2))
    [
      (Some chaos, 11);
      (Some (Sim.Chaos { pause_prob = 0.2; pause_steps = 200 }), 3);
      (None, 7);
    ]

(* {1 Sanitizer over the pooled reuse order} *)

(* Quarantine FIFO semantics survive the pooled pools: quarantined
   blocks are not reusable, the overflow releases the oldest entry into
   the freeing process's own pool, and it comes back zeroed. *)
let test_quarantine_fifo_pooled () =
  let config =
    {
      small with
      Config.alloc = Config.Pooled;
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
  let d = Memory.alloc m ~tag:"q" ~size:1 in
  Alcotest.(check bool) "quarantined blocks not reused" true (d <> a && d <> b);
  Memory.free m c; (* lint: allow-free *)
  let e = Memory.alloc m ~tag:"q" ~size:1 in
  Alcotest.(check int) "oldest quarantined block released first" a e;
  Alcotest.(check int) "released block zeroed" 0 (Memory.peek m e)

(* The ABA-masked use-after-free from the sanitizer suite, replayed over
   the pooled allocator: the process-local pool is LIFO just like the
   legacy freelist, so the bare heap still reuses the same address and
   provably cannot object — and quarantine still converts the same
   schedule into a caught fault. *)
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
          wait 1;
          let w = Memory.read mem cell in
          phase := 2;
          wait 3;
          ignore (Memory.read mem (Word.to_addr w))
        end)
  in
  (res, !first_addr, !second_addr)

let test_aba_pooled () =
  let base = { small with Config.cores = 2; alloc = Config.Pooled } in
  let res, a1, a2 = aba_schedule base in
  Alcotest.(check int) "pooled pool reused the same address" a1 a2;
  Alcotest.(check int) "base heap saw nothing wrong" 0
    (List.length res.Sim.faults);
  let res, a1, a2 =
    aba_schedule
      {
        base with
        Config.sanitize =
          { Sanitizer.shadow = true; quarantine = 4; protocol = false; leaks = false };
      }
  in
  Alcotest.(check bool) "quarantine blocked the reuse" true (a1 <> a2);
  Alcotest.(check bool) "stale dereference faulted in the reader" true
    (List.exists
       (function
         | { Sim.exn = Memory.Fault { kind = Memory.Use_after_free; _ }; pid } ->
             pid = 0
         | _ -> false)
       res.Sim.faults)

(* The protection auditor stays clean when a full DRC list workload runs
   over the pooled allocator: the new reuse order must not manufacture
   protocol reports (or hide real ones behind different addresses). *)
let test_auditor_clean_pooled () =
  let config =
    {
      small with
      Config.cores = 4;
      alloc = Config.Pooled;
      sanitize = Sanitizer.default_on;
    }
  in
  let mem = Memory.create config in
  let module L = Cds.List_rc.Plain in
  let t = L.create mem ~procs:4 in
  let setup = L.handle t (-1) in
  for k = 0 to 15 do
    ignore (L.insert setup (2 * k))
  done;
  let res =
    Sim.run ~config ~procs:4 (fun pid ->
        let h = L.handle t pid in
        let rng = Proc.rng () in
        for _ = 1 to 150 do
          let k = Rng.int rng 32 in
          match Rng.int rng 4 with
          | 0 -> ignore (L.insert h k)
          | 1 -> ignore (L.delete h k)
          | _ -> ignore (L.contains h k)
        done)
  in
  L.flush t;
  Alcotest.(check int) "no faults" 0 (List.length res.Sim.faults);
  Alcotest.(check int) "no sanitizer reports" 0
    (List.length (Memory.sanitizer_reports mem))

(* {1 Pooled beats legacy under modeled contention}

   The two allocation-bound shapes, run with [Config.alloc_contention]
   on (off everywhere else), so that the legacy freelist's one shared
   head line costs an ownership transfer per alloc and per free. Both
   allocate and free through [Memory] directly, to a fixed virtual
   horizon, and compare completed operations per simulated megatick:

   - queue: P/2 producer/consumer pairs share one single-producer
     single-consumer ring of node addresses each, prefilled deep. Every
     free lands on another process than the alloc, so pooled blocks
     flow back through hand-offs and batch steals;
   - list: each process keeps a 64-node FIFO list of 2-word nodes,
     allocating at the head and freeing at the tail. All reuse is
     process-local, where pooled runs its local push/pop on lines it
     owns. *)

let churn_procs = 16

let churn_horizon = 250_000

let queue_churn mem ops =
  let ring_cap = 256 and ring_prefill = 192 and node_words = 4 in
  let pairs = churn_procs / 2 in
  (* Each ring's write and read index is owned by one process, so both
     live host-side; 0 is an empty slot. *)
  let ring =
    Array.init pairs (fun _ -> Memory.alloc mem ~tag:"ring" ~size:ring_cap)
  in
  let wpos = Array.make pairs ring_prefill and rpos = Array.make pairs 0 in
  for p = 0 to pairs - 1 do
    for s = 0 to ring_prefill - 1 do
      let a = Memory.alloc mem ~tag:"qnode" ~size:node_words in
      Memory.write mem a (1000 + s);
      Memory.write mem (ring.(p) + s) a
    done
  done;
  fun pid ->
    let p = pid / 2 in
    if pid land 1 = 0 then
      while Proc.now () < churn_horizon do
        let slot = ring.(p) + (wpos.(p) mod ring_cap) in
        if Memory.read mem slot = 0 then begin
          let a = Memory.alloc mem ~tag:"qnode" ~size:node_words in
          Memory.write mem a (pid + ops.(pid));
          Memory.write mem slot a;
          wpos.(p) <- wpos.(p) + 1;
          ops.(pid) <- ops.(pid) + 1
        end
      done
    else
      while Proc.now () < churn_horizon do
        let slot = ring.(p) + (rpos.(p) mod ring_cap) in
        let a = Memory.read mem slot in
        if a <> 0 then begin
          Memory.write mem slot 0;
          ignore (Memory.read mem a);
          Memory.free mem a; (* lint: allow-free *)
          rpos.(p) <- rpos.(p) + 1;
          ops.(pid) <- ops.(pid) + 1
        end
      done

let list_churn mem ops pid =
  let list_len = 64 in
  let fifo = Array.make list_len 0 in
  let head = ref 0 and len = ref 0 and pos = ref 0 in
  while Proc.now () < churn_horizon do
    let a = Memory.alloc mem ~tag:"lnode" ~size:2 in
    Memory.write mem (a + 1) !head;
    head := a;
    if !len = list_len then begin
      let old = fifo.(!pos) in
      ignore (Memory.read mem old);
      Memory.free mem old (* lint: allow-free *)
    end
    else incr len;
    fifo.(!pos) <- a;
    pos := (!pos + 1) mod list_len;
    ops.(pid) <- ops.(pid) + 1
  done

let ops_per_mtick case alloc =
  let config = { Config.default with Config.alloc; alloc_contention = true } in
  let mem = Memory.create config in
  let ops = Array.make churn_procs 0 in
  let res = Sim.run ~seed:42 ~config ~procs:churn_procs (case mem ops) in
  Alcotest.(check int) "no faults" 0 (List.length res.Sim.faults);
  1e6 *. float_of_int (Array.fold_left ( + ) 0 ops)
  /. float_of_int res.Sim.makespan

let test_pooled_beats_legacy () =
  List.iter
    (fun (name, case) ->
      let legacy = ops_per_mtick case Config.Legacy in
      let pooled = ops_per_mtick case Config.Pooled in
      Printf.printf "%s: pooled %.0f vs legacy %.0f ops/Mtick (%+.1f%%)\n%!"
        name pooled legacy
        (100.0 *. (pooled -. legacy) /. legacy);
      if not (pooled > legacy) then
        Alcotest.failf "%s: pooled %.0f ops/Mtick does not beat legacy %.0f"
          name pooled legacy)
    [ ("queue", queue_churn); ("list", list_churn) ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pooled_matches_legacy;
    Alcotest.test_case "steals/hand-offs under chaos" `Quick
      test_steals_and_handoffs_under_chaos;
    Alcotest.test_case "constant-time bound" `Quick test_constant_time_bound;
    Alcotest.test_case "quarantine fifo (pooled)" `Quick
      test_quarantine_fifo_pooled;
    Alcotest.test_case "aba reuse + quarantine (pooled)" `Quick
      test_aba_pooled;
    Alcotest.test_case "auditor-clean drc list (pooled)" `Quick
      test_auditor_clean_pooled;
    Alcotest.test_case "pooled beats legacy under modeled contention (queue, list)"
      `Quick test_pooled_beats_legacy;
  ]
