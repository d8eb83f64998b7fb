(* The FastTrack-style race analyzer: mode parsing through the shared
   tokenizer, seeded races reported two-sided with provenance, the
   synchronization edges that keep correct protocols quiet (RMW
   publication, annotated single-writer words, allocation custody, run
   barriers), and identical verdicts on racy code across both
   execution engines and fastpath modes. Raced benchmark points equal
   plain ones in the invariance harness ([test_invariance]). *)

open Simcore

let race_on = Racecheck.default_on

let config = { Config.small with Config.cores = 2; race = race_on }

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let reports_mention mem sub =
  List.exists (fun r -> contains_sub r sub) (Memory.race_reports mem)

(* {1 Mode parsing} *)

let test_mode_parsing () =
  let ok s = Result.get_ok (Racecheck.mode_of_string s) in
  Alcotest.(check bool) "default = default_on" true
    (ok "default" = Racecheck.default_on);
  Alcotest.(check bool) "all = default_on" true (ok "all" = Racecheck.default_on);
  Alcotest.(check bool) "off is off" true (Racecheck.is_off (ok "off"));
  Alcotest.(check bool) "none is off" true (Racecheck.is_off (ok "none"));
  let hb = ok "hb" in
  Alcotest.(check bool) "hb alone" true
    (hb.Racecheck.hb && not hb.Racecheck.custody);
  let c = ok "custody" in
  Alcotest.(check bool) "custody alone" true
    (c.Racecheck.custody && not c.Racecheck.hb);
  Alcotest.(check bool) "hb,custody = default_on" true
    (ok "hb,custody" = Racecheck.default_on);
  (* The shared tokenizer names the spec and the accepted spellings. *)
  (match Racecheck.mode_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error e ->
      Alcotest.(check bool) "error names the race spec" true
        (contains_sub e "race" && contains_sub e "bogus"));
  Alcotest.(check bool) "off does not combine" true
    (Result.is_error (Racecheck.mode_of_string "off,hb"));
  (* Canonical round-trip through the printer. *)
  List.iter
    (fun m ->
      Alcotest.(check bool) "round-trip" true
        (ok (Racecheck.mode_to_string m) = m))
    [ Racecheck.off; Racecheck.default_on; hb; c ]

(* {1 Seeded races: each is reported two-sided with provenance} *)

let test_unfenced_publication () =
  let mem = Memory.create config in
  let slot = Memory.alloc mem ~tag:"slot" ~size:1 in
  ignore
    (Sim.run ~config ~procs:2 (fun pid ->
         if pid = 0 then begin
           let b = Memory.alloc mem ~tag:"payload" ~size:2 in
           Memory.write mem b 41;
           Memory.write mem (b + 1) 42;
           (* publish with a plain store: no release edge *)
           Memory.write mem slot b
         end
         else begin
           let rec wait () =
             let p = Memory.read mem slot in
             if p = 0 then wait ()
             else begin
               ignore (Memory.read mem p);
               ignore (Memory.read mem (p + 1))
             end
           in
           wait ()
         end));
  Alcotest.(check bool) "reported" true (Memory.race_report_count mem >= 1);
  Alcotest.(check bool) "two-sided" true
    (reports_mention mem "conflicts with earlier");
  Alcotest.(check bool) "names the reader" true
    (reports_mention mem "read by pid 1");
  Alcotest.(check bool) "names the writer" true
    (reports_mention mem "write by pid 0");
  Alcotest.(check bool) "alloc-site provenance" true
    (reports_mention mem "block allocated by pid 0")

let test_racy_counter_once_per_word () =
  let mem = Memory.create config in
  let ctr = Memory.alloc mem ~tag:"counter" ~size:1 in
  ignore
    (Sim.run ~config ~procs:2 (fun _pid ->
         for _ = 1 to 50 do
           let v = Memory.read mem ctr in
           Memory.write mem ctr (v + 1)
         done));
  (* 100 conflicting access pairs, one word: exactly one report. *)
  Alcotest.(check int) "one report per word" 1 (Memory.race_report_count mem);
  Alcotest.(check bool) "two-sided" true
    (reports_mention mem "conflicts with earlier")

let test_exchange_misuse () =
  let mem = Memory.create config in
  let slot = Memory.alloc mem ~tag:"xchg" ~size:1 in
  ignore
    (Sim.run ~config ~procs:2 (fun pid ->
         if pid = 0 then begin
           let b = Memory.alloc mem ~tag:"gift" ~size:1 in
           Memory.write mem b 7;
           (* hand the block off through the exchange slot (FAS is a
              release)... *)
           ignore (Memory.fas mem slot b);
           (* ...then misuse it: keep writing after the hand-off. *)
           Memory.write mem b 8
         end
         else begin
           let rec wait () =
             let p = Memory.fas mem slot 0 in
             if p = 0 then wait () else ignore (Memory.read mem p)
           in
           wait ()
         end));
  Alcotest.(check bool) "reported" true (Memory.race_report_count mem >= 1);
  Alcotest.(check bool) "two-sided" true
    (reports_mention mem "conflicts with earlier")

(* {1 Synchronization edges that keep correct code quiet} *)

(* Same shape as the unfenced publication, but the publishing store is
   an RMW: the reader's load of the (now promoted) slot acquires
   everything the writer did before the CAS. *)
let test_rmw_publication_clean () =
  let mem = Memory.create config in
  let slot = Memory.alloc mem ~tag:"slot" ~size:1 in
  ignore
    (Sim.run ~config ~procs:2 (fun pid ->
         if pid = 0 then begin
           let b = Memory.alloc mem ~tag:"payload" ~size:2 in
           Memory.write mem b 41;
           Memory.write mem (b + 1) 42;
           ignore (Memory.cas mem slot ~expected:0 ~desired:b)
         end
         else begin
           let rec wait () =
             let p = Memory.read mem slot in
             if p = 0 then wait ()
             else begin
               ignore (Memory.read mem p);
               ignore (Memory.read mem (p + 1))
             end
           in
           wait ()
         end));
  Alcotest.(check int) "no reports" 0 (Memory.race_report_count mem)

(* A single-writer register spelled with plain stores: annotating the
   flag word makes its stores releases and its loads acquires, so the
   guarded payload reads are ordered. Without the annotation the same
   schedule is the unfenced publication above. *)
let test_mark_sync_swmr_clean () =
  let mem = Memory.create config in
  let payload = Memory.alloc mem ~tag:"payload" ~size:1 in
  let flag = Memory.alloc mem ~tag:"flag" ~size:1 in
  Memory.mark_race_sync mem flag;
  ignore
    (Sim.run ~config ~procs:2 (fun pid ->
         if pid = 0 then begin
           Memory.write mem payload 99;
           Memory.write mem flag 1
         end
         else begin
           let rec wait () =
             if Memory.read mem flag = 0 then wait ()
             else ignore (Memory.read mem payload)
           in
           wait ()
         end));
  Alcotest.(check int) "no reports" 0 (Memory.race_report_count mem)

(* Benign reuse through the freelist: the new lifetime stamps every
   word with the allocating process's fresh epoch, so the previous
   owner's unordered accesses can never pair with the new ones — with
   or without the custody hand-off edges. *)
let test_benign_reuse_clean () =
  let check_mode race =
    let config = { config with Config.race } in
    let mem = Memory.create config in
    let phase = ref 0 in
    let first = ref 0 and second = ref 0 in
    ignore
      (Sim.run ~config ~procs:2 (fun pid ->
           if pid = 0 then begin
             let b = Memory.alloc mem ~tag:"node" ~size:2 in
             first := b;
             Memory.write mem b 1;
             ignore (Memory.read mem b);
             Memory.free mem b; (* lint: allow-free *)
             phase := 1
           end
           else begin
             while !phase < 1 do
               Proc.pay 5
             done;
             let b = Memory.alloc mem ~tag:"node" ~size:2 in
             second := b;
             Memory.write mem b 2;
             ignore (Memory.read mem b)
           end));
    Alcotest.(check int) "freelist reused the address" !first !second;
    Alcotest.(check int)
      ("no reports (" ^ Racecheck.mode_to_string race ^ ")")
      0 (Memory.race_report_count mem)
  in
  check_mode Racecheck.default_on;
  check_mode { Racecheck.hb = true; custody = false }

(* Run barriers: everything before a run happens-before every process
   of the run, including the outside-sim orchestrator (pid -1) and the
   processes of earlier runs on the same heap. *)
let test_run_barrier_clean () =
  let mem = Memory.create config in
  let a = Memory.alloc mem ~tag:"a" ~size:1 in
  let b = Memory.alloc mem ~tag:"b" ~size:1 in
  ignore
    (Sim.run ~config ~procs:2 (fun pid ->
         if pid = 0 then Memory.write mem a 1));
  (* Orchestrator writes between runs with no explicit edge. *)
  Memory.write mem b 2;
  ignore
    (Sim.run ~config ~procs:2 (fun pid ->
         if pid = 1 then begin
           ignore (Memory.read mem a);
           ignore (Memory.read mem b);
           Memory.write mem a 3
         end));
  Alcotest.(check int) "no reports across runs" 0
    (Memory.race_report_count mem)

(* One barrier per run: two runs back to back on one heap, with no
   orchestrator access between them. Each process of run 2 reads what
   the other process wrote in run 1, which only the run-2 barrier
   orders; a concurrent write inside run 2 must still report. A run
   token that never changed would leave the cross-run reads unordered
   and report them too. *)
let test_barrier_per_run () =
  let mem = Memory.create config in
  let a = Memory.alloc mem ~tag:"a" ~size:1 in
  let b = Memory.alloc mem ~tag:"b" ~size:1 in
  let w = Memory.alloc mem ~tag:"w" ~size:1 in
  ignore
    (Sim.run ~config ~procs:2 (fun pid ->
         Memory.write mem (if pid = 0 then a else b) (pid + 1)));
  Alcotest.(check int) "run 1 is clean" 0 (Memory.race_report_count mem);
  ignore
    (Sim.run ~config ~procs:2 (fun pid ->
         ignore (Memory.read mem (if pid = 0 then b else a));
         Memory.write mem w pid));
  Alcotest.(check int) "one report: the concurrent write" 1
    (Memory.race_report_count mem);
  Alcotest.(check bool) "it is on w" true (reports_mention mem "tag=w")

(* The access-info clamps are int compares now; they must agree with
   the polymorphic formula they replaced on every pid from -5 to 5000
   (the outside-sim -1 and every pid a run can pass included). *)
let prop_pack_clamps =
  let old_pid pid = Stdlib.min 4095 (Stdlib.max 0 (pid + 2)) in
  let mask = 0xFFFF_FFFF_FFFF in
  QCheck.Test.make ~count:50 ~name:"pack/pack_info clamps = polymorphic formula"
    QCheck.(pair (int_bound max_int) (int_range 0 7))
    (fun (time, ev) ->
      let ok = ref true in
      for pid = -5 to 5000 do
        let p = old_pid pid lsl 48 and t = time land mask in
        if
          Racecheck.pack_info pid time <> (p lor t)
          || Sanitizer.pack ev pid time <> ((ev lsl 60) lor p lor t)
        then ok := false
      done;
      !ok)

(* {1 Differential guarantees} *)

(* A racy counter plus a publication on two processes, as closures or
   assembled for the VM and run by [Vm.exec] (the same tick sequence:
   only the memory opcodes pay). Returns the race verdict. *)
let racy_verdict ~config ~fastpath ~seed ~iters ~compiled =
  let mem = Memory.create config in
  let ctr = Memory.alloc mem ~tag:"ctr" ~size:1 in
  let pub = Memory.alloc mem ~tag:"pub" ~size:1 in
  let closure pid =
    for _ = 1 to iters do
      let v = Memory.read mem ctr in
      Memory.write mem ctr (v + 1)
    done;
    if pid = 0 then Memory.write mem pub 1 else ignore (Memory.read mem pub)
  in
  let vm pid =
    let module A = Vm.Asm in
    let a = A.create () in
    let r_i = A.reg a and r_a = A.reg a and r_v = A.reg a in
    let loop = A.label a and done_ = A.label a in
    A.movi a r_a ctr;
    A.place a loop;
    A.bgei a r_i iters done_;
    A.read a r_v r_a;
    A.addi a r_v r_v 1;
    A.write a r_a r_v;
    A.addi a r_i r_i 1;
    A.jmp a loop;
    A.place a done_;
    A.movi a r_a pub;
    A.movi a r_v 1;
    if pid = 0 then A.write a r_a r_v else A.read a r_v r_a;
    A.halt a;
    let prog = A.assemble a in
    Vm.exec prog
      (Vm.frame prog ~mem ~rng:(Proc.rng ())
         ~cells:(Array.make prog.Vm.n_cells 0))
  in
  ignore
    (Sim.run ~fastpath ~seed ~config ~procs:2 (if compiled then vm else closure));
  (Memory.race_report_count mem, Memory.race_reports mem)

(* Racy workloads too: the fastpath must not change which races are
   found, nor the reported pids and times (schedules are bit-identical,
   so the report texts must be too). *)
let prop_fastpath_verdict_identity =
  QCheck.Test.make ~count:25
    ~name:"fastpath on/off: identical race verdicts"
    QCheck.(pair (int_range 0 999) (int_range 5 60))
    (fun (seed, iters) ->
      let run fastpath =
        racy_verdict ~config ~fastpath ~seed ~iters ~compiled:false
      in
      run true = run false)

(* And racy compiled code: the VM's armed memory opcodes flush their
   elided pays and then call the heap's observer, so its verdict —
   pids and virtual times included — must be the closure twin's. Pays
   are elided under [lookahead = 64] with the fastpath on, which is
   where a missing flush would show. *)
let prop_engine_verdict_racy =
  QCheck.Test.make ~count:25
    ~name:"compiled = closure: identical race verdicts on racy code"
    QCheck.(quad (int_range 0 999) (int_range 5 60) (oneofl [ 0; 64 ]) bool)
    (fun (seed, iters, lookahead, fastpath) ->
      let config = { config with Config.lookahead } in
      let run compiled = racy_verdict ~config ~fastpath ~seed ~iters ~compiled in
      let ((n, _) as vm) = run true in
      n > 0 && vm = run false)

(* One token per domain: raced cells run on two worker domains, whose
   runs interleave, report exactly what they report one after the
   other. Each cell is a raced Figure 6 point (clean) and a series of
   short runs on fresh heaps in which pid 1 reads, long after, a word
   pid 0 wrote: one report per run. A run starting in the other domain
   must not barrier this domain's run, or it would order the two
   accesses and hide the race. *)
let late_race seed =
  let mem = Memory.create config in
  let x = Memory.alloc mem ~tag:"x" ~size:1 in
  ignore
    (Sim.run ~seed ~config ~procs:2 (fun pid ->
         if pid = 0 then Memory.write mem x 1;
         for _ = 1 to 200 do
           Proc.pay 3
         done;
         if pid = 1 then ignore (Memory.read mem x)));
  Memory.race_reports mem

let test_barrier_per_domain () =
  let cell seed =
    let heap = ref None in
    let p =
      Workload.Fig6.loadstore_point ~race:race_on
        ~on_heap:(fun m -> heap := Some m)
        (module Rc_baselines.Drc_scheme.Plain)
        ~threads:4 ~horizon:20_000 ~seed ~n_locs:10 ~p_store:0.3
    in
    let fig6_reports =
      match !heap with Some m -> Memory.race_reports m | None -> []
    in
    (p, fig6_reports, List.init 40 (fun k -> late_race (seed + k)))
  in
  let seeds = [ 3; 4; 5; 6 ] in
  let seq = List.map cell seeds in
  let par =
    Domain_pool.with_pool ~jobs:2 (fun pool ->
        Domain_pool.map_ordered pool cell seeds)
  in
  List.iter2
    (fun (p, r, late) (p', r', late') ->
      Alcotest.(check bool) "same Figure 6 point" true (p = p');
      Alcotest.(check (list string)) "same Figure 6 reports" r r';
      Alcotest.(check (list (list string))) "same late-race reports" late late';
      List.iter
        (fun texts -> Alcotest.(check int) "one report per run" 1 (List.length texts))
        late)
    seq par

let suite =
  [
    Alcotest.test_case "mode parsing" `Quick test_mode_parsing;
    Alcotest.test_case "unfenced publication" `Quick test_unfenced_publication;
    Alcotest.test_case "racy counter: once per word" `Quick
      test_racy_counter_once_per_word;
    Alcotest.test_case "exchange hand-off misuse" `Quick test_exchange_misuse;
    Alcotest.test_case "RMW publication clean" `Quick test_rmw_publication_clean;
    Alcotest.test_case "mark_sync SWMR clean" `Quick test_mark_sync_swmr_clean;
    Alcotest.test_case "benign reuse clean" `Quick test_benign_reuse_clean;
    Alcotest.test_case "run barrier clean" `Quick test_run_barrier_clean;
    Alcotest.test_case "barrier per run" `Quick test_barrier_per_run;
    Alcotest.test_case "barrier per domain" `Quick test_barrier_per_domain;
    QCheck_alcotest.to_alcotest prop_pack_clamps;
    QCheck_alcotest.to_alcotest prop_fastpath_verdict_identity;
    QCheck_alcotest.to_alcotest prop_engine_verdict_racy;
  ]
  @ Test_racecheck_model.suite
