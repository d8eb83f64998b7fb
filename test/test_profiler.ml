(* The virtual-time profiler: phase-conservation as a property over
   random annotated workloads, the collapsed-stack golden rendering,
   and the phase-stack overflow. That profiling perturbs no point, and
   that collapsed stacks do not depend on the engine, is the invariance
   harness's ([test_invariance]). *)

open Simcore
module Prof = Profiler

(* --- phase conservation: every paid tick lands in exactly one slot --- *)

(* A per-pid deterministic stream (no ambient randomness in tests
   either): the QCheck-generated seed is the only entropy source. *)
let conservation_prop (procs, seed, ops) =
  let prof = Prof.create ~label:"prop" () in
  let res =
    Sim.run ~profiler:prof ~config:Config.small ~procs (fun pid ->
        let s = ref (seed + (7919 * pid) + 1) in
        let next () =
          s := ((!s * 48271) + 11) land 0x3FFFFFFF;
          !s
        in
        let depth = ref 0 in
        for _ = 1 to ops do
          match next () mod 5 with
          | 0 | 1 -> Proc.pay (1 + (next () mod 9))
          | 2 ->
              (* unbalanced enters (some never popped) and pushes past
                 the packed-stack depth are both legal: overflow ticks
                 charge the deepest packed prefix *)
              Prof.enter (List.nth Prof.phases (next () mod 9));
              incr depth;
              Proc.pay (next () mod 4)
          | 3 ->
              (* exit without a matching enter must be a no-op *)
              Prof.exit ();
              if !depth > 0 then decr depth
          | _ ->
              Prof.with_phase
                (List.nth Prof.phases (next () mod 9))
                (fun () -> Proc.pay (1 + (next () mod 6)))
        done)
  in
  let paid = Array.fold_left ( + ) 0 res.Sim.clocks in
  Prof.expected prof = paid
  && Prof.total prof = paid
  && Prof.conservation_ok prof
  && List.fold_left (fun a (_, v) -> a + v) 0 (Prof.leaf_totals prof) = paid
  && List.fold_left (fun a (_, v) -> a + v) 0 (Prof.collapsed prof) = paid

let conservation_test =
  QCheck.Test.make ~count:60
    ~name:"phase conservation over random annotated workloads"
    QCheck.(triple (int_range 1 5) (int_range 0 10_000) (int_range 0 60))
    conservation_prop

(* --- collapsed-stack golden: the exact flamegraph.pl rendering --- *)

let test_collapsed_golden () =
  let prof = Prof.create ~label:"golden" () in
  let res =
    Sim.run ~profiler:prof ~config:Config.small ~procs:1 (fun _ ->
        Proc.pay 5;
        Prof.with_phase Prof.Alloc (fun () -> Proc.pay 3);
        Prof.with_phase Prof.Cas_retry (fun () -> Proc.pay 4);
        Prof.with_phase Prof.Smr_scan (fun () ->
            Proc.pay 2;
            Prof.with_phase Prof.Free (fun () -> Proc.pay 7)))
  in
  Alcotest.(check int) "total paid ticks" 21
    (Array.fold_left ( + ) 0 res.Sim.clocks);
  Alcotest.(check bool) "conservation" true (Prof.conservation_ok prof);
  (* Root ticks collapse to the bare label (the empty stack has no
     phase frames); nested phases append name frames in stack order. *)
  Alcotest.(check (list (pair string int)))
    "collapsed stacks"
    [
      ("golden", 5);
      ("golden;alloc", 3);
      ("golden;cas-retry", 4);
      ("golden;smr-scan", 2);
      ("golden;smr-scan;free", 7);
    ]
    (Prof.collapsed prof);
  Alcotest.(check string) "collapsed_string (--profile-out payload)"
    "golden 5\n\
     golden;alloc 3\n\
     golden;cas-retry 4\n\
     golden;smr-scan 2\n\
     golden;smr-scan;free 7\n"
    (Prof.collapsed_string [ prof ]);
  (* Leaf aggregation: ticks classify by the top of their stack, root
     ticks as traverse. *)
  let lt = Prof.leaf_totals prof in
  List.iter
    (fun (ph, want) ->
      Alcotest.(check int)
        (Prof.phase_name ph ^ " leaf total")
        want (List.assoc ph lt))
    [
      (Prof.Traverse, 5);
      (Prof.Alloc, 3);
      (Prof.Cas_retry, 4);
      (Prof.Smr_scan, 2);
      (Prof.Free, 7);
      (Prof.Drc_defer, 0);
    ];
  (* The service layer's stall grouping: cas-retry ticks are retry
     stalls; smr-scan and anything nested under it are reclamation. *)
  let tot, retry, reclaim = Prof.group_snapshot prof (Prof.pstate prof ~pid:0) in
  Alcotest.(check (list (pair string int)))
    "group snapshot (total, retry, reclaim)"
    [ ("total", 21); ("retry", 4); ("reclaim", 9) ]
    [ ("total", tot); ("retry", retry); ("reclaim", reclaim) ]

(* Pushes past the packed stack's depth budget must still conserve:
   overflow ticks charge the deepest packed prefix, and exits unwind
   the overflow count before the real stack. *)
let test_overflow_depth () =
  let prof = Prof.create ~label:"deep" () in
  let res =
    Sim.run ~profiler:prof ~config:Config.small ~procs:1 (fun _ ->
        for _ = 1 to 20 do
          Prof.enter Prof.Smr_scan
        done;
        Proc.pay 5;
        for _ = 1 to 20 do
          Prof.exit ()
        done;
        Proc.pay 2)
  in
  Alcotest.(check int) "expected = paid"
    (Array.fold_left ( + ) 0 res.Sim.clocks)
    (Prof.expected prof);
  Alcotest.(check bool) "conservation under overflow" true
    (Prof.conservation_ok prof);
  let deep_path =
    "deep;" ^ String.concat ";" (List.init 12 (fun _ -> "smr-scan"))
  in
  Alcotest.(check (list (pair string int)))
    "overflow ticks charge the deepest packed prefix"
    [ ("deep", 2); (deep_path, 5) ]
    (Prof.collapsed prof)

(* --- the slot trie against a packed-stack reference model --- *)

(* Phase-stack scripts: one per process, run concurrently so the
   processes share (and race to grow) the profiler's slot trie. [Demote]
   pays like a memory access and moves part of it to the coherence
   child; [Burst] drives the stack past its 12-level packing depth. *)
type op =
  | Enter of Prof.phase
  | Exit
  | With of Prof.phase * op list
  | Pay of int
  | Demote of int * int  (* pay c, then move pen <= c to coherence *)
  | Burst of Prof.phase * int

let rec show_op = function
  | Enter ph -> "enter " ^ Prof.phase_name ph
  | Exit -> "exit"
  | With (ph, ops) ->
      Printf.sprintf "with %s [%s]" (Prof.phase_name ph)
        (String.concat "; " (List.map show_op ops))
  | Pay n -> Printf.sprintf "pay %d" n
  | Demote (c, pen) -> Printf.sprintf "demote %d/%d" pen c
  | Burst (ph, k) -> Printf.sprintf "burst %s x%d" (Prof.phase_name ph) k

let gen_ops =
  let open QCheck.Gen in
  let phase = oneofl Prof.phases in
  let leaf =
    frequency
      [
        (3, map (fun ph -> Enter ph) phase);
        (3, return Exit);
        (3, map (fun n -> Pay n) (int_range 0 5));
        ( 2,
          int_range 1 6 >>= fun c ->
          map (fun pen -> Demote (c, pen)) (int_range 0 c) );
        (1, map2 (fun ph k -> Burst (ph, k)) phase (int_range 8 16));
      ]
  in
  sized_size (int_range 0 40)
  @@ fix (fun self n ->
         if n <= 1 then list_size (int_range 0 3) leaf
         else
           list_size (int_range 1 6)
             (frequency
                [
                  (4, leaf);
                  (1, map2 (fun ph ops -> With (ph, ops)) phase (self (n / 3)));
                ]))

(* The reference: each process's stack as a list of phases, top first,
   with the overflow count; ticks per (pid, stack bottom first). *)
let model scripts =
  let ticks = Hashtbl.create 64 in
  let charge pid stack n =
    let k = (pid, List.rev stack) in
    Hashtbl.replace ticks k (n + Option.value ~default:0 (Hashtbl.find_opt ticks k))
  in
  List.iteri
    (fun pid ops ->
      let stack = ref [] and depth = ref 0 and over = ref 0 in
      let push ph =
        if !depth >= 12 then incr over
        else begin
          stack := ph :: !stack;
          incr depth
        end
      in
      let pop () =
        if !over > 0 then decr over
        else
          match !stack with
          | _ :: rest ->
              stack := rest;
              decr depth
          | [] -> ()
      in
      let rec run = function
        | Enter ph -> push ph
        | Exit -> pop ()
        | With (ph, ops) ->
            push ph;
            List.iter run ops;
            pop ()
        | Pay n -> charge pid !stack n
        | Demote (c, pen) ->
            charge pid !stack (c - pen);
            charge pid (Prof.Coherence :: !stack) pen
        | Burst (ph, k) -> for _ = 1 to k do push ph done
      in
      List.iter run ops)
    scripts;
  ticks

let trie_prop scripts =
  let prof = Prof.create ~label:"trie" () in
  let procs = List.length scripts in
  let scripts_a = Array.of_list scripts in
  ignore
    (Sim.run ~profiler:prof ~config:Config.small ~procs (fun pid ->
         let rec run = function
           | Enter ph -> Prof.enter ph
           | Exit -> Prof.exit ()
           | With (ph, ops) -> Prof.with_phase ph (fun () -> List.iter run ops)
           | Pay n -> Proc.pay n
           | Demote (c, pen) -> (
               Proc.pay c;
               match Proc.get_env () with
               | Some e -> Prof.demote e pen
               | None -> ())
           | Burst (ph, k) -> for _ = 1 to k do Prof.enter ph done
         in
         List.iter run scripts_a.(pid)));
  let ticks = model scripts in
  let sum f =
    Hashtbl.fold (fun k v acc -> if f k then acc + v else acc) ticks 0
  in
  let stacks =
    List.sort_uniq compare (Hashtbl.fold (fun (_, st) _ acc -> st :: acc) ticks [])
  in
  let collapsed =
    List.filter_map
      (fun st ->
        let v = sum (fun (_, st') -> st' = st) in
        if v > 0 then
          Some (String.concat ";" ("trie" :: List.map Prof.phase_name st), v)
        else None)
      stacks
    |> List.sort compare
  in
  let leaf st = match List.rev st with [] -> Prof.Traverse | ph :: _ -> ph in
  let leaf_totals =
    List.map (fun ph -> (ph, sum (fun (_, st) -> leaf st = ph))) Prof.phases
  in
  let group pid =
    let mine f = sum (fun (p, st) -> p = pid && f st) in
    let retry st = List.mem Prof.Cas_retry st in
    let reclaim st =
      (not (retry st))
      && List.exists (fun ph -> List.mem ph [ Prof.Smr_scan; Drc_defer; Free ]) st
    in
    (mine (fun _ -> true), mine retry, mine reclaim)
  in
  Prof.collapsed prof = collapsed
  && Prof.leaf_totals prof = leaf_totals
  && List.for_all
       (fun pid -> Prof.group_snapshot prof (Prof.pstate prof ~pid) = group pid)
       (List.init procs Fun.id)

let trie_test =
  QCheck.Test.make ~count:200
    ~name:"slot trie = packed-stack model (collapsed, leaves, groups)"
    (QCheck.make
       ~print:(fun scripts ->
         String.concat "\n"
           (List.mapi
              (fun pid ops ->
                Printf.sprintf "pid %d: %s" pid
                  (String.concat "; " (List.map show_op ops)))
              scripts))
       QCheck.Gen.(list_size (int_range 1 4) gen_ops))
    trie_prop

let suite =
  [
    QCheck_alcotest.to_alcotest conservation_test;
    QCheck_alcotest.to_alcotest trie_test;
    Alcotest.test_case "collapsed-stack golden" `Quick test_collapsed_golden;
    Alcotest.test_case "phase-stack overflow conserves" `Quick
      test_overflow_depth;
  ]
