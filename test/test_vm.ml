(* The compiled workload VM must be invisible: the closure interpreter
   is the oracle, and a compiled point — driver loop, scheme ops, RNG
   draws, pays — must be bit-identical to it under every scheduling
   policy, for every scheme, with and without the run-ahead fast path.
   Plus the instruction stream codec and the fault-routing guarantees
   the flat dispatch path makes. *)

open Simcore

let policies =
  [
    ("fair", Sim.Fair);
    ("uniform", Sim.Uniform);
    ("chaos", Sim.Chaos { pause_prob = 0.03; pause_steps = 60 });
  ]

let vm_on = { Config.default with Config.vm = true }

let vm_off = { Config.default with Config.vm = false }

let point ~config ?fastpath ?on_heap ?profile policy m =
  Workload.Fig6.loadstore_point ~policy ?fastpath ~config ?on_heap ?profile m
    ~threads:8 ~horizon:2_500 ~seed:7 ~n_locs:8 ~p_store:0.3

(* Every scheme, every policy, plain, with the sanitizer's default
   modes and the race checker armed, and with the profiler armed:
   compiled = closure, field for field (ops, steps, makespan,
   throughput, memory series, full telemetry snapshot), and the heap's
   sanitizer and race report texts and the collapsed profile stacks
   agree. Schemes without compiled ops still exercise the compiled
   driver loop around a host call; armed, DRC's compiled acquire also
   emits its slot-protection notes, and profiled, its compiled eject
   enters and leaves the same [drc-defer] frames as the closure one. *)
let test_oracle_identity () =
  let armed c =
    { c with Config.sanitize = Sanitizer.default_on; race = Racecheck.default_on }
  in
  let run config ~profile policy m =
    let reports = ref ([], []) in
    let on_heap mem =
      reports := (Memory.sanitizer_reports mem, Memory.race_reports mem)
    in
    Profiler.mark ();
    let pt = point ~config ~on_heap ~profile policy m in
    let stacks = List.concat_map Profiler.collapsed (Profiler.recent ()) in
    (pt, !reports, stacks)
  in
  List.iter
    (fun (mode, instrument, profile) ->
      List.iter
        (fun (sname, m) ->
          List.iter
            (fun (pname, policy) ->
              let on, (san_on, race_on), st_on =
                run (instrument vm_on) ~profile policy m
              in
              let off, (san_off, race_off), st_off =
                run (instrument vm_off) ~profile policy m
              in
              let name what = Printf.sprintf "%s/%s%s: %s" sname pname mode what in
              Alcotest.(check bool) (name "vm on = off") true (on = off);
              Alcotest.(check bool) (name "non-trivial") true
                (on.Workload.Measure.ops > 0);
              Alcotest.(check (list string)) (name "sanitizer reports") san_off
                san_on;
              Alcotest.(check (list string)) (name "race reports") race_off race_on;
              Alcotest.(check (list (pair string int)))
                (name "collapsed stacks") st_off st_on;
              if profile && String.starts_with ~prefix:"DRC" sname then
                Alcotest.(check bool) (name "drc-defer frames") true
                  (List.exists
                     (fun (path, _) -> String.ends_with ~suffix:"drc-defer" path)
                     st_on))
            policies)
        Workload.Fig6.schemes)
    [
      ("", Fun.id, false);
      (" (sanitize + race)", armed, false);
      (" (profiled)", Fun.id, true);
    ]

(* The two elision layers compose: all four combinations of [Config.vm]
   and [fastpath] give the same point. *)
let test_vm_fastpath_cross () =
  let drc = List.assoc "DRC" Workload.Fig6.schemes in
  let runs =
    List.map
      (fun (config, fastpath) -> point ~config ~fastpath Sim.Fair drc)
      [ (vm_on, true); (vm_on, false); (vm_off, true); (vm_off, false) ]
  in
  match runs with
  | r0 :: rest ->
      List.iteri
        (fun i r ->
          Alcotest.(check bool)
            (Printf.sprintf "vm x fastpath combination %d" (i + 1))
            true (r = r0))
        rest
  | [] -> assert false

(* {1 Instruction stream codec} *)

(* A well-formed random stream: opcodes with the right operand counts,
   operand values spanning registers, immediates, and large addresses.
   [decode] must accept it and [encode] must reproduce it byte for
   byte. *)
let raw_stream_gen =
  QCheck.Gen.(
    let operand =
      frequency [ (4, int_range (-4) 64); (1, int_range 0 1_000_000) ]
    in
    let instr =
      int_range 0 (Array.length Vm.arity - 1) >>= fun op ->
      list_repeat Vm.arity.(op) operand >|= fun args -> op :: args
    in
    list_size (int_range 0 40) instr >|= fun l ->
    Array.of_list (List.concat l))

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"decode . encode = id on valid streams"
    (QCheck.make raw_stream_gen ~print:(fun a ->
         String.concat ";" (List.map string_of_int (Array.to_list a))))
    (fun raw ->
      match Vm.decode raw with
      | Some l -> Vm.encode l = raw
      | None -> false)

let test_decode_rejects () =
  Alcotest.(check bool)
    "bad opcode" true
    (Vm.decode [| Array.length Vm.arity |] = None);
  Alcotest.(check bool)
    "truncated operands" true
    (Vm.decode [| 2; 0; 1 |] = None);
  (* symbolic round trip through every shape of constructor *)
  let l =
    Vm.
      [
        Movi (0, 42);
        Read (1, 0);
        Cas (2, 0, 3, 4);
        Payi 7;
        Rngb (1, 0);
        Host 3;
        Leaf 4;
        Halt;
      ]
  in
  Alcotest.(check bool) "symbolic round trip" true (Vm.decode (Vm.encode l) = Some l)

(* {1 Fault routing}

   A bad address must fail identically however it is reached: the
   inline validation of the flat dispatch loop re-raises through
   {!Memory.validate_addr}, with or without an instrument armed — both
   must surface the same {!Memory.Fault} (same culprit address and
   process) out of [Sim.run], rendered by {!Memory.fault_to_string}.
   The program CASes a live word and pays, so the fault lands after
   elided pays, then reads a freed block. Its closure twin charges the
   same ticks. Returns the expected fault address. *)
let vm_fault ?(sanitize = Sanitizer.off) ?(race = Racecheck.off) ~compiled () =
  let config = { Config.small with Config.sanitize; race; Config.vm = true } in
  let mem = Memory.create config in
  let live = Memory.alloc mem ~tag:"live" ~size:1 in
  let a0 = Memory.alloc mem ~tag:"victim" ~size:1 in
  Memory.free mem a0 (* lint: allow-free *);
  let compiled_body _pid =
    let module A = Vm.Asm in
    let a = A.create () in
    let r_a = A.reg a and r_d = A.reg a and r_z = A.reg a in
    A.movi a r_a live;
    A.movi a r_d 1;
    A.movi a r_z 0;
    A.cas a r_d r_a ~expected:r_z ~desired:r_d;
    A.payi a 5;
    A.movi a r_a a0;
    A.read a r_d r_a;
    A.halt a;
    let prog = A.assemble a in
    let fr =
      Vm.frame prog ~mem ~rng:(Proc.rng ())
        ~cells:(Array.make prog.Vm.n_cells 0)
    in
    Some (Vm.coroutine prog fr)
  in
  let closure _pid =
    ignore (Memory.cas mem live ~expected:0 ~desired:1);
    Proc.pay 5;
    ignore (Memory.read mem a0)
  in
  let coroutine = if compiled then Some compiled_body else None in
  let res = Sim.run ~policy:Sim.Fair ~seed:3 ~config ~procs:1 ?coroutine closure in
  match res.Sim.faults with
  | [ { Sim.pid; exn } ] -> (a0, pid, exn, Memory.sanitizer_reports mem)
  | l -> Alcotest.failf "expected exactly one fault, got %d" (List.length l)

let check_fault name (a0, pid, exn, _) =
  Alcotest.(check int) (name ^ ": faulting pid") 0 pid;
  (match exn with
  | Memory.Fault { addr; pid = fpid; _ } ->
      Alcotest.(check int) (name ^ ": fault addr") a0 addr;
      Alcotest.(check int) (name ^ ": fault pid") 0 fpid
  | e -> Alcotest.failf "%s: not a Memory.Fault: %s" name (Printexc.to_string e));
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let s = Memory.fault_to_string exn in
  Alcotest.(check bool)
    (name ^ ": fault_to_string names the address")
    true
    (contains s (Printf.sprintf "addr=%d" a0))

(* Sanitized faults also match their closure twins in full: the
   rendered fault, and the sanitizer's report, whose provenance and
   faulting-access lines carry pids and virtual times. *)
let test_fault_routing () =
  check_fault "inline validation" (vm_fault ~compiled:true ());
  check_fault "race armed alone"
    (vm_fault ~race:Racecheck.default_on ~compiled:true ());
  let sanitize = Sanitizer.default_on in
  let render (_, _, exn, reports) = Memory.fault_to_string exn :: reports in
  let name = "sanitized (shadow) path" in
  let ((_, _, _, reports) as vm) = vm_fault ~sanitize ~compiled:true () in
  check_fault name vm;
  Alcotest.(check bool) (name ^ ": reported") true (reports <> []);
  Alcotest.(check (list string))
    (name ^ ": compiled fault and report = closure's")
    (render (vm_fault ~sanitize ~compiled:false ()))
    (render vm)

(* {1 Leaf host calls}

   A leaf must never pay. [leaf_run] runs a program whose leaf pays
   (or not) between two pays of its own, as a flat coroutine or under
   [Vm.exec] inside an ordinary process, with and without the run-ahead
   fast path, and returns the run's faults and how often the leaf ran. *)
let leaf_run ~pays ~compiled ~fastpath =
  let config = { Config.small with Config.vm = true } in
  let calls = ref 0 in
  let mem = Memory.create config in
  let program () =
    let module A = Vm.Asm in
    let a = A.create () in
    A.payi a 3;
    A.host_leaf a (fun _ ->
        incr calls;
        if pays then Proc.pay 1);
    A.payi a 3;
    A.halt a;
    let prog = A.assemble a in
    (prog, Vm.frame prog ~mem ~rng:(Proc.rng ()) ~cells:[||])
  in
  let coroutine _pid =
    let prog, fr = program () in
    Some (Vm.coroutine prog fr)
  in
  let body _pid =
    let prog, fr = program () in
    Vm.exec prog fr
  in
  let res =
    if compiled then
      Sim.run ~policy:Sim.Fair ~fastpath ~seed:1 ~config ~procs:2 ~coroutine
        (fun _ -> assert false)
    else Sim.run ~policy:Sim.Fair ~fastpath ~seed:1 ~config ~procs:2 body
  in
  (res.Sim.faults, !calls)

let test_leaf_contract () =
  List.iter
    (fun (engine, compiled) ->
      List.iter
        (fun fastpath ->
          let name what =
            Printf.sprintf "%s, fastpath=%b: %s" engine fastpath what
          in
          let faults, calls = leaf_run ~pays:false ~compiled ~fastpath in
          Alcotest.(check int) (name "a silent leaf runs") 2 calls;
          Alcotest.(check int) (name "a silent leaf is no fault") 0
            (List.length faults);
          let faults, _ = leaf_run ~pays:true ~compiled ~fastpath in
          Alcotest.(check int) (name "a paying leaf faults its process") 2
            (List.length faults);
          List.iter
            (fun { Sim.exn; _ } ->
              match exn with
              | Vm.Leaf_paid _ -> ()
              (* A flat coroutine has no handler for a pay that must
                 suspend: it fails before the check can. *)
              | Effect.Unhandled _ when compiled -> ()
              | e ->
                  Alcotest.failf "%s" (name ("unexpected " ^ Printexc.to_string e)))
            faults)
        [ true; false ])
    [ ("flat coroutine", true); ("Vm.exec", false) ]

let suite =
  [
    Alcotest.test_case "oracle identity (schemes x policies)" `Quick
      test_oracle_identity;
    Alcotest.test_case "vm x fastpath cross product" `Quick
      test_vm_fastpath_cross;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "decode rejects malformed" `Quick test_decode_rejects;
    Alcotest.test_case "fault routing (inline + sanitized)" `Quick
      test_fault_routing;
    Alcotest.test_case "a paying leaf fails loudly (flat + exec)" `Quick
      test_leaf_contract;
  ]
