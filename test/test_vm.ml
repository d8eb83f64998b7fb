(* The compiled workload VM below the figure runners: the instruction
   stream codec, the fault-routing guarantees the flat dispatch path
   makes, and the leaf-call contract. That compiled points equal their
   closure oracle, for every scheme and policy, with every instrument,
   is the invariance harness's "vm off" modes ([test_invariance]). *)

open Simcore

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

(* {1 Address classes}

   Both engines validate with the one predicate {!Memcore.valid} and
   classify a failure through {!Memory.validate_addr}. Every class of
   address — null, past [top], the padding between a block's end and
   the end of its 16-word slot, a freed block, a live word — must give
   the same outcome as a compiled [READ]/[WRITE]/[CAS] and as
   {!Memory.read}/[write]/[cas], with the run-ahead fast path on and
   off: the same fault kind, address and pid from each of two
   processes, or no fault at all. *)

type op = Rd | Wr | Cs

let op_name = function Rd -> "read" | Wr -> "write" | Cs -> "cas"

(* Each class picks its address from (live block, freed block, top);
   both blocks are 3 words long. *)
let classes =
  Memory.
    [
      ("null", (fun _ -> 0), Some Null_deref);
      ("past top", (fun (_, _, top) -> top + 3), Some Out_of_bounds);
      ("slot padding", (fun (live, _, _) -> live + 5), Some Out_of_bounds);
      ("freed", (fun (_, freed, _) -> freed + 1), Some Use_after_free);
      ("live", (fun (live, _, _) -> live + 1), None);
    ]

(* Each process pays, then accesses the address once: the faults as
   (pid, kind, tag), in the order the run recorded them, each checked to
   name its own process and the address accessed. *)
let class_outcome ~compiled ~fastpath op addr_of =
  let config = { Config.small with Config.vm = true } in
  let mem = Memory.create config in
  let live = Memory.alloc mem ~tag:"live" ~size:3 in
  let freed = Memory.alloc mem ~tag:"freed" ~size:3 in
  Memory.free mem freed (* lint: allow-free *);
  let a = addr_of (live, freed, (Memory.hot mem).Memcore.top) in
  let compiled_body _pid =
    let module A = Vm.Asm in
    let asm = A.create () in
    let r_a = A.reg asm and r_d = A.reg asm in
    A.payi asm 4;
    A.movi asm r_a a;
    A.movi asm r_d 7;
    (match op with
    | Rd -> A.read asm r_d r_a
    | Wr -> A.write asm r_a r_d
    | Cs -> A.cas asm r_d r_a ~expected:r_d ~desired:r_d);
    A.halt asm;
    let prog = A.assemble asm in
    Some
      (Vm.coroutine prog
         (Vm.frame prog ~mem ~rng:(Proc.rng ())
            ~cells:(Array.make prog.Vm.n_cells 0)))
  in
  let closure _pid =
    Proc.pay 4;
    match op with
    | Rd -> ignore (Memory.read mem a)
    | Wr -> Memory.write mem a 7
    | Cs -> ignore (Memory.cas mem a ~expected:7 ~desired:7)
  in
  let coroutine = if compiled then Some compiled_body else None in
  let res =
    Sim.run ~policy:Sim.Fair ~fastpath ~seed:5 ~config ~procs:2 ?coroutine
      closure
  in
  List.map
    (fun { Sim.pid; exn } ->
      match exn with
      | Memory.Fault { kind; addr; pid = fpid; tag } ->
          if fpid <> pid || addr <> a then
            Alcotest.failf "fault (pid %d, address %d) raised in process %d \
                            accessing %d"
              fpid addr pid a;
          (pid, kind, tag)
      | e -> Alcotest.failf "not a Memory.Fault: %s" (Printexc.to_string e))
    res.Sim.faults

let test_address_classes () =
  List.iter
    (fun (cls, addr_of, kind) ->
      List.iter
        (fun op ->
          List.iter
            (fun fastpath ->
              let name =
                Printf.sprintf "%s %s, fastpath=%b" cls (op_name op) fastpath
              in
              let closure =
                class_outcome ~compiled:false ~fastpath op addr_of
              in
              let kinds =
                List.sort_uniq compare (List.map (fun (_, k, _) -> k) closure)
              in
              (match kind with
              | Some k ->
                  Alcotest.(check int) (name ^ ": both processes fault") 2
                    (List.length closure);
                  if kinds <> [ k ] then
                    Alcotest.failf "%s: fault kind is not %s" name
                      (Memory.fault_kind_to_string k)
              | None ->
                  Alcotest.(check int) (name ^ ": no fault") 0
                    (List.length closure));
              if class_outcome ~compiled:true ~fastpath op addr_of <> closure
              then
                Alcotest.failf "%s: compiled faults differ from Memory's" name)
            [ true; false ])
        [ Rd; Wr; Cs ])
    classes

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
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "decode rejects malformed" `Quick test_decode_rejects;
    Alcotest.test_case "fault routing (inline + sanitized)" `Quick
      test_fault_routing;
    Alcotest.test_case "address classes fault alike (both engines)" `Quick
      test_address_classes;
    Alcotest.test_case "a paying leaf fails loudly (flat + exec)" `Quick
      test_leaf_contract;
  ]
