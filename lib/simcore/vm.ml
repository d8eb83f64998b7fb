(* A register machine over flat int-array instruction streams, used to
   run the benchmarks' inner loops without re-entering the closure
   interpreter on every simulated instruction.

   The Figure 6a–6d driver compiles its hot loop (pick a location, run
   one scheme operation, bump the op counter, maybe sample) into [code]
   once per process, then [exec] dispatches it in a tight loop that
   touches only unboxed ints: registers, the shared {!Memcore} arrays,
   and a local tick accumulator. Everything that is rare or cold — an
   allocation, a reclamation scan, a sampling callback — stays an
   ordinary OCaml closure invoked by the [HOST] opcode, or — when it
   never pays — by the cheaper [LEAF] opcode. A [HOST] call runs in a
   fresh fiber, whose stack the runtime allocates and frees per call,
   so code with no compiled form (structure operations, the serving
   loop) runs in the closure driver, on its process's one fiber, rather
   than behind a [HOST] call per operation.

   Two invariants make the compiled path bit-identical to the closure
   path (which remains as the differential oracle, see
   test/test_invariance.ml):

   - {b Pays are exact, only batched.} [PAYI] and the memory
     opcodes charge the same tick sequence as {!Proc.pay}: a pay inside
     the granted run-ahead budget is elided (drawn from [env.budget]) and
     accumulated locally; any other pay, and every [HOST]/[HALT]/fault,
     first flushes the accumulator through [env.bulk_pay] — one clock
     update standing for the whole run of elided pays — and then behaves
     exactly like the closure path. A pay that exhausts the budget
     performs the {!Proc.Pay} effect from inside the dispatch loop; the
     whole loop is part of the process's fiber, so it suspends and
     resumes mid-instruction like any other simulated code.
   - {b Memory opcodes mirror {!Memory} exactly}: coherence cost, then
     pay, then validation, then the array access. With an instrument
     armed ([Memcore.san_on]: sanitizer or race checker) the opcode
     flushes its elided pays after validation and calls the observer
     the {!Memory} entry points call ({!Memory.instrument}), so
     shadow/protocol hooks, race verdicts and fault reports are
     identical. An inline validation failure re-raises through
     {!Memory.validate_addr}, producing the very same {!Memory.Fault}. *)

(* Outcome of running a host call in its own one-shot fiber: either it
   returned, or it performed a pay the dispatch loop must yield to the
   scheduler before continuing it (the thunk wraps the continuation). *)
type hosted = H_done | H_pay of int * (unit -> hosted)

type frame = {
  regs : int array;
  cells : int array;
  rng : Rng.t;
  mem : Memory.t;
  hc : Memcore.t;
  (* Resumption state: where the dispatch loop re-enters after a yield.
     [paid] marks a memory opcode whose cost was already charged (the
     re-dispatch skips straight to the access); [pending] a host call
     suspended mid-flight. *)
  mutable pc : int;
  mutable paid : bool;
  (* Elided-pay accumulator ([acc] ticks over [npays] pays) and the
     amount of an in-flight yield: frame fields rather than closure
     cells so a resume touches the one line the frame already owns. *)
  mutable acc : int;
  mutable npays : int;
  mutable yn : int;
  mutable pending : (unit -> hosted) option;
}

type program = {
  code : int array;
  tables : int array array;
  fconsts : float array;
  hosts : (frame -> unit) array;
  counters : (int * Telemetry.counter) array;
  n_regs : int;
  n_cells : int;
}

let frame p ~mem ~rng ~cells =
  assert (Array.length cells >= p.n_cells);
  {
    regs = Array.make (Int.max 1 p.n_regs) 0;
    cells;
    rng;
    mem;
    hc = Memory.hot mem;
    pc = 0;
    paid = false;
    acc = 0;
    npays = 0;
    yn = 0;
    pending = None;
  }

let flush_counters p fr =
  Array.iter
    (fun (cell, c) ->
      Telemetry.add c fr.cells.(cell);
      fr.cells.(cell) <- 0)
    p.counters

(* {1 Instruction set}

   Dense opcodes, operands inline in the stream. [r*] operands are
   register indices, [i] immediates (raw ints), [t] branch targets
   (absolute code indices), [#] host/table/fconst indices. *)

let op_halt = 0

let op_jmp = 1 (* t *)

let op_beq = 2 (* r1 r2 t *)

let op_bne = 3

let op_blt = 4

let op_beqi = 5 (* r i t *)

let op_bnei = 6

let op_blti = 7

let op_bgei = 8

let op_movi = 9 (* rd i *)

let op_mov = 10 (* rd rs *)

let op_add = 11 (* rd r1 r2 *)

let op_addi = 12 (* rd rs i *)

let op_shli = 13 (* rd rs i *)

let op_shri = 14 (* rd rs i; logical *)

let op_andi = 15 (* rd rs i *)

let op_read = 16 (* rd ra *)

let op_write = 17 (* ra rv *)

let op_cas = 18 (* rd ra re rv; rd = 0/1 *)

let op_faa = 19 (* rd ra rdelta *)

let op_faai = 20 (* rd ra i *)

let op_fas = 21 (* rd ra rv *)

let op_payi = 22 (* i *)

let op_now = 23 (* rd *)

let op_rngi = 24 (* rd i: Rng.int *)

let op_rngb = 25 (* rd #f: Rng.below, 0/1 *)

let op_host = 26 (* #h *)

let op_tab = 27 (* rd #t ri *)

let op_cellld = 28 (* rd #c *)

let op_cellinc = 29 (* #c i *)

let op_leaf = 30 (* #h *)

let n_opcodes = 31

(* Operand count per opcode (instruction size minus one). *)
let arity =
  [|
    0; 1; 3; 3; 3; 3; 3; 3; 3; 2; 2; 3; 3; 3; 3; 3; 2; 2; 4; 3; 3; 3; 1; 1;
    2; 2; 1; 3; 2; 2; 1;
  |]

let () = assert (Array.length arity = n_opcodes)

(* {1 Symbolic instructions}

   Used by the round-trip tests; the assembler below emits the packed
   stream directly. *)

type instr =
  | Halt
  | Jmp of int
  | Beq of int * int * int
  | Bne of int * int * int
  | Blt of int * int * int
  | Beqi of int * int * int
  | Bnei of int * int * int
  | Blti of int * int * int
  | Bgei of int * int * int
  | Movi of int * int
  | Mov of int * int
  | Add of int * int * int
  | Addi of int * int * int
  | Shli of int * int * int
  | Shri of int * int * int
  | Andi of int * int * int
  | Read of int * int
  | Write of int * int
  | Cas of int * int * int * int
  | Faa of int * int * int
  | Faai of int * int * int
  | Fas of int * int * int
  | Payi of int
  | Now of int
  | Rngi of int * int
  | Rngb of int * int
  | Host of int
  | Leaf of int
  | Tab of int * int * int
  | Cellld of int * int
  | Cellinc of int * int

let encode instrs =
  let rev = ref [] in
  let push l = rev := List.rev_append l !rev in
  List.iter
    (fun i ->
      push
        (match i with
        | Halt -> [ op_halt ]
        | Jmp t -> [ op_jmp; t ]
        | Beq (a, b, t) -> [ op_beq; a; b; t ]
        | Bne (a, b, t) -> [ op_bne; a; b; t ]
        | Blt (a, b, t) -> [ op_blt; a; b; t ]
        | Beqi (r, i, t) -> [ op_beqi; r; i; t ]
        | Bnei (r, i, t) -> [ op_bnei; r; i; t ]
        | Blti (r, i, t) -> [ op_blti; r; i; t ]
        | Bgei (r, i, t) -> [ op_bgei; r; i; t ]
        | Movi (rd, i) -> [ op_movi; rd; i ]
        | Mov (rd, rs) -> [ op_mov; rd; rs ]
        | Add (rd, a, b) -> [ op_add; rd; a; b ]
        | Addi (rd, rs, i) -> [ op_addi; rd; rs; i ]
        | Shli (rd, rs, i) -> [ op_shli; rd; rs; i ]
        | Shri (rd, rs, i) -> [ op_shri; rd; rs; i ]
        | Andi (rd, rs, i) -> [ op_andi; rd; rs; i ]
        | Read (rd, ra) -> [ op_read; rd; ra ]
        | Write (ra, rv) -> [ op_write; ra; rv ]
        | Cas (rd, ra, re, rv) -> [ op_cas; rd; ra; re; rv ]
        | Faa (rd, ra, rdl) -> [ op_faa; rd; ra; rdl ]
        | Faai (rd, ra, i) -> [ op_faai; rd; ra; i ]
        | Fas (rd, ra, rv) -> [ op_fas; rd; ra; rv ]
        | Payi i -> [ op_payi; i ]
        | Now rd -> [ op_now; rd ]
        | Rngi (rd, i) -> [ op_rngi; rd; i ]
        | Rngb (rd, f) -> [ op_rngb; rd; f ]
        | Host h -> [ op_host; h ]
        | Leaf h -> [ op_leaf; h ]
        | Tab (rd, t, ri) -> [ op_tab; rd; t; ri ]
        | Cellld (rd, c) -> [ op_cellld; rd; c ]
        | Cellinc (c, i) -> [ op_cellinc; c; i ]))
    instrs;
  Array.of_list (List.rev !rev)

let decode code =
  let n = Array.length code in
  let rec go pc acc =
    if pc = n then Some (List.rev acc)
    else begin
      let op = code.(pc) in
      if op < 0 || op >= n_opcodes || pc + arity.(op) >= n then None
      else begin
        let a i = code.(pc + i) in
        let instr =
          if op = op_halt then Halt
          else if op = op_jmp then Jmp (a 1)
          else if op = op_beq then Beq (a 1, a 2, a 3)
          else if op = op_bne then Bne (a 1, a 2, a 3)
          else if op = op_blt then Blt (a 1, a 2, a 3)
          else if op = op_beqi then Beqi (a 1, a 2, a 3)
          else if op = op_bnei then Bnei (a 1, a 2, a 3)
          else if op = op_blti then Blti (a 1, a 2, a 3)
          else if op = op_bgei then Bgei (a 1, a 2, a 3)
          else if op = op_movi then Movi (a 1, a 2)
          else if op = op_mov then Mov (a 1, a 2)
          else if op = op_add then Add (a 1, a 2, a 3)
          else if op = op_addi then Addi (a 1, a 2, a 3)
          else if op = op_shli then Shli (a 1, a 2, a 3)
          else if op = op_shri then Shri (a 1, a 2, a 3)
          else if op = op_andi then Andi (a 1, a 2, a 3)
          else if op = op_read then Read (a 1, a 2)
          else if op = op_write then Write (a 1, a 2)
          else if op = op_cas then Cas (a 1, a 2, a 3, a 4)
          else if op = op_faa then Faa (a 1, a 2, a 3)
          else if op = op_faai then Faai (a 1, a 2, a 3)
          else if op = op_fas then Fas (a 1, a 2, a 3)
          else if op = op_payi then Payi (a 1)
          else if op = op_now then Now (a 1)
          else if op = op_rngi then Rngi (a 1, a 2)
          else if op = op_rngb then Rngb (a 1, a 2)
          else if op = op_host then Host (a 1)
          else if op = op_leaf then Leaf (a 1)
          else if op = op_tab then Tab (a 1, a 2, a 3)
          else if op = op_cellld then Cellld (a 1, a 2)
          else begin
            assert (op = op_cellinc);
            Cellinc (a 1, a 2)
          end
        in
        go (pc + 1 + arity.(op)) (instr :: acc)
      end
    end
  in
  go 0 []

(* {1 Assembler} *)

module Asm = struct
  type t = {
    mutable code : int array;
    mutable len : int;
    mutable n_regs : int;
    mutable label_pos : int array;  (* label -> code index; -1 unplaced *)
    mutable n_labels : int;
    mutable patches : (int * int) list;  (* operand index, label *)
    mutable hosts_rev : (frame -> unit) list;
    mutable n_hosts : int;
    mutable tables_rev : int array list;
    mutable n_tables : int;
    mutable fconsts_rev : float list;
    mutable n_fconsts : int;
    mutable counters_rev : (int * Telemetry.counter) list;
    mutable n_cells : int;
  }

  let create ?(cells = 0) () =
    {
      code = Array.make 64 0;
      len = 0;
      n_regs = 0;
      label_pos = Array.make 8 (-1);
      n_labels = 0;
      patches = [];
      hosts_rev = [];
      n_hosts = 0;
      tables_rev = [];
      n_tables = 0;
      fconsts_rev = [];
      n_fconsts = 0;
      counters_rev = [];
      n_cells = cells;
    }

  let reg a =
    let r = a.n_regs in
    a.n_regs <- r + 1;
    r

  let cell a =
    let c = a.n_cells in
    a.n_cells <- c + 1;
    c

  let counter_cell a c =
    let idx = cell a in
    a.counters_rev <- (idx, c) :: a.counters_rev;
    idx

  let label a =
    if a.n_labels >= Array.length a.label_pos then
      a.label_pos <-
        Memcore.grow_array a.label_pos ~needed:(a.n_labels + 1) ~fill:(-1);
    let l = a.n_labels in
    a.n_labels <- l + 1;
    l

  let place a l =
    assert (a.label_pos.(l) = -1);
    a.label_pos.(l) <- a.len

  let push a x =
    if a.len >= Array.length a.code then
      a.code <- Memcore.grow_array a.code ~needed:(a.len + 1) ~fill:0;
    a.code.(a.len) <- x;
    a.len <- a.len + 1

  let push_label a l =
    a.patches <- (a.len, l) :: a.patches;
    push a 0

  let hosted a op f =
    let i = a.n_hosts in
    a.hosts_rev <- f :: a.hosts_rev;
    a.n_hosts <- i + 1;
    push a op;
    push a i

  let host a f = hosted a op_host f

  let host_leaf a f = hosted a op_leaf f

  let table a arr =
    let i = a.n_tables in
    a.tables_rev <- arr :: a.tables_rev;
    a.n_tables <- i + 1;
    i

  let fconst a f =
    let i = a.n_fconsts in
    a.fconsts_rev <- f :: a.fconsts_rev;
    a.n_fconsts <- i + 1;
    i

  let halt a = push a op_halt

  let jmp a l =
    push a op_jmp;
    push_label a l

  let branch2 a op r1 r2 l =
    push a op;
    push a r1;
    push a r2;
    push_label a l

  let beq a r1 r2 l = branch2 a op_beq r1 r2 l

  let bne a r1 r2 l = branch2 a op_bne r1 r2 l

  let blt a r1 r2 l = branch2 a op_blt r1 r2 l

  let branchi a op r i l =
    push a op;
    push a r;
    push a i;
    push_label a l

  let beqi a r i l = branchi a op_beqi r i l

  let bnei a r i l = branchi a op_bnei r i l

  let blti a r i l = branchi a op_blti r i l

  let bgei a r i l = branchi a op_bgei r i l

  let emit2 a op x y =
    push a op;
    push a x;
    push a y

  let emit3 a op x y z =
    push a op;
    push a x;
    push a y;
    push a z

  let movi a rd i = emit2 a op_movi rd i

  let mov a rd rs = emit2 a op_mov rd rs

  let add a rd r1 r2 = emit3 a op_add rd r1 r2

  let addi a rd rs i = emit3 a op_addi rd rs i

  let shli a rd rs i = emit3 a op_shli rd rs i

  let shri a rd rs i = emit3 a op_shri rd rs i

  let andi a rd rs i = emit3 a op_andi rd rs i

  let read a rd ra = emit2 a op_read rd ra

  let write a ra rv = emit2 a op_write ra rv

  let cas a rd ra ~expected ~desired =
    push a op_cas;
    push a rd;
    push a ra;
    push a expected;
    push a desired

  let faa a rd ra rdelta = emit3 a op_faa rd ra rdelta

  let faai a rd ra i = emit3 a op_faai rd ra i

  let fas a rd ra rv = emit3 a op_fas rd ra rv

  let payi a i =
    push a op_payi;
    push a i

  let now a rd =
    push a op_now;
    push a rd

  let rngi a rd bound = emit2 a op_rngi rd bound

  let rngb a rd f = emit2 a op_rngb rd f

  let tab a rd t ri = emit3 a op_tab rd t ri

  let cellld a rd c = emit2 a op_cellld rd c

  let cellinc a c i = emit2 a op_cellinc c i

  let assemble a =
    let code = Array.sub a.code 0 a.len in
    List.iter
      (fun (at, l) ->
        let pos = a.label_pos.(l) in
        if pos < 0 then invalid_arg "Vm.Asm.assemble: unplaced label";
        code.(at) <- pos)
      a.patches;
    {
      code;
      tables = Array.of_list (List.rev a.tables_rev);
      fconsts = Array.of_list (List.rev a.fconsts_rev);
      hosts = Array.of_list (List.rev a.hosts_rev);
      counters = Array.of_list (List.rev a.counters_rev);
      n_regs = a.n_regs;
      n_cells = a.n_cells;
    }
end

(* {1 Execution}

   The dispatch loop is the simulator's innermost loop, so it is written
   for the code the OCaml compiler actually emits here: closure-mode
   ocamlopt, no flambda. The release build lets it read other modules'
   [.cmx], so the [@inline] helpers it shares with {!Memory}
   ({!Memcore.valid}, {!Proc.charge}) inline here as they do there, and
   the cost functions are direct calls. A dense integer [match]
   compiles to a jump table, every branch bumps [fr.pc] by its own
   constant (no [arity] lookup), and stream/register/cell accesses are
   unchecked — the indices come from {!Asm}, which only hands out dense
   register/cell ids and patches labels to instruction starts. The
   loop therefore trusts its program: running a hand-built stream that
   [decode] rejects is undefined behaviour. Heap accesses keep their
   checks: {!Memcore.valid} bounds-tests the address before the
   unchecked [words] load, exactly like {!Memory}.

   A {!coroutine} runs flat: a pay that must reach the scheduler saves
   the resumption state into the frame ([fr.pc], plus [paid] for a
   mid-memory-opcode charge or [pending] for a suspended host call) and
   {e returns} the tick amount — no effect is performed, no fiber is
   switched. The scheduler charges the pay, picks, and re-enters the
   coroutine by plain call. Host calls are the one place a fiber still
   exists: each runs under [host_handler] in its own one-shot fiber so
   that a pay from arbitrary OCaml code can suspend just that call.
   A leaf host call ([LEAF]) is the exception: its contract is that it
   never pays, so it is a plain OCaml call after the flush. Every pay
   moves the step counter (an elided one through [fast_pay], any other
   through the scheduler loop), so the loop checks the contract by
   comparing [gclock] across the call and fails the run on a change. *)

exception Halted

exception Yielded

(* Pays performed inside a [HOST] call land here instead of in the
   scheduler: the host runs in its own one-shot fiber, so the charge
   unwinds to the dispatch loop as an [H_pay] and the loop yields it
   like one of its own pays. *)
let host_handler : (unit, hosted) Effect.Deep.handler =
  let open Effect.Deep in
  {
    retc = (fun () -> H_done);
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Proc.Pay n ->
            Some
              (fun (kk : (a, hosted) continuation) ->
                H_pay (n, fun () -> continue kk ()))
        | _ -> None);
  }

(* Unflushed elided pays: [fr.acc] ticks over [fr.npays] pays. Flushed
   through [bulk_pay] before anything that could observe clocks or the
   step counter — host calls, yields, faults, armed instruments, halt —
   so the accumulator is always empty when the coroutine returns. *)
let flush e fr =
  if fr.acc > 0 then begin
    e.Proc.bulk_pay fr.acc fr.npays;
    fr.acc <- 0;
    fr.npays <- 0
  end

(* Every pay site of the loop: [c] ticks, [pen] of them coherence
   penalty. The inline sites bypass [Proc.pay_split], so they make the
   profiler's floor/penalty charge ({!Proc.charge}) themselves, exactly
   once per pay. A pay inside the granted run-ahead budget is elided
   into the accumulator; any other flushes and yields [c], and the
   scheduler's round does the suspension's accounting. [mid] marks a
   memory opcode's mid-instruction pay: [fr.pc] still points at the
   opcode, and [fr.paid] makes the re-dispatch skip the charge
   (coherence state already transitioned) and go straight to the
   access — which, exactly like the closure path, happens after the
   suspension. Inlined, like [charge] and {!Memcore.valid}, so the
   dispatch loop makes no call on the elided path but the cost
   function's. *)
let[@inline] pay e fr c pen mid =
  Proc.charge e c pen;
  if e.Proc.fast && c < e.Proc.budget then begin
    e.Proc.budget <- e.Proc.budget - c;
    fr.acc <- fr.acc + c;
    fr.npays <- fr.npays + 1
  end
  else begin
    flush e fr;
    fr.paid <- mid;
    fr.yn <- c;
    raise_notrace Yielded
  end

(* A memory opcode's charge — coherence transition, then pay — as
   {!Memory}'s prelude computes it; skipped on the re-dispatch after its
   own yield. *)
let[@inline] charge e fr hc ~write a =
  if fr.paid then fr.paid <- false
  else if write then begin
    let c = Memcore.cost_write hc ~pid:e.Proc.pid ~addr:a in
    pay e fr c (c - hc.Memcore.c_rmw_owned) true
  end
  else begin
    let c = Memcore.cost_read hc ~pid:e.Proc.pid ~addr:a in
    pay e fr c (c - hc.Memcore.c_l1) true
  end

(* An address that fails {!Memcore.valid}: flush, then materialize the
   exact {!Memory.Fault} through the slow path (which never returns). *)
let vfail e fr a =
  flush e fr;
  Memory.validate_addr fr.mem a;
  assert false

exception Leaf_paid of int

let () =
  Printexc.register_printer (function
    | Leaf_paid pc ->
        Some (Printf.sprintf "Vm: the leaf host call at code index %d paid" pc)
    | _ -> None)

(* A leaf: flush, then a plain call; a moved step counter means it paid. *)
let[@inline never] leaf e fr h base =
  flush e fr;
  let steps = e.Proc.gclock () in
  h fr;
  if e.Proc.gclock () <> steps then raise (Leaf_paid base)

let coroutine p fr =
  let e =
    match Proc.get_env () with
    | Some e -> e
    | None -> invalid_arg "Vm.coroutine: not inside a simulation"
  in
  let code = p.code in
  let regs = fr.regs in
  let cells = fr.cells in
  let hc = fr.hc in
  let rng = fr.rng in
  let mem = fr.mem in
  (* With an instrument armed ([Memcore.san_on]), a memory opcode that
     has paid and validated flushes — so the instruments read the
     closure path's virtual time — and calls the observer the {!Memory}
     entry points call, at the same point of the access. *)
  let observe kind a =
    flush e fr;
    Memory.instrument mem e kind a
  in
  (* A host call's outcome: returned, or parked in the frame on a pay
     the loop yields (resumed before the next dispatch). *)
  let park = function
    | H_done -> ()
    | H_pay (n, t) ->
        fr.pending <- Some t;
        fr.yn <- n;
        raise_notrace Yielded
  in
  fun () ->
    try
      (match fr.pending with
      | Some t ->
          fr.pending <- None;
          park (t ())
      | None -> ());
      while true do
        let base = fr.pc in
        match Array.unsafe_get code base with
        | 0 (* HALT *) -> raise_notrace Halted
        | 1 (* JMP t *) -> fr.pc <- Array.unsafe_get code (base + 1)
        | 2 (* BEQ r1 r2 t *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 = Array.unsafe_get regs (Array.unsafe_get code (base + 2))
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 3 (* BNE *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 <> Array.unsafe_get regs (Array.unsafe_get code (base + 2))
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 4 (* BLT *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 < Array.unsafe_get regs (Array.unsafe_get code (base + 2))
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 5 (* BEQI r i t *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 = Array.unsafe_get code (base + 2)
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 6 (* BNEI *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 <> Array.unsafe_get code (base + 2)
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 7 (* BLTI *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 < Array.unsafe_get code (base + 2)
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 8 (* BGEI *) ->
            fr.pc <-
              (if
                 Array.unsafe_get regs (Array.unsafe_get code (base + 1))
                 >= Array.unsafe_get code (base + 2)
               then Array.unsafe_get code (base + 3)
               else base + 4)
        | 9 (* MOVI rd i *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get code (base + 2));
            fr.pc <- base + 3
        | 10 (* MOV rd rs *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2)));
            fr.pc <- base + 3
        | 11 (* ADD rd r1 r2 *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2))
              + Array.unsafe_get regs (Array.unsafe_get code (base + 3)));
            fr.pc <- base + 4
        | 12 (* ADDI rd rs i *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2))
              + Array.unsafe_get code (base + 3));
            fr.pc <- base + 4
        | 13 (* SHLI rd rs i *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2))
              lsl Array.unsafe_get code (base + 3));
            fr.pc <- base + 4
        | 14 (* SHRI rd rs i *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2))
              lsr Array.unsafe_get code (base + 3));
            fr.pc <- base + 4
        | 15 (* ANDI rd rs i *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2))
              land Array.unsafe_get code (base + 3));
            fr.pc <- base + 4
        | 16 (* READ rd ra *) ->
            let a = Array.unsafe_get regs (Array.unsafe_get code (base + 2)) in
            charge e fr hc ~write:false a;
            if not (Memcore.valid hc a) then vfail e fr a;
            if hc.Memcore.san_on then observe Racecheck.Read a;
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get hc.Memcore.words a);
            fr.pc <- base + 3
        | 17 (* WRITE ra rv *) ->
            let a = Array.unsafe_get regs (Array.unsafe_get code (base + 1)) in
            charge e fr hc ~write:true a;
            if not (Memcore.valid hc a) then vfail e fr a;
            if hc.Memcore.san_on then observe Racecheck.Write a;
            Array.unsafe_set hc.Memcore.words a
              (Array.unsafe_get regs (Array.unsafe_get code (base + 2)));
            fr.pc <- base + 3
        | 18 (* CAS rd ra re rv *) ->
            let a = Array.unsafe_get regs (Array.unsafe_get code (base + 2)) in
            charge e fr hc ~write:true a;
            if not (Memcore.valid hc a) then vfail e fr a;
            if hc.Memcore.san_on then observe Racecheck.Rmw a;
            if
              Array.unsafe_get hc.Memcore.words a
              = Array.unsafe_get regs (Array.unsafe_get code (base + 3))
            then begin
              Array.unsafe_set hc.Memcore.words a
                (Array.unsafe_get regs (Array.unsafe_get code (base + 4)));
              Array.unsafe_set regs (Array.unsafe_get code (base + 1)) 1
            end
            else Array.unsafe_set regs (Array.unsafe_get code (base + 1)) 0;
            fr.pc <- base + 5
        | (19 | 20) as op (* FAA rd ra rdelta, FAAI rd ra i *) ->
            let a = Array.unsafe_get regs (Array.unsafe_get code (base + 2)) in
            charge e fr hc ~write:true a;
            if not (Memcore.valid hc a) then vfail e fr a;
            if hc.Memcore.san_on then observe Racecheck.Rmw a;
            let d = Array.unsafe_get code (base + 3) in
            let d = if op = 19 then Array.unsafe_get regs d else d in
            let old = Array.unsafe_get hc.Memcore.words a in
            Array.unsafe_set hc.Memcore.words a (old + d);
            Array.unsafe_set regs (Array.unsafe_get code (base + 1)) old;
            fr.pc <- base + 4
        | 21 (* FAS rd ra rv *) ->
            let a = Array.unsafe_get regs (Array.unsafe_get code (base + 2)) in
            charge e fr hc ~write:true a;
            if not (Memcore.valid hc a) then vfail e fr a;
            if hc.Memcore.san_on then observe Racecheck.Rmw a;
            let old = Array.unsafe_get hc.Memcore.words a in
            Array.unsafe_set hc.Memcore.words a
              (Array.unsafe_get regs (Array.unsafe_get code (base + 3)));
            Array.unsafe_set regs (Array.unsafe_get code (base + 1)) old;
            fr.pc <- base + 4
        | 22 (* PAYI i *) ->
            (* Instruction-boundary pay: [fr.pc] is already on the next
               instruction, so a yield resumes right after it. *)
            fr.pc <- base + 2;
            let n = Array.unsafe_get code (base + 1) in
            if n > 0 then pay e fr n 0 false
        | 23 (* NOW rd *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (e.Proc.clock () + fr.acc);
            fr.pc <- base + 2
        | 24 (* RNGI rd i *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Rng.int rng (Array.unsafe_get code (base + 2)));
            fr.pc <- base + 3
        | 25 (* RNGB rd #f *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (if
                 Rng.below rng
                   (Array.unsafe_get p.fconsts
                      (Array.unsafe_get code (base + 2)))
               then 1
               else 0);
            fr.pc <- base + 3
        | 26 (* HOST #h *) ->
            fr.pc <- base + 2;
            flush e fr;
            let h = Array.unsafe_get p.hosts (Array.unsafe_get code (base + 1)) in
            park (Effect.Deep.match_with h fr host_handler)
        | 27 (* TAB rd #t ri *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get p.tables (Array.unsafe_get code (base + 2))).(Array.unsafe_get
                                                                                regs
                                                                                (Array.unsafe_get
                                                                                   code
                                                                                   (base
                                                                                  + 3)));
            fr.pc <- base + 4
        | 28 (* CELLLD rd #c *) ->
            Array.unsafe_set regs
              (Array.unsafe_get code (base + 1))
              (Array.unsafe_get cells (Array.unsafe_get code (base + 2)));
            fr.pc <- base + 3
        | 29 (* CELLINC #c i *) ->
            let c = Array.unsafe_get code (base + 1) in
            Array.unsafe_set cells c
              (Array.unsafe_get cells c + Array.unsafe_get code (base + 2));
            fr.pc <- base + 3
        | 30 (* LEAF #h *) ->
            fr.pc <- base + 2;
            leaf e fr
              (Array.unsafe_get p.hosts (Array.unsafe_get code (base + 1)))
              base
        | _ -> assert false
      done;
      assert false
    with
    | Halted ->
        flush e fr;
        -1
    | Yielded -> fr.yn

(* Fiber-mode execution for callers running inside an ordinary simulated
   process: drive the coroutine to completion, forwarding each yielded
   pay through the {!Proc.Pay} effect (the coroutine has already flushed
   and updated its resumption state, so the perform suspends at exactly
   the tick a flat run would). *)
let exec p fr =
  let co = coroutine p fr in
  let rec go () =
    let r = co () in
    if r >= 0 then begin
      Effect.perform (Proc.Pay r);
      go ()
    end
  in
  go ()
