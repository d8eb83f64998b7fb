module M = Simcore.Memory
module Proc = Simcore.Proc
module Word = Simcore.Word
module Tele = Simcore.Telemetry
module San = Simcore.Sanitizer
module Prof = Simcore.Profiler
module Mset = Simcore.Int_set.Multi

type mode = [ `Lockfree | `Waitfree ]

(* An int stack: a retire pushes without consing, and a pop returns the
   most recent push, as the head of a list would. Grown by half its
   length, so it stays close to the most it has held (the stacks of
   every handle live as long as the heap). *)
module Istack = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = [||]; n = 0 }

  let push s w =
    if s.n = Array.length s.a then begin
      let a = Array.make (Int.max 8 (s.n + (s.n / 2))) 0 in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    Array.unsafe_set s.a s.n w;
    s.n <- s.n + 1

  let pop s =
    assert (s.n > 0);
    s.n <- s.n - 1;
    Array.unsafe_get s.a s.n
end

(* One in-progress ejectAll pass (deamortized, §6): phase 0 reads
   announcement slots into [plist], phase 1 diffs the snapshotted retired
   list against it. Each [eject] call's share of the pass runs in three
   parts. [plan] lays out its steps — which slots to read, how many
   handles to diff, whether the pass ends — and pays nothing: that
   control flow depends only on the slot cursor and the snapshot's
   length. Then the accesses run (slot reads, one-tick diff pays), as
   closure code or as compiled VM instructions. [finish] applies the
   words read and the diffs in step order and pays nothing either. *)
type pass = {
  mutable active : bool;
  mutable phase : int;
  mutable slot_cursor : int;
  plist : Mset.t;  (* announced addrs, with multiplicity *)
  scanning : Istack.t;  (* snapshot of the retired stack, top first *)
  mutable unplanned : int;  (* handles of [scanning] no plan diffs yet *)
  mutable n_ejected : int;  (* handles moved to [ejected] by this pass *)
  (* The current plan: [n_reads] reads of consecutive slots from index
     [read_from], then [n_diffs] diffs, [n_steps] steps in all; [ends]
     when its last step ends the pass; [pending] from the plan until
     its [apply]. The words read are staged here, in the handle:
     between a compiled plan and its finish the process may be
     descheduled, and other processes plan on their own. *)
  mutable read_from : int;
  mutable n_reads : int;
  mutable n_diffs : int;
  mutable n_steps : int;
  mutable ends : bool;
  mutable pending : bool;
  staged : int array;  (* [eject_work] words *)
}

type t = {
  memory : M.t;
  swc : Swcopy.ctx;
  procs : int;
  slots : int;
  eject_work : int;
  ar_mode : mode;
  fast_retries : int;
  ann : Swcopy.dst array;  (* slot [s] of [pid] at [pid * slots + s] *)
  (* Sanitizer protocol auditing: one slot-protection key per
     announcement slot. Only *validated* announcements are registered
     (at the point the acquire loop confirms the source still holds the
     announced word), so a reported violation is always genuine. *)
  san : San.t;
  san_base : int;
  (* Within {!quiescent}, [q_words.(i)] is slot [i]'s word as first read
     there, or -1 before that read: at quiescence no announcement
     changes, so every later pass reuses it. Empty outside. *)
  mutable q_words : int array;
  mutable handles : h array;
  mutable n_delayed : int;
  (* Telemetry: [ar.delayed]'s high-water mark is Theorem 2's
     retired-not-ejected bound, measured continuously. *)
  g_delayed : Tele.gauge;
  c_passes : Tele.counter;
  c_scan_steps : Tele.counter;
  h_pass_size : Tele.hist;
  h_eject_batch : Tele.hist;
}

and h = {
  t : t;
  pid : int;  (* procs = setup handle *)
  retired : Istack.t;  (* retired words awaiting a scan *)
  ejected : Istack.t;  (* ejected words ready to return *)
  pass : pass;
}

let create ?(mode = `Lockfree) memory ~procs ~slots_per_proc ~eject_work =
  let swc = Swcopy.create_ctx memory ~procs in
  (* One cache line of slots per process (Fig. 4: "the eight total
     announcement slots of a process fit on a single cache line"). *)
  let ann =
    Array.concat
      (Array.to_list
         (Array.init procs (fun _ ->
              Swcopy.make_packed swc ~n:slots_per_proc ~init:Word.null)))
  in
  let tele = M.telemetry memory in
  let san = M.sanitizer memory in
  let t =
    {
      memory;
      swc;
      procs;
      slots = slots_per_proc;
      san;
      san_base = San.register_slots san ~n:(procs * slots_per_proc);
      eject_work = Int.max 1 eject_work;
      ar_mode = mode;
      fast_retries = 3;
      ann;
      q_words = [||];
      handles = [||];
      n_delayed = 0;
      g_delayed = Tele.gauge tele "ar.delayed";
      c_passes = Tele.counter tele "ar.scan_passes";
      c_scan_steps = Tele.counter tele "ar.scan_steps";
      h_pass_size = Tele.hist tele "ar.pass_size";
      h_eject_batch = Tele.hist tele "ar.eject_batch";
    }
  in
  let fresh_handle pid =
    {
      t;
      pid;
      retired = Istack.create ();
      ejected = Istack.create ();
      pass =
        {
          active = false;
          phase = 0;
          slot_cursor = 0;
          plist = Mset.create ();
          scanning = Istack.create ();
          unplanned = 0;
          n_ejected = 0;
          read_from = 0;
          n_reads = 0;
          n_diffs = 0;
          n_steps = 0;
          ends = false;
          pending = false;
          staged = Array.make t.eject_work Word.null;
        };
    }
  in
  t.handles <- Array.init (procs + 1) fresh_handle;
  t

let mem t = t.memory

let slots_per_proc t = t.slots

let handle t pid =
  if pid = -1 then t.handles.(t.procs)
  else begin
    assert (pid >= 0 && pid < t.procs);
    t.handles.(pid)
  end

(* The setup handle owns no announcement slots; its operations run
   sequentially (outside any simulation), so protection degrades to
   plain reads and no-ops. *)
let is_setup h = h.pid >= h.t.procs

let slot_dst h slot =
  assert (h.pid < h.t.procs);
  assert (slot >= 0 && slot < h.t.slots);
  h.t.ann.((h.pid * h.t.slots) + slot)

(* Sanitizer slot-protection key of (pid, slot). *)
let san_key h slot = h.t.san_base + (h.pid * h.t.slots) + slot

(* The slot is about to be overwritten: whatever validated protection it
   held is gone from this point on (conservatively early). *)
let san_begin h slot = San.protect h.t.san ~key:(san_key h slot) ~pid:h.pid 0

(* The announced word has been validated against its source: the
   protection is honored from here until the slot changes. *)
let san_validated h slot w =
  San.protect h.t.san ~key:(san_key h slot) ~pid:h.pid (Word.to_addr w)

(* The lock-free acquire: announce, confirm the source still holds the
   announced word, retry otherwise. *)
let acquire_lockfree h ~slot src =
  let dst = slot_dst h slot in
  san_begin h slot;
  let rec loop v =
    Swcopy.write h.t.swc dst v;
    let v' = M.read h.t.memory src in
    if v' = v then begin
      san_validated h slot v;
      v
    end
    else loop v'
  in
  loop (M.read h.t.memory src)

(* Fast-path/slow-path wait-free acquire (§7): a few lock-free attempts,
   then one atomic copy. *)
let acquire_waitfree h ~slot src =
  let dst = slot_dst h slot in
  san_begin h slot;
  let rec fast v attempts =
    Swcopy.write h.t.swc dst v;
    let v' = M.read h.t.memory src in
    if v' = v then begin
      san_validated h slot v;
      v
    end
    else if attempts <= 0 then begin
      let w = Swcopy.swcopy h.t.swc dst ~src in
      san_validated h slot w;
      w
    end
    else fast v' (attempts - 1)
  in
  fast (M.read h.t.memory src) h.t.fast_retries

let acquire h ~slot src =
  if is_setup h then M.read h.t.memory src
  else
    match h.t.ar_mode with
    | `Lockfree -> acquire_lockfree h ~slot src
    | `Waitfree -> acquire_waitfree h ~slot src

let release h ~slot =
  if not (is_setup h) then begin
    san_begin h slot;
    Swcopy.write h.t.swc (slot_dst h slot) Word.null
  end

(* {1 Compiled forms}

   [acquire_lockfree] and [release] emitted into a per-process
   {!Simcore.Vm} stream: the slot's heap address is a per-(pid, slot)
   constant, so the announcement is a plain store of the Swcopy value
   encoding ([v lsl 1]; null encodes to 0). With the sanitizer's
   protection auditor on at emit time, the slot-protection notes are
   leaf host calls at the closure's points — [san_begin] before the first
   source read and before the null announce, [san_validated] on the
   confirmed word — so the auditor's protected set evolves as under the
   closure acquire; with it off the stream carries none. *)

module A = Simcore.Vm.Asm

let san_notes h = (San.mode h.t.san).San.protocol

let vm_emit_acquire h a ~slot ~src =
  assert (h.t.ar_mode = `Lockfree);
  let notes = san_notes h in
  let r_dst = A.reg a and r_v = A.reg a and r_v' = A.reg a in
  let r_enc = A.reg a in
  A.movi a r_dst (Swcopy.addr (slot_dst h slot));
  if notes then A.host_leaf a (fun _ -> san_begin h slot);
  A.read a r_v src;
  let retry = A.label a and got = A.label a in
  A.place a retry;
  A.shli a r_enc r_v 1;
  A.write a r_dst r_enc;
  A.read a r_v' src;
  A.beq a r_v' r_v got;
  A.mov a r_v r_v';
  A.jmp a retry;
  A.place a got;
  if notes then
    A.host_leaf a (fun fr -> san_validated h slot fr.Simcore.Vm.regs.(r_v));
  (r_v, r_dst)

let vm_emit_release h a ~slot ~slot_reg =
  if san_notes h then A.host_leaf a (fun _ -> san_begin h slot);
  let r_zero = A.reg a in
  A.movi a r_zero 0;
  A.write a slot_reg r_zero

(* Owner-side read: the owner can never observe a foreign in-flight copy
   in its own slot, so no read-side protection is needed. *)
let announced h ~slot =
  if is_setup h then Word.null else Swcopy.read_raw h.t.swc (slot_dst h slot)

(* The caller guarantees validity of [w] (it holds a counted reference),
   so the protection is honored from the moment it is announced. *)
let announce_raw h ~slot w =
  if not (is_setup h) then begin
    san_begin h slot;
    Swcopy.write h.t.swc (slot_dst h slot) w;
    san_validated h slot w
  end

let retire h w =
  Istack.push h.retired w;
  h.t.n_delayed <- h.t.n_delayed + 1;
  Tele.set_gauge h.t.g_delayed h.t.n_delayed

(* The retired stack becomes the pass's snapshot (their arrays swap:
   the snapshot of the previous pass is empty by now). *)
let start_pass h =
  let p = h.pass in
  let r = h.retired and s = p.scanning in
  assert (s.Istack.n = 0);
  Tele.incr h.t.c_passes;
  Tele.observe h.t.h_pass_size r.Istack.n;
  p.active <- true;
  p.phase <- 0;
  p.slot_cursor <- 0;
  p.n_ejected <- 0;
  Mset.clear p.plist;
  let a = s.Istack.a in
  s.Istack.a <- r.Istack.a;
  s.Istack.n <- r.Istack.n;
  p.unplanned <- r.Istack.n;
  r.Istack.a <- a;
  r.Istack.n <- 0

(* Lay out up to [eject_work] steps of the active pass, each one unit
   of scan work: read one announcement slot, switch phase, diff one
   retired handle, or end the pass. Pays nothing. *)
let plan_steps h =
  let t = h.t in
  let p = h.pass in
  let total = t.procs * t.slots in
  p.read_from <- p.slot_cursor;
  p.n_reads <- 0;
  p.n_diffs <- 0;
  p.ends <- false;
  let n = ref 0 in
  while p.active && !n < t.eject_work do
    if p.phase = 0 then begin
      if p.slot_cursor >= total then p.phase <- 1
      else begin
        p.slot_cursor <- p.slot_cursor + 1;
        p.n_reads <- p.n_reads + 1
      end
    end
    else if p.unplanned = 0 then begin
      p.active <- false;
      p.ends <- true
    end
    else begin
      p.unplanned <- p.unplanned - 1;
      p.n_diffs <- p.n_diffs + 1
    end;
    incr n
  done;
  if !n > 0 then Tele.add t.c_scan_steps !n;
  p.n_steps <- !n;
  p.pending <- !n > 0

(* An [eject]'s plan: start a pass when one is due, then lay out this
   call's steps ([n_steps = 0]: no pass, nothing to do). *)
let plan h =
  if (not h.pass.active) && h.retired.Istack.n > 0 then start_pass h;
  plan_steps h

(* Run [f] with announcement reads served once per slot. Only outside a
   simulation: there no process runs, so no announcement changes while
   [f] runs, and a slot's first read stands for every later one. *)
let quiescent t f =
  if Proc.self () >= 0 then f ()
  else begin
    t.q_words <- Array.make (t.procs * t.slots) (-1);
    Fun.protect ~finally:(fun () -> t.q_words <- [||]) f
  end

(* Slot [i]'s word: read through [Memory], or within {!quiescent} its
   first read in the scope. *)
let slot_word t i =
  let q = t.q_words in
  if Array.length q = 0 then Swcopy.read_raw t.swc t.ann.(i)
  else if q.(i) >= 0 then q.(i)
  else begin
    let w = Swcopy.read_raw t.swc t.ann.(i) in
    q.(i) <- w;
    w
  end

(* The planned accesses as closure code: the slot reads, then one tick
   per diff. *)
let accesses h =
  let p = h.pass in
  for i = 0 to p.n_reads - 1 do
    p.staged.(i) <- slot_word h.t (p.read_from + i)
  done;
  for _ = 1 to p.n_diffs do
    Proc.pay 1
  done

(* Apply the planned steps: the staged words join the announced
   multiset, then each diffed handle is kept (one per announcement) or
   ejected. *)
let apply h =
  let t = h.t in
  let p = h.pass in
  p.pending <- false;
  for i = 0 to p.n_reads - 1 do
    let w = p.staged.(i) in
    if not (Word.is_null w) then Mset.add p.plist (Word.to_addr w)
  done;
  for _ = 1 to p.n_diffs do
    let w = Istack.pop p.scanning in
    if Mset.take p.plist (Word.to_addr w) then
      (* Announced: keep for the next pass (one per announcement). *)
      Istack.push h.retired w
    else begin
      p.n_ejected <- p.n_ejected + 1;
      Istack.push h.ejected w
    end
  done;
  if p.ends then Tele.observe t.h_eject_batch p.n_ejected

(* The next ejected handle, or [Word.null]. *)
let pop h =
  if h.ejected.Istack.n = 0 then Word.null
  else begin
    h.t.n_delayed <- h.t.n_delayed - 1;
    Tele.set_gauge h.t.g_delayed h.t.n_delayed;
    Istack.pop h.ejected
  end

let finish h =
  apply h;
  pop h

let eject h =
  plan h;
  if h.pass.n_steps > 0 then begin
    (* The amortized scan work a deferred-RC operation carries along —
       announcement reads and retire-list diffing — is deferral
       overhead, not operation time. *)
    Prof.with_phase Prof.Drc_defer @@ fun () ->
    Swcopy.enter h.t.swc;
    accesses h;
    Swcopy.exit h.t.swc
  end;
  let w = finish h in
  if Word.is_null w then None else Some w

let delayed t = t.n_delayed

let eject_all h =
  Prof.with_phase Prof.Drc_defer @@ fun () ->
  let out = ref [] in
  let drain () =
    let n = ref 0 in
    while h.ejected.Istack.n > 0 do
      out := pop h :: !out;
      incr n
    done;
    !n
  in
  (* A process stopped between an eject's plan and its finish (parked
     for good by a stall) left steps that were laid out but never
     applied: run them first, or their reads and diffs are lost. *)
  if h.pass.pending then begin
    accesses h;
    apply h
  end;
  (* A pass interrupted mid-run holds a stale announcement snapshot; it
     may conservatively keep handles that are free by now. Complete it,
     then keep running passes with fresh snapshots until one ejects
     nothing — only a fresh pass can conclude "genuinely announced". *)
  let complete () =
    while h.pass.active do
      plan_steps h;
      accesses h;
      apply h
    done
  in
  complete ();
  ignore (drain ());
  let progress = ref true in
  while !progress && h.retired.Istack.n > 0 do
    start_pass h;
    complete ();
    progress := drain () > 0
  done;
  !out

(* [retire] then [eject], compiled: one leaf retires and plans, the
   pass's Swcopy/EBR window and the planned reads and pays are VM
   instructions, and a second leaf finishes. The plan leaf loads the
   read count, the diff count and the slot addresses into registers;
   the stream holds [eject_work] guarded reads and [eject_work] guarded
   one-tick pays, so a plan of any shape runs without a branch back.
   The finish leaf stages the words read in the handle, applies the
   plan and loads the ejected handle (0: none) into the register it
   returns. Lock-free mode only: there, no destination ever holds a
   copy descriptor, so a slot word decodes without help. *)
let vm_emit_retire_eject h a ~word ~on_retire =
  assert (h.t.ar_mode = `Lockfree && not (is_setup h));
  let t = h.t in
  let p = h.pass in
  let r_steps = A.reg a and r_reads = A.reg a and r_diffs = A.reg a in
  let r_addr = Array.init t.eject_work (fun _ -> A.reg a) in
  let r_word = Array.init t.eject_work (fun _ -> A.reg a) in
  let r_ejected = A.reg a in
  A.host_leaf a (fun fr ->
      let regs = fr.Simcore.Vm.regs in
      retire h regs.(word);
      on_retire ();
      plan h;
      regs.(r_steps) <- p.n_steps;
      regs.(r_reads) <- p.n_reads;
      regs.(r_diffs) <- p.n_diffs;
      for i = 0 to p.n_reads - 1 do
        regs.(r_addr.(i)) <- Swcopy.addr t.ann.(p.read_from + i)
      done);
  let fin = A.label a and diffs = A.label a and steps_done = A.label a in
  A.beqi a r_steps 0 fin;
  let profiled = Prof.active () in
  if profiled then A.host_leaf a (fun _ -> Prof.enter Prof.Drc_defer);
  let window = Swcopy.vm_emit_enter t.swc a ~pid:h.pid in
  for i = 0 to t.eject_work - 1 do
    A.blti a r_reads (i + 1) diffs;
    A.read a r_word.(i) r_addr.(i)
  done;
  A.place a diffs;
  for i = 0 to t.eject_work - 1 do
    A.blti a r_diffs (i + 1) steps_done;
    A.payi a 1
  done;
  A.place a steps_done;
  Swcopy.vm_emit_exit t.swc a ~pid:h.pid ~window;
  if profiled then A.host_leaf a (fun _ -> Prof.exit ());
  A.place a fin;
  A.host_leaf a (fun fr ->
      let regs = fr.Simcore.Vm.regs in
      for i = 0 to p.n_reads - 1 do
        p.staged.(i) <- Swcopy.plain_value regs.(r_word.(i))
      done;
      regs.(r_ejected) <- finish h);
  r_ejected
