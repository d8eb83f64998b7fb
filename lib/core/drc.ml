module M = Simcore.Memory
module Proc = Simcore.Proc
module Word = Simcore.Word
module Ar = Acquire_retire.Ar
module Tele = Simcore.Telemetry
module Prof = Simcore.Profiler

type rc = int

type cls = {
  tag : string;
  n_fields : int;
  ref_fields : int list;
  weak_fields : int list;
  weak : bool;
}

type t = {
  memory : M.t;
  artbl : Ar.t;
  procs : int;
  snapshots : bool;
  snap_slots : int;  (* snapshot slots per process (op slot excluded) *)
  classes : (string, cls) Hashtbl.t;
  mutable handles : h array;
  (* Telemetry: [drc.deferred_decs]'s high-water mark is Theorem 1's
     outstanding-deferred-decrement bound, measured continuously. *)
  g_deferred : Tele.gauge;
  c_snap_recycle : Tele.counter;
  c_eager : Tele.counter;
}

and h = {
  t : t;
  pid : int;
  arh : Ar.h;
  mutable next_takeover : int;  (* round-robin cursor, Fig. 4 *)
}

(* [s_slot >= 1]: protected by that announcement slot.
   [s_slot = -2]: owned reference (snapshots disabled fallback). *)
type snap = { s_word : int; s_slot : int }

let op_slot = 0

let create ?(mode = `Lockfree) ?(snapshots = true) ?(snapshot_slots = 7)
    ?(eject_work = 4) memory ~procs =
  let slots_per_proc = 1 + if snapshots then snapshot_slots else 0 in
  let artbl = Ar.create ~mode memory ~procs ~slots_per_proc ~eject_work in
  let tele = M.telemetry memory in
  let t =
    {
      memory;
      artbl;
      procs;
      snapshots;
      snap_slots = (if snapshots then snapshot_slots else 0);
      classes = Hashtbl.create 16;
      handles = [||];
      g_deferred = Tele.gauge tele "drc.deferred_decs";
      c_snap_recycle = Tele.counter tele "drc.snap_recycle";
      c_eager = Tele.counter tele "drc.eager_dec";
    }
  in
  t.handles <-
    Array.init (procs + 1) (fun i ->
        let pid = if i = procs then -1 else i in
        { t; pid; arh = Ar.handle artbl pid; next_takeover = 0 });
  t

let handle t pid = if pid = -1 then t.handles.(t.procs) else t.handles.(pid)

let register_class ?(weak = false) ?(weak_fields = []) t ~tag ~fields
    ~ref_fields =
  assert (not (Hashtbl.mem t.classes tag));
  List.iter (fun i -> assert (i >= 0 && i < fields)) (ref_fields @ weak_fields);
  let c = { tag; n_fields = fields; ref_fields; weak_fields; weak } in
  Hashtbl.add t.classes tag c;
  c

let find_class t ~tag = Hashtbl.find_opt t.classes tag

let field_addr obj i = Word.to_addr obj + 1 + i

let count_addr obj = Word.to_addr obj

(* {1 Counting primitives} *)

let increment h w =
  ignore (M.faa h.t.memory (count_addr w) 1)

(* Deletion: recursively discard reference fields, then free. Field
   discards are themselves deferred (retire), so destruction cascades
   without deep recursion. *)
let rec decrement h w =
  let old = M.faa h.t.memory (count_addr w) (-1) in
  assert (old >= 1);
  if old = 1 then delete h w

and delete h w =
  let base = Word.to_addr w in
  let cls = cls_of h w in
  List.iter
    (fun i ->
      let fw = M.read h.t.memory (base + 1 + i) in
      if not (Word.is_null fw) then retire_and_eject h (Word.clean fw))
    cls.ref_fields;
  List.iter
    (fun i ->
      let fw = M.read h.t.memory (base + 1 + i) in
      if not (Word.is_null fw) then weak_decrement h (Word.clean fw))
    cls.weak_fields;
  if cls.weak then begin
    (* Logical death: fields are gone; the block itself survives until
       the last weak reference drops (it holds one collectively for the
       strong side). *)
    weak_decrement h w
  end
  else M.free h.t.memory base

and cls_of h w =
  let base = Word.to_addr w in
  match M.block_tag h.t.memory base with
  | Some tag -> (
      match Hashtbl.find_opt h.t.classes tag with
      | Some c -> c
      | None -> invalid_arg ("Drc.delete: unregistered class " ^ tag))
  | None -> invalid_arg "Drc.delete: not a block"

and weak_cell h w =
  let cls = cls_of h w in
  assert cls.weak;
  Word.to_addr w + 1 + cls.n_fields

and weak_decrement h w =
  let old = M.faa h.t.memory (weak_cell h w) (-1) in
  assert (old >= 1);
  if old = 1 then M.free h.t.memory (Word.to_addr w)

and retire_and_eject h w =
  Ar.retire h.arh w;
  Tele.set_gauge h.t.g_deferred (Ar.delayed h.t.artbl);
  (* Executing an ejected handle's deferred decrement (and any delete
     cascade it triggers) is deferral work; [Ar.eject] attributes its
     own scan steps itself. *)
  (match Ar.eject h.arh with
  | Some e -> Prof.with_phase Prof.Drc_defer (fun () -> decrement h e)
  | None -> ());
  Tele.set_gauge h.t.g_deferred (Ar.delayed h.t.artbl)

(* {1 Object creation} *)

let make h cls fields =
  assert (Array.length fields = cls.n_fields);
  let extra = if cls.weak then 1 else 0 in
  let base = M.alloc h.t.memory ~tag:cls.tag ~size:(1 + cls.n_fields + extra) in
  M.write h.t.memory base 1;
  Array.iteri (fun i v -> M.write h.t.memory (base + 1 + i) v) fields;
  if cls.weak then M.write h.t.memory (base + 1 + cls.n_fields) 1;
  Word.of_addr base

(* {1 Fig. 3 operations} *)

let load h loc =
  let w = Ar.acquire h.arh ~slot:op_slot loc in
  if not (Word.is_null w) then increment h w;
  Ar.release h.arh ~slot:op_slot;
  w

let store h loc desired =
  let old = M.fas h.t.memory loc desired in
  if not (Word.is_null old) then retire_and_eject h (Word.clean old)

let store_copy h loc desired =
  if not (Word.is_null desired) then increment h desired;
  store h loc desired

let cas h loc ~expected ~desired =
  (* Announce [desired] so its count cannot race to zero between our CAS
     succeeding and our increment landing (Fig. 3, lines 17–27). *)
  if not (Word.is_null desired) then Ar.announce_raw h.arh ~slot:op_slot desired;
  let ok = M.cas h.t.memory loc ~expected ~desired in
  if ok then begin
    if not (Word.is_null desired) then increment h desired;
    if not (Word.is_null expected) then
      retire_and_eject h (Word.clean expected)
  end;
  if not (Word.is_null desired) then Ar.release h.arh ~slot:op_slot;
  ok

let cas_move h loc ~expected ~desired =
  let ok = M.cas h.t.memory loc ~expected ~desired in
  if ok then begin
    if not (Word.is_null expected) then
      retire_and_eject h (Word.clean expected)
  end;
  ok

let try_mark h loc ~expected =
  assert (not (Word.marked expected));
  M.cas h.t.memory loc ~expected ~desired:(Word.with_mark expected)

let try_flag h loc ~expected =
  assert (not (Word.flagged expected));
  M.cas h.t.memory loc ~expected ~desired:(Word.with_flag expected)

let destruct h w =
  if not (Word.is_null w) then
    if h.t.snapshots then retire_and_eject h (Word.clean w)
    else begin
      Tele.incr h.t.c_eager;
      decrement h (Word.clean w)
    end

let dup h w =
  if not (Word.is_null w) then increment h w;
  w

let read_word h loc = M.read h.t.memory loc

let set_field h obj i v =
  let old = M.fas h.t.memory (field_addr obj i) v in
  destruct h old

(* {1 Fig. 4: snapshots} *)

(* Find a free snapshot slot, or recycle one round-robin by applying its
   deferred increment. Slot indices 1..snap_slots; 0 is the op slot. *)
let get_slot h =
  let t = h.t in
  let rec scan s =
    if s > t.snap_slots then begin
      let s = 1 + h.next_takeover in
      let occupant = Ar.announced h.arh ~slot:s in
      (* The occupant's protection becomes a real count; whoever holds
         that snapshot will observe the slot changed and decrement. *)
      Tele.incr h.t.c_snap_recycle;
      if not (Word.is_null occupant) then increment h occupant;
      h.next_takeover <- (h.next_takeover + 1) mod t.snap_slots;
      s
    end
    else if Word.is_null (Ar.announced h.arh ~slot:s) then s
    else scan (s + 1)
  in
  scan 1

let get_snapshot h loc =
  if (not h.t.snapshots) || h.pid < 0 then { s_word = load h loc; s_slot = -2 }
  else begin
    let slot = get_slot h in
    let w = Ar.acquire h.arh ~slot loc in
    { s_word = w; s_slot = slot }
  end

let snap_word s = s.s_word

let snap_is_null s = Word.is_null s.s_word

let release_snapshot h s =
  if not (Word.is_null s.s_word) then
    if s.s_slot = -2 then destruct h s.s_word
    else if Ar.announced h.arh ~slot:s.s_slot = s.s_word then
      Ar.release h.arh ~slot:s.s_slot
    else begin
      (* Slot was recycled under us: the deferred increment was applied,
         so we owe an eager decrement (Fig. 4's slow path). *)
      Tele.incr h.t.c_eager;
      decrement h (Word.clean s.s_word)
    end

let snap_to_rc h s =
  if Word.is_null s.s_word then s.s_word
  else begin
    let w = Word.clean s.s_word in
    increment h w;
    release_snapshot h s;
    w
  end

(* {1 Weak references (the cycle-breaking extension of the paper's
   par. 9)}

   A weak reference keeps only the block (via the weak count behind the
   fields), never the object. Upgrading reuses the deferred-decrement
   machinery: announcing the pointer in the operation slot holds back any
   pending strong decrement from being ejected, so a strong count
   observed to be at least one cannot race to zero before our increment
   lands -- the same argument as Fig. 3's load. *)

type weak = int

let weak_of h w =
  assert (cls_of h w).weak;
  ignore (M.faa h.t.memory (weak_cell h w) 1);
  ignore h;
  Word.clean w

let drop_weak h w = weak_decrement h w

let upgrade h w =
  let w = Word.clean w in
  Ar.announce_raw h.arh ~slot:op_slot w;
  let rec try_up () =
    let c = M.read h.t.memory (count_addr w) in
    if c <= 0 then None
    else if M.cas h.t.memory (count_addr w) ~expected:c ~desired:(c + 1) then
      Some w
    else try_up ()
  in
  let r = try_up () in
  Ar.release h.arh ~slot:op_slot;
  r

(* {1 Cells, accounting, quiescence} *)

let alloc_cells t ~tag ~n = M.alloc t.memory ~tag ~size:n

let deferred_decrements t = Ar.delayed t.artbl

let flush t =
  Prof.with_phase Prof.Drc_defer @@ fun () ->
  Ar.quiescent t.artbl @@ fun () ->
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iter
      (fun h ->
        let ejected = Ar.eject_all h.arh in
        if ejected <> [] then progress := true;
        List.iter (fun w -> decrement h w) ejected)
      t.handles
  done;
  Tele.set_gauge t.g_deferred (Ar.delayed t.artbl)

(* {1 Compiled forms}

   The Fig. 3 fast paths emitted into a {!Simcore.Vm} stream; tick-,
   RNG- and heap-identical to [load]/[store]/[destruct]. The acquire and
   release come from {!Ar}, sanitizer slot-protection notes included,
   and so does the retire-and-eject; the ejected handle's deferred
   decrement is an [FAAI]. Only a delete cascade stays a (paying) host
   call. Only meaningful for the lock-free acquire mode; the wait-free
   swcopy slow path is not compiled. *)

module A = Simcore.Vm.Asm

(* [retire_and_eject h (Word.clean w)] for the word in register [ptr],
   which must not be null. The gauge updates and the [Drc_defer] frame
   around the decrement are leaf host calls at the closure's points. *)
let vm_emit_retire_eject h a ~ptr =
  let gauge () = Tele.set_gauge h.t.g_deferred (Ar.delayed h.t.artbl) in
  let r_w = A.reg a in
  A.andi a r_w ptr (Word.clean (-1));
  let r_e = Ar.vm_emit_retire_eject h.arh a ~word:r_w ~on_retire:gauge in
  let none = A.label a and kept = A.label a in
  A.beqi a r_e Word.null none;
  let profiled = Prof.active () in
  if profiled then A.host_leaf a (fun _ -> Prof.enter Prof.Drc_defer);
  let r_ea = A.reg a and r_old = A.reg a in
  A.shri a r_ea r_e 2;
  A.faai a r_old r_ea (-1);
  A.bnei a r_old 1 kept;
  A.host a (fun fr -> delete h fr.Simcore.Vm.regs.(r_e));
  A.place a kept;
  if profiled then A.host_leaf a (fun _ -> Prof.exit ());
  A.place a none;
  A.host_leaf a (fun _ -> gauge ())

let vm_emit_load t a ~pid ~src =
  let h = handle t pid in
  let r_v, r_slot = Ar.vm_emit_acquire h.arh a ~slot:op_slot ~src in
  let r_a = A.reg a and r_t = A.reg a in
  let rel = A.label a in
  A.shri a r_a r_v 2;
  A.beqi a r_a 0 rel;
  A.faai a r_t r_a 1;
  A.place a rel;
  Ar.vm_emit_release h.arh a ~slot:op_slot ~slot_reg:r_slot;
  r_v

let vm_emit_store_fresh t a ~pid ~dst ~value =
  let h = handle t pid in
  let r_old = A.reg a and r_oa = A.reg a in
  let skip = A.label a in
  A.fas a r_old dst value;
  A.shri a r_oa r_old 2;
  A.beqi a r_oa 0 skip;
  vm_emit_retire_eject h a ~ptr:r_old;
  A.place a skip

let vm_emit_destruct t a ~pid ~ptr =
  let h = handle t pid in
  let r_a = A.reg a in
  let skip = A.label a in
  A.shri a r_a ptr 2;
  A.beqi a r_a 0 skip;
  if t.snapshots then vm_emit_retire_eject h a ~ptr
  else begin
    let c_eager = A.counter_cell a t.c_eager in
    let r_old = A.reg a in
    A.cellinc a c_eager 1;
    A.faai a r_old r_a (-1);
    A.bnei a r_old 1 skip;
    A.host a (fun fr -> delete h (Word.clean fr.Simcore.Vm.regs.(ptr)))
  end;
  A.place a skip
