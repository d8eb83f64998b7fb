module M = Simcore.Memory
module Proc = Simcore.Proc
module Word = Simcore.Word
module Prof = Simcore.Profiler

let name = "GNU C++"

let n_locks = 16

type t = {
  mem : M.t;
  locks : int array;  (* spinlock word addresses, one per line *)
  reg : Rc_obj.registry;
  mutable handles : h array;
}

and h = { t : t; pid : int }

type cls = Rc_obj.cls

(* No cheap protection: snapshots are owned loads. *)
type snap = int

let create mem ~procs =
  let locks = Array.init n_locks (fun _ -> M.alloc mem ~tag:"lock" ~size:1) in
  let t = { mem; locks; reg = Rc_obj.create_registry (); handles = [||] } in
  t.handles <- Array.init (procs + 1) (fun i -> { t; pid = i });
  t

let handle t pid = if pid = -1 then t.handles.(Array.length t.handles - 1) else t.handles.(pid)

let register_class t ~tag ~fields ~ref_fields =
  Rc_obj.register t.reg ~tag ~fields ~ref_fields

let field_addr = Rc_obj.field_addr ~header:1

let lock_of t loc = t.locks.(loc mod n_locks)

let lock h loc =
  let l = lock_of h.t loc in
  let rec spin () =
    if not (M.cas h.t.mem l ~expected:0 ~desired:1) then begin
      (* Lock contention: the backoff and every further acquisition
         attempt is retry stall. *)
      Prof.with_phase Prof.Cas_retry @@ fun () ->
      Proc.pay 4;
      spin ()
    end
  in
  spin ()

let unlock h loc = M.write h.t.mem (lock_of h.t loc) 0

let rec dec h w =
  let old = M.faa h.t.mem (Rc_obj.count_addr w) (-1) in
  assert (old >= 1);
  if old = 1 then delete h w

and delete h w =
  Rc_obj.delete h.t.mem h.t.reg w ~header:1 ~destruct_cell:(fun fw ->
      if not (Word.is_null fw) then dec h (Word.clean fw))

let make h cls fields = Rc_obj.alloc h.t.mem cls ~header:1 ~count0:1 ~fields

let load h loc =
  lock h loc;
  let w = M.read h.t.mem loc in
  (* The lock guarantees the location still owns its reference, so the
     count is at least 1 and the increment cannot race a free. *)
  if not (Word.is_null w) then ignore (M.faa h.t.mem (Rc_obj.count_addr w) 1);
  unlock h loc;
  w

let store h loc desired =
  lock h loc;
  let old = M.fas h.t.mem loc desired in
  unlock h loc;
  if not (Word.is_null old) then dec h (Word.clean old)

let cas h loc ~expected ~desired =
  lock h loc;
  let cur = M.read h.t.mem loc in
  let ok = cur = expected in
  if ok then begin
    if not (Word.is_null desired) then
      ignore (M.faa h.t.mem (Rc_obj.count_addr desired) 1);
    M.write h.t.mem loc desired
  end;
  unlock h loc;
  if ok && not (Word.is_null expected) then dec h (Word.clean expected);
  ok

let cas_move h loc ~expected ~desired =
  lock h loc;
  let cur = M.read h.t.mem loc in
  let ok = cur = expected in
  if ok then M.write h.t.mem loc desired;
  unlock h loc;
  if ok && not (Word.is_null expected) then dec h (Word.clean expected);
  ok

let peek_ref h loc = M.read h.t.mem loc

let destruct h w = if not (Word.is_null w) then dec h (Word.clean w)

let set_ref_field h obj i rc =
  let old = M.fas h.t.mem (field_addr obj i) rc in
  if not (Word.is_null old) then dec h (Word.clean old)

let get_snapshot h loc = load h loc

let snap_word s = s

let snap_is_null s = Word.is_null s

let release_snapshot h s = destruct h s

let deferred _ = 0

let flush _ = ()

(* {1 Compiled forms} *)

module A = Simcore.Vm.Asm

(* Spin for the lock of the location in [r_loc]: the CAS loop of [lock],
   including the 4-tick backoff between attempts and its retry-stall
   attribution. Returns the register holding the lock's address (for
   [unlock]). *)
let emit_lock t a r_loc =
  let t_locks = A.table a t.locks in
  let r_li = A.reg a and r_lock = A.reg a in
  let r_zero = A.reg a and r_one = A.reg a and r_ok = A.reg a in
  A.andi a r_li r_loc (n_locks - 1);
  A.tab a r_lock t_locks r_li;
  A.movi a r_zero 0;
  A.movi a r_one 1;
  let spin = A.label a and locked = A.label a in
  let frames = Vm_retry.start a in
  A.place a spin;
  A.cas a r_ok r_lock ~expected:r_zero ~desired:r_one;
  A.bnei a r_ok 0 locked;
  Vm_retry.retry a frames;
  A.payi a 4;
  A.jmp a spin;
  A.place a locked;
  Vm_retry.exit a frames;
  (r_lock, r_zero)

(* The [dec] of the non-null word in [r_w]: fetch-and-add, with the
   (rare) delete cascade staying a host call. *)
let emit_dec h a r_w =
  let r_a = A.reg a and r_old = A.reg a in
  let skip = A.label a in
  A.shri a r_a r_w 2;
  A.faai a r_old r_a (-1);
  A.bnei a r_old 1 skip;
  A.host a (fun fr -> delete h (Word.clean fr.Simcore.Vm.regs.(r_w)));
  A.place a skip

let vm_ops t =
  Some
    {
      Rc_intf.vm_header = 1;
      vm_load =
        (fun a ~pid:_ ~src ->
          let r_lock, r_zero = emit_lock t a src in
          let r_w = A.reg a and r_a = A.reg a and r_t = A.reg a in
          let unlocked = A.label a in
          A.read a r_w src;
          A.shri a r_a r_w 2;
          A.beqi a r_a 0 unlocked;
          A.faai a r_t r_a 1;
          A.place a unlocked;
          A.write a r_lock r_zero;
          r_w);
      vm_store_fresh =
        (fun a ~pid ~dst ~value ->
          let h = handle t pid in
          let r_lock, r_zero = emit_lock t a dst in
          let r_old = A.reg a and r_oa = A.reg a in
          let no_dec = A.label a in
          A.fas a r_old dst value;
          A.write a r_lock r_zero;
          A.shri a r_oa r_old 2;
          A.beqi a r_oa 0 no_dec;
          emit_dec h a r_old;
          A.place a no_dec);
      vm_destruct =
        (fun a ~pid ~ptr ->
          let h = handle t pid in
          let r_a = A.reg a in
          let skip = A.label a in
          A.shri a r_a ptr 2;
          A.beqi a r_a 0 skip;
          emit_dec h a ptr;
          A.place a skip);
    }
