(** Lock-free reference counting in the style of Herlihy, Luchangco,
    Martin and Moir (TOCS 2005), built on their pass-the-buck idea: counts
    are updated eagerly, and when a count reaches zero the {e object} is
    protected from reclamation by per-process guards until no reader can
    hold it (contrast with the paper's scheme, which protects the
    {e count} — §3).

    [Make (struct let optimized = false end)] updates counts with CAS
    loops, as the original does ("a CAS loop instead of a fetch-and-add
    due to the use of a sticky counter", §2); [optimized = true] is the
    paper's improved version using fetch-and-add / fetch-and-store where
    applicable (§7.1). *)

module M = Simcore.Memory
module Proc = Simcore.Proc
module Word = Simcore.Word
module Prof = Simcore.Profiler

module type OPT = sig
  val optimized : bool
end

module Make (Opt : OPT) : Rc_intf.S = struct
  let name = if Opt.optimized then "Herlihy (optimized)" else "Herlihy"

  type t = {
    mem : M.t;
    procs : int;
    reg : Rc_obj.registry;
    mutable prot : Protectors.t option;
    mutable handles : h array;
  }

  and h = {
    t : t;
    pid : int;
    pending : int list ref;
    mutable pend_len : int;
    mutable in_scan : bool;
    scan_batch : int;
  }

  type cls = Rc_obj.cls

  type snap = int

  let prot t = match t.prot with Some p -> p | None -> assert false

  let create mem ~procs =
    let reg = Rc_obj.create_registry () in
    let t = { mem; procs; reg; prot = None; handles = [||] } in
    t.prot <- Some (Protectors.create mem ~procs ~slots:1 ~reg);
    let scan_batch = max 8 procs in
    t.handles <-
      Array.init (procs + 1) (fun i ->
          {
            t;
            pid = (if i = procs then -1 else i);
            pending = ref [];
            pend_len = 0;
            in_scan = false;
            scan_batch;
          });
    t

  let handle t pid =
    if pid = -1 then t.handles.(t.procs) else t.handles.(pid)

  let register_class t ~tag ~fields ~ref_fields =
    Rc_obj.register t.reg ~tag ~fields ~ref_fields

  let field_addr = Protectors.field_addr

  let inc h w =
    let a = Rc_obj.count_addr w in
    if Opt.optimized then ignore (M.faa h.t.mem a 1)
    else begin
      (* The original's sticky-counter CAS loop. *)
      let rec loop () =
        let c = M.read h.t.mem a in
        if not (M.cas h.t.mem a ~expected:c ~desired:(c + 1)) then
          Prof.with_phase Prof.Cas_retry loop
      in
      loop ()
    end

  let rec dec h w =
    let a = Rc_obj.count_addr w in
    let old =
      if Opt.optimized then M.faa h.t.mem a (-1)
      else begin
        let rec loop () =
          let c = M.read h.t.mem a in
          if M.cas h.t.mem a ~expected:c ~desired:(c - 1) then c
          else Prof.with_phase Prof.Cas_retry loop
        in
        loop ()
      end
    in
    assert (old >= 1);
    if old = 1 then zero_tail h w

  and zero_tail h w =
    if Protectors.on_zero (prot h.t) ~pending:h.pending w then
      h.pend_len <- h.pend_len + 1;
    if h.pend_len >= h.scan_batch && not h.in_scan then ignore (scan h)

  and scan h =
    h.in_scan <- true;
    let freed = Protectors.scan_pending (prot h.t) ~pending:h.pending ~dec:(dec h) in
    h.pend_len <- List.length !(h.pending);
    h.in_scan <- false;
    freed

  let make h cls fields =
    Rc_obj.alloc h.t.mem cls ~header:Protectors.header ~count0:1 ~fields

  let load h loc =
    if h.pid < 0 then begin
      (* Sequential setup path. *)
      let w = M.read h.t.mem loc in
      if not (Word.is_null w) then inc h w;
      w
    end
    else begin
      let w = Protectors.protect_loop (prot h.t) ~pid:h.pid ~slot:0 loc in
      if not (Word.is_null w) then begin
        inc h w;
        Protectors.write_guard (prot h.t) ~pid:h.pid ~slot:0 Word.null
      end;
      w
    end

  let swap h loc desired =
    if Opt.optimized then M.fas h.t.mem loc desired
    else begin
      let rec loop () =
        let cur = M.read h.t.mem loc in
        if M.cas h.t.mem loc ~expected:cur ~desired then cur
        else Prof.with_phase Prof.Cas_retry loop
      in
      loop ()
    end

  let store h loc desired =
    let old = swap h loc desired in
    if not (Word.is_null old) then dec h (Word.clean old)

  let cas h loc ~expected ~desired =
    (* [desired] is owned or protected by the caller, so its count is at
       least one and the increment cannot race a free. *)
    if not (Word.is_null desired) then inc h desired;
    if M.cas h.t.mem loc ~expected ~desired then begin
      if not (Word.is_null expected) then dec h (Word.clean expected);
      true
    end
    else begin
      if not (Word.is_null desired) then dec h (Word.clean desired);
      false
    end

  let cas_move h loc ~expected ~desired =
    if M.cas h.t.mem loc ~expected ~desired then begin
      if not (Word.is_null expected) then dec h (Word.clean expected);
      true
    end
    else false

  let peek_ref h loc = M.read h.t.mem loc

  let destruct h w = if not (Word.is_null w) then dec h (Word.clean w)

  let set_ref_field h obj i rc =
    let old = M.fas h.t.mem (field_addr obj i) rc in
    if not (Word.is_null old) then dec h (Word.clean old)

  let get_snapshot h loc = load h loc

  let snap_word s = s

  let snap_is_null s = Word.is_null s

  let release_snapshot h s = destruct h s

  let deferred t =
    Array.fold_left (fun acc h -> acc + List.length !(h.pending)) 0 t.handles

  let flush t =
    Protectors.quiesce (prot t) @@ fun () ->
    let progress = ref true in
    while !progress do
      progress := false;
      Array.iter (fun h -> if scan h > 0 then progress := true) t.handles
    done

  (* {1 Compiled forms} *)

  module A = Simcore.Vm.Asm

  (* [inc] of the count at the address in [r_a]: fetch-and-add when
     optimized, else the original's sticky-counter CAS loop. *)
  let emit_inc a r_a =
    if Opt.optimized then begin
      let r_t = A.reg a in
      A.faai a r_t r_a 1
    end
    else begin
      let r_c = A.reg a and r_c1 = A.reg a in
      let retry = A.label a and out = A.label a in
      let frames = Vm_retry.start a in
      A.place a retry;
      A.read a r_c r_a;
      A.addi a r_c1 r_c 1;
      let r_ok = A.reg a in
      A.cas a r_ok r_a ~expected:r_c ~desired:r_c1;
      A.bnei a r_ok 0 out;
      Vm_retry.retry a frames;
      A.jmp a retry;
      A.place a out;
      Vm_retry.exit a frames
    end

  (* [dec] of the non-null word in [r_w]; the zero transition (flag
     claim, possible batch scan) stays a host call. *)
  let emit_dec h a r_w =
    let r_a = A.reg a in
    A.shri a r_a r_w 2;
    let r_old =
      if Opt.optimized then begin
        let r_old = A.reg a in
        A.faai a r_old r_a (-1);
        r_old
      end
      else begin
        let r_c = A.reg a and r_c1 = A.reg a in
        let retry = A.label a and out = A.label a in
        let frames = Vm_retry.start a in
        A.place a retry;
        A.read a r_c r_a;
        A.addi a r_c1 r_c (-1);
        let r_ok = A.reg a in
        A.cas a r_ok r_a ~expected:r_c ~desired:r_c1;
        A.bnei a r_ok 0 out;
        Vm_retry.retry a frames;
        A.jmp a retry;
        A.place a out;
        Vm_retry.exit a frames;
        r_c
      end
    in
    let skip = A.label a in
    A.bnei a r_old 1 skip;
    A.host a (fun fr -> zero_tail h (Word.clean fr.Simcore.Vm.regs.(r_w)));
    A.place a skip

  let vm_ops t =
    Some
      {
        Rc_intf.vm_header = Protectors.header;
        vm_load =
          (fun a ~pid ~src ->
            let ga = Protectors.guard_addr (prot t) ~pid ~slot:0 in
            let r_ga = A.reg a and r_v = A.reg a and r_v' = A.reg a in
            A.movi a r_ga ga;
            A.read a r_v src;
            let retry = A.label a and got = A.label a in
            A.place a retry;
            A.write a r_ga r_v;
            A.read a r_v' src;
            A.beq a r_v' r_v got;
            A.mov a r_v r_v';
            A.jmp a retry;
            A.place a got;
            let r_a = A.reg a and r_zero = A.reg a in
            let out = A.label a in
            A.shri a r_a r_v 2;
            A.beqi a r_a 0 out;
            emit_inc a r_a;
            A.movi a r_zero 0;
            A.write a r_ga r_zero;
            A.place a out;
            r_v);
        vm_store_fresh =
          (fun a ~pid ~dst ~value ->
            let h = handle t pid in
            let r_old =
              if Opt.optimized then begin
                let r_old = A.reg a in
                A.fas a r_old dst value;
                r_old
              end
              else begin
                let r_cur = A.reg a in
                let retry = A.label a and out = A.label a in
                let frames = Vm_retry.start a in
                A.place a retry;
                A.read a r_cur dst;
                let r_ok = A.reg a in
                A.cas a r_ok dst ~expected:r_cur ~desired:value;
                A.bnei a r_ok 0 out;
                Vm_retry.retry a frames;
                A.jmp a retry;
                A.place a out;
                Vm_retry.exit a frames;
                r_cur
              end
            in
            let r_oa = A.reg a in
            let skip = A.label a in
            A.shri a r_oa r_old 2;
            A.beqi a r_oa 0 skip;
            emit_dec h a r_old;
            A.place a skip);
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
end

module Plain = Make (struct
  let optimized = false
end)

module Optimized = Make (struct
  let optimized = true
end)
