module M = Simcore.Memory
module Word = Simcore.Word

let name = "OrcGC"

let n_slots = 8 (* slot 0 transient, 1..7 held by snapshots *)

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
  mutable next_takeover : int;
  mutable in_scan : bool;
}

type cls = Rc_obj.cls

type snap = { s_word : int; s_slot : int }  (* -2 = owned *)

let prot t = match t.prot with Some p -> p | None -> assert false

let create mem ~procs =
  let reg = Rc_obj.create_registry () in
  let t = { mem; procs; reg; prot = None; handles = [||] } in
  t.prot <- Some (Protectors.create mem ~procs ~slots:n_slots ~reg);
  t.handles <-
    Array.init (procs + 1) (fun i ->
        {
          t;
          pid = (if i = procs then -1 else i);
          pending = ref [];
          next_takeover = 0;
          in_scan = false;
        });
  t

let handle t pid = if pid = -1 then t.handles.(t.procs) else t.handles.(pid)

let register_class t ~tag ~fields ~ref_fields =
  Rc_obj.register t.reg ~tag ~fields ~ref_fields

let field_addr = Protectors.field_addr

let inc h w = ignore (M.faa h.t.mem (Rc_obj.count_addr w) 1)

(* Every zero transition scans immediately: OrcGC's O(P)-per-retire
   cost, visible in its store-heavy throughput (Fig. 6b–c). *)
let rec dec h w =
  let old = M.faa h.t.mem (Rc_obj.count_addr w) (-1) in
  assert (old >= 1);
  if old = 1 then zero_tail h w

and zero_tail h w =
  ignore (Protectors.on_zero (prot h.t) ~pending:h.pending w);
  if not h.in_scan then begin
    h.in_scan <- true;
    ignore (Protectors.scan_pending (prot h.t) ~pending:h.pending ~dec:(dec h));
    h.in_scan <- false
  end

let make h cls fields =
  Rc_obj.alloc h.t.mem cls ~header:Protectors.header ~count0:1 ~fields

let load h loc =
  if h.pid < 0 then begin
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

let store h loc desired =
  let old = M.fas h.t.mem loc desired in
  if not (Word.is_null old) then dec h (Word.clean old)

let cas h loc ~expected ~desired =
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

(* Snapshot slots work like the paper's Fig. 4: find a free slot, or
   apply the occupant's deferred increment and recycle round-robin. *)
let get_slot h =
  let p = prot h.t in
  let rec scan s =
    if s >= n_slots then begin
      let s = 1 + h.next_takeover in
      let occupant = Protectors.read_guard p ~pid:h.pid ~slot:s in
      if not (Word.is_null occupant) then inc h occupant;
      h.next_takeover <- (h.next_takeover + 1) mod (n_slots - 1);
      s
    end
    else if Word.is_null (Protectors.read_guard p ~pid:h.pid ~slot:s) then s
    else scan (s + 1)
  in
  scan 1

let get_snapshot h loc =
  if h.pid < 0 then { s_word = load h loc; s_slot = -2 }
  else begin
    let slot = get_slot h in
    let w = Protectors.protect_loop (prot h.t) ~pid:h.pid ~slot loc in
    { s_word = w; s_slot = slot }
  end

let snap_word s = s.s_word

let snap_is_null s = Word.is_null s.s_word

let release_snapshot h s =
  if not (Word.is_null s.s_word) then
    if s.s_slot = -2 then destruct h s.s_word
    else if Protectors.read_guard (prot h.t) ~pid:h.pid ~slot:s.s_slot = s.s_word
    then Protectors.write_guard (prot h.t) ~pid:h.pid ~slot:s.s_slot Word.null
    else dec h (Word.clean s.s_word)

let deferred t =
  Array.fold_left (fun acc h -> acc + List.length !(h.pending)) 0 t.handles

let flush t =
  Protectors.quiesce (prot t) @@ fun () ->
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iter
      (fun h ->
        if Protectors.scan_pending (prot t) ~pending:h.pending ~dec:(dec h) > 0
        then progress := true)
      t.handles
  done

(* No compiled form: its zero transition (the O(P) scan) would be a
   [HOST] call, a fiber per call, and the closure driver runs this
   scheme's Fig 6 cells faster than such a stream (EXPERIMENTS.md). *)
let vm_ops _ = None
