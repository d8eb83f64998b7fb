module M = Simcore.Memory
module Proc = Simcore.Proc
module Word = Simcore.Word
module Tele = Simcore.Telemetry
module San = Simcore.Sanitizer
module Prof = Simcore.Profiler
module Int_set = Simcore.Int_set

type t = {
  mem : M.t;
  procs : int;
  params : Smr_intf.params;
  ann : int array;  (* per-process base address of [slots] words *)
  (* Sanitizer auditing: one slot-protection key per hazard slot; only
     validated announcements are registered. *)
  san : San.t;
  san_base : int;
  mutable extra : int;
  mutable handles : h array;
  c_scans : Tele.counter;
  g_retired : Tele.gauge;
}

and h = {
  t : t;
  pid : int;
  mutable rlist : int list;  (* retired block bases *)
  mutable rlen : int;
  guarded : Int_set.t;  (* this process's scan set, reused *)
}

let create mem ~procs ~params =
  let ann =
    Array.init procs (fun _ ->
        let base = M.alloc mem ~tag:"hp.announcements" ~size:params.Smr_intf.slots in
        (* Single-writer hazard announcements (see Ebr.create on why the
           race checker treats them as atomic locations). *)
        for s = 0 to params.Smr_intf.slots - 1 do
          M.mark_race_sync mem (base + s)
        done;
        base)
  in
  let tele = M.telemetry mem in
  let san = M.sanitizer mem in
  let t =
    {
      mem;
      procs;
      params;
      ann;
      san;
      san_base = San.register_slots san ~n:(procs * params.Smr_intf.slots);
      extra = 0;
      handles = [||];
      c_scans = Tele.counter tele "hp.scans";
      g_retired = Tele.gauge tele "hp.retired";
    }
  in
  t.handles <-
    Array.init procs (fun pid ->
        { t; pid; rlist = []; rlen = 0; guarded = Int_set.create () });
  t

let handle t pid = t.handles.(pid)

let begin_op h = ignore h

let slot_addr h slot =
  assert (slot >= 0 && slot < h.t.params.Smr_intf.slots);
  h.t.ann.(h.pid) + slot

let san_key h slot = h.t.san_base + (h.pid * h.t.params.Smr_intf.slots) + slot

let clear h ~slot =
  San.protect h.t.san ~key:(san_key h slot) ~pid:h.pid 0;
  M.write h.t.mem (slot_addr h slot) 0

let end_op h =
  for s = 0 to h.t.params.Smr_intf.slots - 1 do
    clear h ~slot:s
  done

let alloc h ~tag ~size =
  let addr = M.alloc h.t.mem ~tag ~size in
  M.mark_smr h.t.mem addr;
  addr

(* The classic lock-free acquire loop: announce, then confirm the source
   still holds the announced pointer. The announced word keeps any mark
   bit so that validation is exact; protection covers the block either
   way since marks do not change the address. The sanitizer registration
   mirrors this exactly: the slot's old protection drops when the loop
   starts overwriting it, the new one registers only once validated. *)
let protect_read h ~slot src =
  let a = slot_addr h slot in
  San.protect h.t.san ~key:(san_key h slot) ~pid:h.pid 0;
  let rec loop v =
    M.write h.t.mem a v;
    let v' = M.read h.t.mem src in
    if v' = v then begin
      San.protect h.t.san ~key:(san_key h slot) ~pid:h.pid (Word.to_addr v);
      v
    end
    else loop v'
  in
  loop (M.read h.t.mem src)

(* Caller-validated announcement (the caller already holds the block
   through another protection): honored as soon as it is published. *)
let announce h ~slot v =
  San.protect h.t.san ~key:(san_key h slot) ~pid:h.pid 0;
  M.write h.t.mem (slot_addr h slot) v;
  San.protect h.t.san ~key:(san_key h slot) ~pid:h.pid (Word.to_addr v)

(* Reclamation scan: collect every announced address, then free retired
   blocks not among them. *)
let scan h =
  (* Reclamation time: the announcement sweep, the rlist pass and the
     frees all charge to the smr-scan phase. *)
  Prof.with_phase Prof.Smr_scan @@ fun () ->
  Tele.incr h.t.c_scans;
  let protected_ = h.guarded in
  Int_set.clear protected_;
  let add v =
    let a = Word.to_addr v in
    if a <> 0 then Int_set.add protected_ a
  in
  for p = 0 to h.t.procs - 1 do
    M.read_span h.t.mem h.t.ann.(p) h.t.params.Smr_intf.slots add
  done;
  let keep = ref [] and kept = ref 0 in
  List.iter
    (fun addr ->
      Proc.pay 1;
      if Int_set.mem protected_ addr then begin
        keep := addr :: !keep;
        incr kept
      end
      else begin
        M.free h.t.mem addr;
        h.t.extra <- h.t.extra - 1
      end)
    h.rlist;
  h.rlist <- !keep;
  h.rlen <- !kept;
  Tele.set_gauge h.t.g_retired h.t.extra

let retire h addr =
  M.retire_note h.t.mem addr;
  h.rlist <- addr :: h.rlist;
  h.rlen <- h.rlen + 1;
  h.t.extra <- h.t.extra + 1;
  Tele.set_gauge h.t.g_retired h.t.extra;
  if h.rlen >= h.t.params.Smr_intf.batch then scan h

let extra_nodes t = t.extra

let flush t =
  Array.iteri
    (fun p base ->
      for s = 0 to t.params.Smr_intf.slots - 1 do
        San.protect t.san
          ~key:(t.san_base + (p * t.params.Smr_intf.slots) + s)
          ~pid:p 0;
        M.write t.mem (base + s) 0
      done)
    t.ann;
  Array.iter
    (fun h ->
      List.iter
        (fun addr ->
          M.free t.mem addr;
          t.extra <- t.extra - 1)
        h.rlist;
      h.rlist <- [];
      h.rlen <- 0)
    t.handles;
  Tele.set_gauge t.g_retired t.extra
