module M = Simcore.Memory
module Proc = Simcore.Proc
module Word = Simcore.Word
module Tele = Simcore.Telemetry
module San = Simcore.Sanitizer
module Prof = Simcore.Profiler

(* Reservation encoding: 0 = quiescent, otherwise epoch + 1. *)

type t = {
  mem : M.t;
  procs : int;
  params : Smr_intf.params;
  epoch : int;  (* address of the global epoch word *)
  res : int array;  (* per-process reservation word addresses *)
  mutable extra : int;  (* retired - freed *)
  mutable handles : h array;
  c_scans : Tele.counter;
  g_retired : Tele.gauge;
  g_epoch_lag : Tele.gauge;
}

and h = {
  t : t;
  pid : int;
  mutable bag : (int * int) list;  (* (block base, retire epoch) *)
  mutable bag_len : int;
  mutable ops : int;  (* operations since last advance attempt *)
}

let create mem ~procs ~params =
  let epoch = M.alloc mem ~tag:"ebr.epoch" ~size:1 in
  M.write mem epoch 1;
  let res =
    Array.init procs (fun _ ->
        let r = M.alloc mem ~tag:"ebr.reservation" ~size:1 in
        (* Single-writer epoch announcement: the owner's plain stores
           publish to the advance scan, so the race checker treats the
           word as an atomic location — the scan's read of a reservation
           acquires everything the owner did in earlier epochs. *)
        M.mark_race_sync mem r;
        r)
  in
  let tele = M.telemetry mem in
  let t =
    {
      mem;
      procs;
      params;
      epoch;
      res;
      extra = 0;
      handles = [||];
      c_scans = Tele.counter tele "ebr.scans";
      g_retired = Tele.gauge tele "ebr.retired";
      g_epoch_lag = Tele.gauge tele "ebr.epoch_lag";
    }
  in
  let handles =
    Array.init procs (fun pid -> { t; pid; bag = []; bag_len = 0; ops = 0 })
  in
  t.handles <- handles;
  t

let handle t pid = t.handles.(pid)

(* Sanitizer auditing maps the epoch reservation onto a protection
   window: the window opens once the reservation is published, every
   pointer read inside it is window-protected until [end_op], and the
   window closes (conservatively early) just before the reservation is
   cleared. *)
let begin_op h =
  let e = M.read h.t.mem h.t.epoch in
  M.write h.t.mem h.t.res.(h.pid) (e + 1);
  San.window_enter (M.sanitizer h.t.mem) ~pid:h.pid

let end_op h =
  San.window_exit (M.sanitizer h.t.mem) ~pid:h.pid;
  M.write h.t.mem h.t.res.(h.pid) 0

(* [begin_op]/[end_op] emitted into a {!Simcore.Vm} stream for [h]'s
   process: the same epoch read and reservation stores, and — when the
   sanitizer's protection auditor is on at emit time — the window notes
   as leaf host calls at the same points. *)
module A = Simcore.Vm.Asm

let window_notes h = (San.mode (M.sanitizer h.t.mem)).San.protocol

let vm_emit_begin_op h a =
  let r_ep = A.reg a and r_e = A.reg a and r_res = A.reg a in
  A.movi a r_ep h.t.epoch;
  A.read a r_e r_ep;
  A.addi a r_e r_e 1;
  A.movi a r_res h.t.res.(h.pid);
  A.write a r_res r_e;
  if window_notes h then
    A.host_leaf a (fun _ -> San.window_enter (M.sanitizer h.t.mem) ~pid:h.pid);
  r_res

let vm_emit_end_op h a ~res_reg =
  if window_notes h then
    A.host_leaf a (fun _ -> San.window_exit (M.sanitizer h.t.mem) ~pid:h.pid);
  let r_z = A.reg a in
  A.movi a r_z 0;
  A.write a res_reg r_z

let alloc h ~tag ~size =
  let addr = M.alloc h.t.mem ~tag ~size in
  M.mark_smr h.t.mem addr;
  addr

let protect_read h ~slot src =
  ignore slot;
  let v = M.read h.t.mem src in
  San.window_protect (M.sanitizer h.t.mem) ~pid:h.pid (Word.to_addr v);
  v

let announce h ~slot v =
  ignore h;
  ignore slot;
  ignore v

let clear h ~slot =
  ignore h;
  ignore slot

(* Minimum announced epoch across all processes (max_int if all
   quiescent), reading each reservation word. *)
let min_reservation t =
  let m = ref max_int in
  for p = 0 to t.procs - 1 do
    let r = M.read t.mem t.res.(p) in
    if r <> 0 && r - 1 < !m then m := r - 1
  done;
  !m

let scan h =
  (* Everything a scan pays — epoch reads, the advance CAS, the 1-tick
     sweep of the retire bag, the frees — is reclamation time, not
     operation time: attribute it all to the smr-scan phase. *)
  Prof.with_phase Prof.Smr_scan @@ fun () ->
  let t = h.t in
  Tele.incr t.c_scans;
  (* Epoch advance, inlined so its epoch read also feeds the lag gauge:
     the simulated operation sequence (epoch read, reservation sweep,
     optional CAS, reservation sweep) is exactly the former
     [try_advance t; min_reservation t]. *)
  let e = M.read t.mem t.epoch in
  if min_reservation t >= e then
    ignore (M.cas t.mem t.epoch ~expected:e ~desired:(e + 1));
  let safe = min_reservation t in
  if safe <> max_int then Tele.set_gauge t.g_epoch_lag (max 0 (e - safe));
  let keep = ref [] and kept = ref 0 in
  List.iter
    (fun ((addr, re) as node) ->
      Proc.pay 1;
      if re < safe then begin
        M.free h.t.mem addr;
        h.t.extra <- h.t.extra - 1
      end
      else begin
        keep := node :: !keep;
        incr kept
      end)
    h.bag;
  h.bag <- !keep;
  h.bag_len <- !kept;
  Tele.set_gauge t.g_retired t.extra

let retire h addr =
  M.retire_note h.t.mem addr;
  let e = M.read h.t.mem h.t.epoch in
  h.bag <- (addr, e) :: h.bag;
  h.bag_len <- h.bag_len + 1;
  h.t.extra <- h.t.extra + 1;
  Tele.set_gauge h.t.g_retired h.t.extra;
  h.ops <- h.ops + 1;
  if h.bag_len >= h.t.params.Smr_intf.batch then scan h

let extra_nodes t = t.extra

let flush t =
  Array.iter (fun a -> M.write t.mem a 0) t.res;
  Array.iter
    (fun h ->
      List.iter
        (fun (addr, _) ->
          M.free t.mem addr;
          t.extra <- t.extra - 1)
        h.bag;
      h.bag <- [];
      h.bag_len <- 0)
    t.handles;
  Tele.set_gauge t.g_retired t.extra
