module M = Simcore.Memory
module Proc = Simcore.Proc
module Word = Simcore.Word
module Tele = Simcore.Telemetry
module San = Simcore.Sanitizer
module Prof = Simcore.Profiler

(* Announcement slots hold era + 1; 0 = empty. *)

type interval = { birth : int; mutable retired : int }

type t = {
  mem : M.t;
  procs : int;
  params : Smr_intf.params;
  era : int;  (* global era word *)
  ann : int array;  (* per-process base of [slots] era announcements *)
  meta : (int, interval) Hashtbl.t;
  (* Sanitizer auditing: HE protects by era interval, but the honored
     consequence is per-pointer — the block whose read an announced era
     covers cannot be freed while that slot still announces it. So each
     hazard-era slot registers the concrete block it was validated for,
     and drops it when the slot moves to a new era. *)
  san : San.t;
  san_base : int;
  mutable extra : int;
  mutable handles : h array;
  c_scans : Tele.counter;
  c_era_adv : Tele.counter;
  g_retired : Tele.gauge;
}

and h = {
  t : t;
  pid : int;
  mutable bag : int list;
  mutable bag_len : int;
  mutable retires : int;
  mutable eras : int array;  (* this process's scan snapshot, reused *)
}

let create mem ~procs ~params =
  let era = M.alloc mem ~tag:"he.era" ~size:1 in
  M.write mem era 1;
  let ann =
    Array.init procs (fun _ ->
        let base = M.alloc mem ~tag:"he.announcements" ~size:params.Smr_intf.slots in
        (* Single-writer era announcements (see Ebr.create on why the
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
      era;
      ann;
      meta = Hashtbl.create 1024;
      san;
      san_base = San.register_slots san ~n:(procs * params.Smr_intf.slots);
      extra = 0;
      handles = [||];
      c_scans = Tele.counter tele "he.scans";
      c_era_adv = Tele.counter tele "he.era_advances";
      g_retired = Tele.gauge tele "he.retired";
    }
  in
  t.handles <-
    Array.init procs (fun pid ->
        { t; pid; bag = []; bag_len = 0; retires = 0; eras = [||] });
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
  let birth = M.read h.t.mem h.t.era in
  Hashtbl.replace h.t.meta addr { birth; retired = -1 };
  addr

(* Publish the current era before trusting the read: when the era is
   already announced in this slot, any block reachable from [src] was
   born at or before it and cannot have been freed past it. The
   validated read is registered against this slot; it drops the next
   time the slot is redirected (a newer era no longer covers blocks
   retired before it). *)
let protect_read h ~slot src =
  let a = slot_addr h slot in
  San.protect h.t.san ~key:(san_key h slot) ~pid:h.pid 0;
  let rec loop prev =
    let v = M.read h.t.mem src in
    let e = M.read h.t.mem h.t.era in
    if e + 1 = prev then begin
      San.protect h.t.san ~key:(san_key h slot) ~pid:h.pid (Word.to_addr v);
      v
    end
    else begin
      M.write h.t.mem a (e + 1);
      loop (e + 1)
    end
  in
  loop (M.read h.t.mem a)

let announce h ~slot v =
  (* HE announces eras, not pointers; publish the current era. The
     caller guarantees [v] is live now, so the era covers it. *)
  San.protect h.t.san ~key:(san_key h slot) ~pid:h.pid 0;
  let e = M.read h.t.mem h.t.era in
  M.write h.t.mem (slot_addr h slot) (e + 1);
  San.protect h.t.san ~key:(san_key h slot) ~pid:h.pid (Word.to_addr v)

(* In-place heapsort of [a.(0) .. a.(n - 1)]. *)
let sort_prefix (a : int array) n =
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
      if a.(c) > a.(i) then begin
        let x = a.(i) in
        a.(i) <- a.(c);
        a.(c) <- x;
        sift c len
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    let x = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- x;
    sift 0 last
  done

let scan h =
  (* Reclamation time: the era sweep, the bag pass and the frees all
     charge to the smr-scan phase. *)
  Prof.with_phase Prof.Smr_scan @@ fun () ->
  let t = h.t in
  Tele.incr t.c_scans;
  (* Snapshot the announced eras, one span read per process (a line at
     a time), into the reused array: sorted, so coverage of a retired
     block's lifetime is one binary search. *)
  let slots = t.params.Smr_intf.slots in
  if Array.length h.eras = 0 then h.eras <- Array.make (t.procs * slots) 0;
  let eras = h.eras in
  let n = ref 0 in
  let add v =
    if v <> 0 then begin
      eras.(!n) <- v - 1;
      incr n
    end
  in
  for p = 0 to t.procs - 1 do
    M.read_span t.mem t.ann.(p) slots add
  done;
  let n = !n in
  sort_prefix eras n;
  (* Some announced era lies in [birth, retired]: the first era at or
     above [birth] is at most [retired]. *)
  let covered birth retired =
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if eras.(mid) < birth then lo := mid + 1 else hi := mid
    done;
    !lo < n && eras.(!lo) <= retired
  in
  let keep = ref [] and kept = ref 0 in
  List.iter
    (fun addr ->
      Proc.pay 1;
      let iv = Hashtbl.find t.meta addr in
      if covered iv.birth iv.retired then begin
        keep := addr :: !keep;
        incr kept
      end
      else begin
        Hashtbl.remove t.meta addr;
        M.free t.mem addr;
        t.extra <- t.extra - 1
      end)
    h.bag;
  h.bag <- !keep;
  h.bag_len <- !kept;
  Tele.set_gauge t.g_retired t.extra

let retire h addr =
  M.retire_note h.t.mem addr;
  let iv = Hashtbl.find h.t.meta addr in
  iv.retired <- M.read h.t.mem h.t.era;
  h.bag <- addr :: h.bag;
  h.bag_len <- h.bag_len + 1;
  h.t.extra <- h.t.extra + 1;
  Tele.set_gauge h.t.g_retired h.t.extra;
  h.retires <- h.retires + 1;
  if h.retires mod h.t.params.Smr_intf.era_freq = 0 then begin
    Tele.incr h.t.c_era_adv;
    ignore (M.faa h.t.mem h.t.era 1)
  end;
  if h.bag_len >= h.t.params.Smr_intf.batch then scan h

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
          Hashtbl.remove t.meta addr;
          M.free t.mem addr;
          t.extra <- t.extra - 1)
        h.bag;
      h.bag <- [];
      h.bag_len <- 0)
    t.handles;
  Tele.set_gauge t.g_retired t.extra
