module M = Simcore.Memory
module Proc = Simcore.Proc
module Word = Simcore.Word
module Tele = Simcore.Telemetry
module San = Simcore.Sanitizer
module Prof = Simcore.Profiler

(* Reservation words encode era + 1; 0 = inactive. *)

type interval = { birth : int; mutable retired : int }

type t = {
  mem : M.t;
  procs : int;
  params : Smr_intf.params;
  era : int;  (* global era word *)
  res_lo : int array;
  res_hi : int array;
  meta : (int, interval) Hashtbl.t;  (* block base -> lifetime *)
  mutable extra : int;
  mutable handles : h array;
  c_scans : Tele.counter;
  c_era_adv : Tele.counter;
  g_retired : Tele.gauge;
}

and h = {
  t : t;
  pid : int;
  mutable bag : int list;  (* retired block bases; eras are in [meta] *)
  mutable bag_len : int;
  mutable allocs : int;
  mutable hi_cache : int;  (* last era published to res_hi *)
  mutable lo : int array;  (* this process's scan snapshot, reused *)
  mutable hi : int array;
}

let create mem ~procs ~params =
  let era = M.alloc mem ~tag:"ibr.era" ~size:1 in
  M.write mem era 1;
  (* Single-writer interval announcements (see Ebr.create on why the
     race checker treats them as atomic locations). *)
  let res_word () =
    let r = M.alloc mem ~tag:"ibr.res" ~size:1 in
    M.mark_race_sync mem r;
    r
  in
  let res_lo = Array.init procs (fun _ -> res_word ()) in
  let res_hi = Array.init procs (fun _ -> res_word ()) in
  let tele = M.telemetry mem in
  let t =
    {
      mem;
      procs;
      params;
      era;
      res_lo;
      res_hi;
      meta = Hashtbl.create 1024;
      extra = 0;
      handles = [||];
      c_scans = Tele.counter tele "ibr.scans";
      c_era_adv = Tele.counter tele "ibr.era_advances";
      g_retired = Tele.gauge tele "ibr.retired";
    }
  in
  t.handles <-
    Array.init procs (fun pid ->
        { t; pid; bag = []; bag_len = 0; allocs = 0; hi_cache = 0; lo = [||]; hi = [||] });
  t

let handle t pid = t.handles.(pid)

(* Sanitizer auditing maps the reserved [lo, hi] interval onto a
   protection window: opened once both bounds are published, every
   pointer read while the interval is held is window-protected, closed
   (conservatively early) as [end_op] starts clearing. *)
let begin_op h =
  let e = M.read h.t.mem h.t.era in
  M.write h.t.mem h.t.res_lo.(h.pid) (e + 1);
  M.write h.t.mem h.t.res_hi.(h.pid) (e + 1);
  h.hi_cache <- e;
  San.window_enter (M.sanitizer h.t.mem) ~pid:h.pid

let end_op h =
  San.window_exit (M.sanitizer h.t.mem) ~pid:h.pid;
  M.write h.t.mem h.t.res_lo.(h.pid) 0;
  M.write h.t.mem h.t.res_hi.(h.pid) 0

let alloc h ~tag ~size =
  let addr = M.alloc h.t.mem ~tag ~size in
  M.mark_smr h.t.mem addr;
  let birth = M.read h.t.mem h.t.era in
  Hashtbl.replace h.t.meta addr { birth; retired = -1 };
  h.allocs <- h.allocs + 1;
  if h.allocs mod h.t.params.Smr_intf.era_freq = 0 then begin
    Tele.incr h.t.c_era_adv;
    ignore (M.faa h.t.mem h.t.era 1)
  end;
  addr

(* Raise the reserved upper bound until the era stops moving under us;
   a value read while [era = hi_cache] was born no later than [hi]. *)
let protect_read h ~slot src =
  ignore slot;
  let rec loop () =
    let v = M.read h.t.mem src in
    let e = M.read h.t.mem h.t.era in
    if e = h.hi_cache then begin
      San.window_protect (M.sanitizer h.t.mem) ~pid:h.pid (Word.to_addr v);
      v
    end
    else begin
      M.write h.t.mem h.t.res_hi.(h.pid) (e + 1);
      h.hi_cache <- e;
      loop ()
    end
  in
  loop ()

let announce h ~slot v =
  ignore h;
  ignore slot;
  ignore v

let clear h ~slot =
  ignore h;
  ignore slot

(* In-place heapsort of [lo.(0) .. lo.(n - 1)], carrying [hi] along:
   [He.scan]'s sort of its eras, over pairs. *)
let sort_intervals (lo : int array) (hi : int array) n =
  let swap i j =
    let x = lo.(i) in
    lo.(i) <- lo.(j);
    lo.(j) <- x;
    let y = hi.(i) in
    hi.(i) <- hi.(j);
    hi.(j) <- y
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && lo.(l + 1) > lo.(l) then l + 1 else l in
      if lo.(c) > lo.(i) then begin
        swap c i;
        sift c len
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift 0 last
  done

let scan h =
  (* Reclamation time: the interval snapshot, the bag pass and the
     frees all charge to the smr-scan phase. *)
  Prof.with_phase Prof.Smr_scan @@ fun () ->
  let t = h.t in
  Tele.incr t.c_scans;
  (* Snapshot the reserved intervals into the reused arrays, keeping
     the active ones ([lo] word non-zero) decoded: [lo.(i), hi.(i)]. *)
  if Array.length h.lo = 0 then begin
    h.lo <- Array.make t.procs 0;
    h.hi <- Array.make t.procs 0
  end;
  let lo = h.lo and hi = h.hi in
  let n = ref 0 in
  for p = 0 to t.procs - 1 do
    let l = M.read t.mem t.res_lo.(p) in
    let u = M.read t.mem t.res_hi.(p) in
    if l <> 0 then begin
      lo.(!n) <- l - 1;
      hi.(!n) <- u - 1;
      incr n
    end
  done;
  let n = !n in
  (* Sorted by [lo], with [hi] replaced by its running maximum: the
     intervals starting at or before [retired] are a prefix, and one of
     them reaches [birth] iff the prefix's largest [hi] does. *)
  sort_intervals lo hi n;
  for i = 1 to n - 1 do
    if hi.(i - 1) > hi.(i) then hi.(i) <- hi.(i - 1)
  done;
  let overlaps birth retired =
    let a = ref 0 and b = ref n in
    while !a < !b do
      let mid = (!a + !b) lsr 1 in
      if lo.(mid) <= retired then a := mid + 1 else b := mid
    done;
    !a > 0 && hi.(!a - 1) >= birth
  in
  let keep = ref [] and kept = ref 0 in
  List.iter
    (fun addr ->
      Proc.pay 1;
      let iv = Hashtbl.find t.meta addr in
      if overlaps iv.birth iv.retired then begin
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
  if h.bag_len >= h.t.params.Smr_intf.batch then scan h

let extra_nodes t = t.extra

let flush t =
  Array.iter (fun a -> M.write t.mem a 0) t.res_lo;
  Array.iter (fun a -> M.write t.mem a 0) t.res_hi;
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
