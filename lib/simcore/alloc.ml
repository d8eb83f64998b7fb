(* The pluggable block allocator behind {!Memory}: the legacy global
   size-class freelist (the differential oracle) and the Blelloch–Wei
   constant-time pooled scheme, behind one acquire/release interface.

   Both work purely in block ids chained through the intrusive
   [Memcore.b_next] links, so neither allocates nor hashes on the hot
   path (oversized classes excepted). The pooled layout:

     per (process, class):  local pool — one chain of < 2*batch_size
                            blocks, LIFO push/pop at the head
     per class:             exchange — [exchange_slots] stacks of FULL
                            batches (exactly [batch_size] blocks each;
                            a slot chains batches by linking a batch
                            tail to the next batch head), plus an
                            occupancy bitmask and a rotating steal
                            cursor

   A release that fills the pool to [2*batch_size] splits off the COLD
   half (the tail batch) and pushes it on the process's home slot
   ([pslot mod exchange_slots] — that is the "balanced" part: handoffs
   spread over the slots by process). An acquisition that finds the
   pool dry consults the bitmask, steals the first occupied slot at or
   after the rotating cursor, installs the batch as its new pool and
   pops one block. Every operation therefore touches O(1) batches: at
   most [exchange_slots] mask probes (a constant) plus two batch walks
   of [batch_size] links each — {!max_touch} records the worst case and
   the constant-time property test pins it.

   Contention modeling: with [Config.alloc_contention] on, each plan_*
   call performs coherence transitions for the metadata pieces the
   operation touches — in a private coherence domain (a second
   {!Memcore.t} over the same cost table, leaving the heap's line states
   untouched), one line per pool head / exchange slot / mask / legacy
   class head — and
   returns their tick price, which {!Memory} folds into the alloc/free
   pay. The legacy freelist's single head line ping-pongs ownership
   across every churning process (c_rmw_transfer per op); the pooled
   scheme pays owned-line prices locally and transfers only on the
   ~1/batch_size hand-off/steal edges. That difference is the
   alloc_churn benchmark; with contention off (the default, and all
   figure workloads) both policies charge exactly the flat
   c_alloc/c_free. *)

type source = Local | Steal | Fresh

type plan = { source : source; cost : int }

let num_size_classes = 512

let batch_size = 16

let exchange_slots = 8

(* Process slots: setup pid -1 shares slot 0; in-sim pids are offset by
   one and clamped like {!Memcore.pid_slot}. *)
let stride = Memcore.max_pids + 1

let pslot pid =
  if pid < 0 then 0
  else if pid >= Memcore.max_pids then Memcore.max_pids
  else pid + 1

type t = {
  h : Memcore.t;
  pol : Config.alloc_policy;
  contended : bool;
  coh : Memcore.t option;
      (* private coherence domain for allocator metadata; built only
         when [contended], the one mode that reads it *)
  (* Legacy freelists (also the oversized fallback under Pooled). *)
  free_heads : int array;  (* size -> head block id; 0 = empty *)
  large_free : (int, int) Hashtbl.t;  (* oversized size -> head id *)
  (* Pooled state, indexed by dense class (assigned on first use). *)
  class_of : int array;  (* size -> dense index + 1; 0 = unassigned *)
  mutable n_dense : int;
  mutable local_head : int array;  (* dense*stride + pslot -> head id *)
  mutable local_count : int array;
  mutable exch : int array;  (* dense*exchange_slots + s -> batch stack *)
  mutable exch_mask : int array;  (* dense -> slot-occupancy bitmask *)
  mutable cursor : int array;  (* dense -> rotating steal cursor *)
  (* Custody accounting and telemetry. *)
  mutable in_custody : int;
  cls_occ : int array;  (* per exact-size class *)
  tele : Telemetry.t;
  c_local : Telemetry.counter;
  c_steal : Telemetry.counter;
  c_handoff : Telemetry.counter;
  g_occ : Telemetry.gauge;
  cls_gauge : Telemetry.gauge option array;
  cls_hit : Telemetry.counter option array;
  cls_miss : Telemetry.counter option array;
  mutable max_touch : int;
}

let create ~policy ~contended h tele =
  {
    h;
    pol = policy;
    contended;
    coh =
      (if contended then Some (Memcore.create Config.default_cost) else None);
    free_heads = Array.make num_size_classes 0;
    large_free = Hashtbl.create 8;
    class_of = Array.make num_size_classes 0;
    n_dense = 0;
    local_head = Array.make stride 0;
    local_count = Array.make stride 0;
    exch = Array.make exchange_slots 0;
    exch_mask = Array.make 1 0;
    cursor = Array.make 1 0;
    in_custody = 0;
    cls_occ = Array.make num_size_classes 0;
    tele;
    c_local = Telemetry.counter tele "mem.pool.local";
    c_steal = Telemetry.counter tele "mem.pool.steals";
    c_handoff = Telemetry.counter tele "mem.pool.handoffs";
    g_occ = Telemetry.gauge tele "mem.pool.occupancy";
    cls_gauge = Array.make num_size_classes None;
    cls_hit = Array.make num_size_classes None;
    cls_miss = Array.make num_size_classes None;
    max_touch = 0;
  }

let custody t = t.in_custody

let max_touch t = t.max_touch

(* {1 Per-class probes (lazy: classes in use are few)} *)

let cls_label size = "c" ^ string_of_int size

let cls_gauge t size =
  match t.cls_gauge.(size) with
  | Some g -> g
  | None ->
      let g =
        Telemetry.gauge t.tele ("mem.pool.occupancy[" ^ cls_label size ^ "]")
      in
      t.cls_gauge.(size) <- Some g;
      g

let cls_hit t size =
  match t.cls_hit.(size) with
  | Some c -> c
  | None ->
      let c =
        Telemetry.counter t.tele ("mem.alloc.hit[" ^ cls_label size ^ "]")
      in
      t.cls_hit.(size) <- Some c;
      c

let cls_miss t size =
  match t.cls_miss.(size) with
  | Some c -> c
  | None ->
      let c =
        Telemetry.counter t.tele ("mem.alloc.miss[" ^ cls_label size ^ "]")
      in
      t.cls_miss.(size) <- Some c;
      c

(* {1 Metadata coherence lines}

   One line per metadata piece in the private domain. Pooled classes
   get a compact region of [stride] pool-head lines, the exchange-slot
   lines and the mask line; legacy heads use the low class-index lines
   (the two layouts never coexist in one allocator). *)

let region = stride + exchange_slots + 1

let local_line d ps = (d * region) + ps

let exch_line d s = (d * region) + stride + s

let mask_line d = (d * region) + stride + exchange_slots

let legacy_line size =
  if size < num_size_classes then size else num_size_classes + (size mod 97)

let coh t =
  match t.coh with
  | Some c -> c
  | None -> invalid_arg "Alloc: metadata coherence without contention"

let coh_write t ~pid line =
  Memcore.cost_write (coh t) ~pid ~addr:(line * Memcore.line_words)

let coh_read t ~pid line =
  Memcore.cost_read (coh t) ~pid ~addr:(line * Memcore.line_words)

(* {1 Legacy freelists (and the shared oversized fallback)} *)

let legacy_head t size =
  if size < num_size_classes then t.free_heads.(size)
  else match Hashtbl.find_opt t.large_free size with Some id -> id | None -> 0

let legacy_pop t size =
  if size < num_size_classes then begin
    let id = t.free_heads.(size) in
    if id <> 0 then t.free_heads.(size) <- t.h.Memcore.b_next.(id);
    id
  end
  else
    match Hashtbl.find_opt t.large_free size with
    | Some id when id <> 0 ->
        Hashtbl.replace t.large_free size t.h.Memcore.b_next.(id);
        id
    | Some _ | None -> 0

let legacy_push t bid size =
  if size < num_size_classes then begin
    t.h.Memcore.b_next.(bid) <- t.free_heads.(size);
    t.free_heads.(size) <- bid
  end
  else begin
    t.h.Memcore.b_next.(bid) <-
      (match Hashtbl.find_opt t.large_free size with Some hd -> hd | None -> 0);
    Hashtbl.replace t.large_free size bid
  end

(* {1 Pooled pools, batches and the exchange} *)

(* Dense index for an exact-size class, assigned on first use; [-1]
   sends oversized classes to the shared table. *)
let dense t size =
  if size >= num_size_classes then -1
  else begin
    let d = t.class_of.(size) in
    if d > 0 then d - 1
    else begin
      let d = t.n_dense in
      let needed = (d + 1) * stride in
      if needed > Array.length t.local_head then begin
        t.local_head <- Memcore.grow_array t.local_head ~needed ~fill:0;
        t.local_count <- Memcore.grow_array t.local_count ~needed ~fill:0
      end;
      let en = (d + 1) * exchange_slots in
      if en > Array.length t.exch then
        t.exch <- Memcore.grow_array t.exch ~needed:en ~fill:0;
      if d + 1 > Array.length t.exch_mask then begin
        t.exch_mask <- Memcore.grow_array t.exch_mask ~needed:(d + 1) ~fill:0;
        t.cursor <- Memcore.grow_array t.cursor ~needed:(d + 1) ~fill:0
      end;
      t.class_of.(size) <- d + 1;
      t.n_dense <- d + 1;
      d
    end
  end

(* First occupied slot at or after the cursor (mask is nonzero). *)
let pick_slot mask cursor probes =
  let s = ref (-1) in
  let k = ref 0 in
  while !s < 0 do
    let c = (cursor + !k) land (exchange_slots - 1) in
    incr probes;
    if mask land (1 lsl c) <> 0 then s := c else incr k
  done;
  !s

let note_touch t n = if n > t.max_touch then t.max_touch <- n

let pooled_acquire t ~pid ~size =
  let d = dense t size in
  if d < 0 then legacy_pop t size
  else begin
    let li = (d * stride) + pslot pid in
    if t.local_count.(li) > 0 then begin
      let id = t.local_head.(li) in
      t.local_head.(li) <- t.h.Memcore.b_next.(id);
      t.local_count.(li) <- t.local_count.(li) - 1;
      Telemetry.incr t.c_local;
      note_touch t 1;
      id
    end
    else begin
      let m = t.exch_mask.(d) in
      if m = 0 then 0
      else begin
        let probes = ref 0 in
        let s = pick_slot m t.cursor.(d) probes in
        t.cursor.(d) <- s + 1;
        let idx = (d * exchange_slots) + s in
        let head = t.exch.(idx) in
        (* Cut one full batch off the slot's stack: its tail links to
           the next batch (or 0). *)
        let tail = ref head in
        for _ = 2 to batch_size do tail := t.h.Memcore.b_next.(!tail) done;
        let rest = t.h.Memcore.b_next.(!tail) in
        t.h.Memcore.b_next.(!tail) <- 0;
        t.exch.(idx) <- rest;
        if rest = 0 then t.exch_mask.(d) <- m land lnot (1 lsl s);
        (* Install the batch as the new pool and pop its head. *)
        t.local_head.(li) <- t.h.Memcore.b_next.(head);
        t.local_count.(li) <- batch_size - 1;
        t.h.Memcore.b_next.(head) <- 0;
        Telemetry.incr t.c_steal;
        note_touch t (!probes + 1);
        head
      end
    end
  end

let pooled_release t ~pid ~bid ~size =
  let d = dense t size in
  if d < 0 then legacy_push t bid size
  else begin
    let li = (d * stride) + pslot pid in
    t.h.Memcore.b_next.(bid) <- t.local_head.(li);
    t.local_head.(li) <- bid;
    t.local_count.(li) <- t.local_count.(li) + 1;
    if t.local_count.(li) < 2 * batch_size then note_touch t 1
    else begin
      (* Overflow: keep the hot (head) half, hand the cold tail batch
         to the process's home slot. Two bounded batch walks: find the
         split point, then the outgoing batch's tail. *)
      let b = ref t.local_head.(li) in
      for _ = 2 to batch_size do b := t.h.Memcore.b_next.(!b) done;
      let full = t.h.Memcore.b_next.(!b) in
      t.h.Memcore.b_next.(!b) <- 0;
      t.local_count.(li) <- batch_size;
      let tail = ref full in
      for _ = 2 to batch_size do tail := t.h.Memcore.b_next.(!tail) done;
      let s = pslot pid land (exchange_slots - 1) in
      let idx = (d * exchange_slots) + s in
      t.h.Memcore.b_next.(!tail) <- t.exch.(idx);
      t.exch.(idx) <- full;
      t.exch_mask.(d) <- t.exch_mask.(d) lor (1 lsl s);
      Telemetry.incr t.c_handoff;
      note_touch t 2
    end
  end

(* {1 Plans (pure peeks + contention modeling)} *)

(* Classify a legacy acquisition: a head freed by this process is a
   local (cache-warm) pop; anything else came from another process. *)
let legacy_source t ~pid head =
  if head = 0 then Fresh
  else if t.h.Memcore.b_freed_by.(head) = pid then Local
  else Steal

let plan_acquire t ~pid ~size =
  match t.pol with
  | Config.Legacy ->
      let head = legacy_head t size in
      let source = legacy_source t ~pid head in
      let cost =
        if not t.contended then 0
        else if head = 0 then coh_read t ~pid (legacy_line size)
        else coh_write t ~pid (legacy_line size)
      in
      { source; cost }
  | Config.Pooled ->
      let d = dense t size in
      if d < 0 then begin
        let head = legacy_head t size in
        let source = legacy_source t ~pid head in
        let cost =
          if not t.contended then 0
          else if head = 0 then coh_read t ~pid (legacy_line size)
          else coh_write t ~pid (legacy_line size)
        in
        { source; cost }
      end
      else begin
        let ps = pslot pid in
        let li = (d * stride) + ps in
        if t.local_count.(li) > 0 then
          {
            source = Local;
            cost =
              (if t.contended then coh_write t ~pid (local_line d ps) else 0);
          }
        else begin
          let m = t.exch_mask.(d) in
          if m = 0 then
            {
              source = Fresh;
              cost =
                (if t.contended then coh_read t ~pid (mask_line d) else 0);
            }
          else begin
            let cost =
              if not t.contended then 0
              else begin
                let probes = ref 0 in
                let s = pick_slot m t.cursor.(d) probes in
                coh_read t ~pid (mask_line d)
                + coh_write t ~pid (exch_line d s)
                + coh_write t ~pid (local_line d ps)
              end
            in
            { source = Steal; cost }
          end
        end
      end

let plan_release t ~pid ~size =
  if not t.contended then 0
  else
    match t.pol with
    | Config.Legacy -> coh_write t ~pid (legacy_line size)
    | Config.Pooled ->
        let d = dense t size in
        if d < 0 then coh_write t ~pid (legacy_line size)
        else begin
          let ps = pslot pid in
          let base = coh_write t ~pid (local_line d ps) in
          if t.local_count.((d * stride) + ps) = (2 * batch_size) - 1 then begin
            let s = ps land (exchange_slots - 1) in
            base
            + coh_write t ~pid (exch_line d s)
            + coh_write t ~pid (mask_line d)
          end
          else base
        end

(* {1 The shared wrappers: custody accounting and telemetry} *)

let acquire t ~pid ~size =
  let bid =
    match t.pol with
    | Config.Legacy ->
        let id = legacy_pop t size in
        if id <> 0 then
          Telemetry.incr
            (if t.h.Memcore.b_freed_by.(id) = pid then t.c_local else t.c_steal);
        id
    | Config.Pooled -> pooled_acquire t ~pid ~size
  in
  if size < num_size_classes then
    Telemetry.incr (if bid <> 0 then cls_hit t size else cls_miss t size);
  if bid <> 0 then begin
    t.in_custody <- t.in_custody - 1;
    Telemetry.set_gauge t.g_occ t.in_custody;
    if size < num_size_classes then begin
      t.cls_occ.(size) <- t.cls_occ.(size) - 1;
      Telemetry.set_gauge (cls_gauge t size) t.cls_occ.(size)
    end
  end;
  bid

let release t ~pid ~bid =
  let size = t.h.Memcore.b_size.(bid) in
  (match t.pol with
  | Config.Legacy -> legacy_push t bid size
  | Config.Pooled -> pooled_release t ~pid ~bid ~size);
  t.in_custody <- t.in_custody + 1;
  Telemetry.set_gauge t.g_occ t.in_custody;
  if size < num_size_classes then begin
    t.cls_occ.(size) <- t.cls_occ.(size) + 1;
    Telemetry.set_gauge (cls_gauge t size) t.cls_occ.(size)
  end
