type fault_kind =
  | Use_after_free
  | Double_free
  | Not_a_block
  | Out_of_bounds
  | Null_deref
  | Protection_violation

exception
  Fault of {
    kind : fault_kind;
    addr : int;
    pid : int;
    tag : string option;
  }

let fault_kind_to_string = function
  | Use_after_free -> "use-after-free"
  | Double_free -> "double-free"
  | Not_a_block -> "free of non-block address"
  | Out_of_bounds -> "out-of-bounds access"
  | Null_deref -> "null dereference"
  | Protection_violation -> "protection violation"

let fault_to_string = function
  | Fault { kind; addr; pid; tag } ->
      Printf.sprintf "%s addr=%d pid=%d tag=%s" (fault_kind_to_string kind) addr
        pid
        (match tag with Some s -> s | None -> "-")
  | e -> Printexc.to_string e

type usage = {
  allocated : int;
  freed : int;
  live : int;
  peak_live : int;
  live_words : int;
}

type tag_stats = {
  mutable tag_live : int;
  c_tag_alloc : Telemetry.counter;  (* mem.alloc[tag] *)
  c_tag_free : Telemetry.counter;  (* mem.free[tag] *)
}

(* The words, block metadata and coherence state live in the flat
   {!Memcore} record (parallel int arrays) shared with the bytecode
   {!Vm}; this record layers allocation bookkeeping, freelists,
   telemetry and the sanitizer on top. *)
type t = {
  config : Config.t;
  h : Memcore.t;
  (* The pluggable freed-block store ({!Alloc}): the legacy global
     size-class freelist or the pooled constant-time scheme, selected
     by [config.alloc]. Freed blocks are chained in place through the
     block metadata ([b_next]), so alloc and free never allocate or
     hash on the common path under either policy. *)
  al : Alloc.t;
  (* The creating domain's env cell ({!Proc.here}): every access, alloc
     and free reads the running process's env from it with one field
     load. A heap is driven only on the domain that created it; [alloc]
     checks that. *)
  here : Proc.here;
  (* Per-tag live count and telemetry counters, one lookup per alloc
     and free. *)
  tags : (string, tag_stats) Hashtbl.t;
  mutable allocated : int;
  mutable freed : int;
  mutable live : int;
  mutable peak_live : int;
  mutable live_words : int;
  (* Telemetry: one registry per heap; subsystems sharing this heap
     register their probes here (Ar, Drc, smr schemes, cds). *)
  tele : Telemetry.t;
  g_live : Telemetry.gauge;
  g_live_words : Telemetry.gauge;
  c_alloc_fresh : Telemetry.counter;
  c_alloc_reuse : Telemetry.counter;
  c_free : Telemetry.counter;
  (* Sanitizer: always present, owning its per-block state; called
     only when [san_on]. *)
  san : Sanitizer.t;
  san_on : bool;
  (* Race checker: always present (no-op when off). Pays no ticks and
     allocates nothing simulated, so arming it perturbs no schedule;
     the VM's memory opcodes call the same {!instrument} observer after
     flushing their elided pays, so both engines feed it the identical
     access stream. *)
  race : Racecheck.t;
  race_on : bool;
  (* Flight recorder: always-on bounded ring of recent events (allocs,
     frees, retires, faults, reports) per process, dumped as a merged
     timeline when this heap faults or an instrument reports. *)
  recorder : Recorder.t;
}

let create config =
  let tele = Telemetry.create () in
  let h = Memcore.create Config.default_cost in
  let san = Sanitizer.create config.Config.sanitize tele h in
  let san_on = not (Sanitizer.is_off config.Config.sanitize) in
  let race = Racecheck.create config.Config.race tele h in
  let race_on = not (Racecheck.is_off config.Config.race) in
  h.Memcore.san_on <- san_on || race_on;
  {
    config;
    h;
    al =
      Alloc.create ~policy:config.Config.alloc
        ~contended:config.Config.alloc_contention h tele;
    here = Proc.here ();
    tags = Hashtbl.create 16;
    allocated = 0;
    freed = 0;
    live = 0;
    peak_live = 0;
    live_words = 0;
    tele;
    g_live = Telemetry.gauge tele "mem.live_blocks";
    g_live_words = Telemetry.gauge tele "mem.live_words";
    c_alloc_fresh = Telemetry.counter tele "mem.alloc.fresh";
    c_alloc_reuse = Telemetry.counter tele "mem.alloc.reuse";
    c_free = Telemetry.counter tele "mem.free";
    san;
    san_on;
    race;
    race_on;
    recorder = Recorder.create ();
  }

let telemetry t = t.tele

let allocator t = t.al

let sanitizer t = t.san

let recorder t = t.recorder

let hot t = t.h

let tag_stats t tag =
  match Hashtbl.find t.tags tag with
  | s -> s
  | exception Not_found ->
      let s =
        {
          tag_live = 0;
          c_tag_alloc = Telemetry.counter t.tele ("mem.alloc[" ^ tag ^ "]");
          c_tag_free = Telemetry.counter t.tele ("mem.free[" ^ tag ^ "]");
        }
      in
      Hashtbl.add t.tags tag s;
      s

(* A heap's accesses read its creating domain's env cell, so driving it
   from another domain would read the wrong process (or none). *)
let[@inline never] wrong_domain t what =
  invalid_arg
    (Printf.sprintf "Memory.%s: heap created on domain %d, driven from domain %d"
       what t.here.Proc.domain (Proc.here ()).Proc.domain)

(* File a report to the flight recorder: note it under [label] at
   [addr] and, when auto-dump is on, print the merged timeline. *)
let file t label addr ~header =
  Recorder.count t.recorder label addr;
  if Recorder.auto_dump_enabled () then
    prerr_string
      (Recorder.dump_string ~header:("flight recorder: " ^ header) t.recorder)

(* Raise a [Fault], first filing the sanitizer's report of it (header,
   block provenance, any caller-supplied detail lines) when armed. *)
let mem_fault : type a. t -> fault_kind -> addr:int -> ?tag:string ->
    ?extra:string list -> unit -> a =
 fun t kind ~addr ?tag ?(extra = []) () ->
  let pid = Proc.self () in
  let what = fault_kind_to_string kind in
  if t.san_on then
    Sanitizer.report_fault t.san ~what ~addr ~pid ~tag ~extra
      ~time:(Proc.global_now ());
  file t what addr ~header:what;
  raise (Fault { kind; addr; pid; tag })

(* Address validation for a data access at [a]; returns the block id. *)
let validate t a =
  let h = t.h in
  if a <= 0 then mem_fault t Null_deref ~addr:a ()
  else if a >= h.Memcore.top then mem_fault t Out_of_bounds ~addr:a ()
  else begin
    let bid = h.Memcore.block_id.(a) in
    if bid = 0 then mem_fault t Out_of_bounds ~addr:a ()
    else if h.Memcore.b_live.(bid) = 0 then
      mem_fault t Use_after_free ~addr:a ~tag:h.Memcore.b_tag.(bid) ()
    else bid
  end

let validate_addr t a = ignore (validate t a)

(* {1 Instrument glue}

   A real (tick-charged) access reads the running process's env from
   the heap's held cell ([t.here], one field load), pays, validates,
   and only then — when an instrument is armed ([Memcore.san_on]
   covers both) — reads pid and virtual time from that same env and
   hands them to the sanitizer and the race checker. The pay may
   suspend and resume this process, but it resumes under the same env,
   so [e.pid] and [e.gclock ()] equal what [Proc.self]/[Proc.global_now]
   would return here. The {!Vm}'s memory opcodes call {!instrument} at
   the same point, after flushing their elided pays, so the virtual
   time the instruments read does not depend on the engine. The access
   kind travels as a value and both instruments are direct calls; the
   race checker gets the run's envs array, so it need not read
   domain-local state. *)

let env_pid = function Some e -> e.Proc.pid | None -> -1

let env_time = function Some e -> e.Proc.gclock () | None -> 0

(* The sanitizer's audit of a validated access to [a]. *)
let[@inline] san_access t ~write ~pid ~time a =
  let h = t.h in
  let bid = h.Memcore.block_id.(a) in
  if Sanitizer.on_access t.san ~bid ~write ~pid ~time then
    mem_fault t Protection_violation ~addr:a ~tag:h.Memcore.b_tag.(bid)
      ~extra:[ "SMR-tracked block dereferenced outside any protection window" ]
      ()

(* Races never raise: the run completes and the audit reads the
   report list. *)
let race_noted t = function
  | Some r ->
      Racecheck.report_race t.race r;
      file t "data-race" r.Racecheck.r_addr ~header:"racecheck report"
  | None -> ()

(* Both instruments on one validated access of [kind] to [a], by [pid]
   of the run whose envs array is [run] at virtual time [time]. *)
let[@inline] observe t run ~pid ~time kind a =
  if t.san_on then
    san_access t
      ~write:(match kind with Racecheck.Read -> false | Write | Rmw -> true)
      ~pid ~time a;
  if t.race_on then
    match Racecheck.access t.race run kind ~addr:a ~pid ~time with
    | None -> ()
    | r -> race_noted t r

let instrument t e kind a =
  observe t e.Proc.peers ~pid:e.Proc.pid ~time:(e.Proc.gclock ()) kind a

(* {1 Allocation} *)

let new_block_slot t =
  let h = t.h in
  let id = h.Memcore.n_blocks in
  Memcore.ensure_block h id;
  h.Memcore.n_blocks <- id + 1;
  h.Memcore.b_base.(id) <- 0;
  h.Memcore.b_size.(id) <- 0;
  h.Memcore.b_live.(id) <- 0;
  h.Memcore.b_freed_by.(id) <- -1;
  h.Memcore.b_next.(id) <- 0;
  h.Memcore.b_tag.(id) <- "";
  id

(* Block bases sit on cache-line-PAIR boundaries ({!Memcore.alloc_align}):
   part of the address-obliviousness construction that keeps results
   independent of the allocator policy (see {!Memcore.reset_lines}). *)
let round_up_align a =
  (a + Memcore.alloc_align - 1) / Memcore.alloc_align * Memcore.alloc_align

let alloc t ~tag ~size =
  assert (size > 0);
  let h = t.h in
  if t.here != Proc.here () then wrong_domain t "alloc";
  let env = t.here.Proc.env in
  let pid = env_pid env in
  (* Plan first (a pure peek of the path the acquisition will take,
     plus the modeled metadata-contention ticks, if any), then pay,
     then acquire. Only pays consume virtual time, so bracketing
     exactly the pay attributes the allocation cost to the [Alloc]
     phase and its per-source child. The pay may interleave other
     processes, so the path actually taken by [acquire] can differ
     from the plan under contention — the attribution is a model, the
     freelist mutation itself is atomic either way. *)
  let plan =
    if t.config.Config.reuse then Alloc.plan_acquire t.al ~pid ~size
    else { Alloc.source = Alloc.Fresh; cost = 0 }
  in
  (match env with
  | Some e ->
      Profiler.enter_env e Profiler.Alloc;
      (match plan.Alloc.source with
      | Alloc.Local -> Profiler.enter_env e Profiler.Alloc_local
      | Alloc.Steal -> Profiler.enter_env e Profiler.Alloc_steal
      | Alloc.Fresh -> ());
      let n = h.Memcore.c_alloc + plan.Alloc.cost in
      if n > 0 then Proc.pay_env e n;
      (match plan.Alloc.source with
      | Alloc.Local | Alloc.Steal -> Profiler.exit_env e
      | Alloc.Fresh -> ());
      Profiler.exit_env e
  | None -> ());
  let bid = if t.config.Config.reuse then Alloc.acquire t.al ~pid ~size else 0 in
  let id, base =
    match bid with
    | id when id <> 0 ->
        (* Reuse in place: same base, fresh contents, and canonically
           cold coherence lines — so downstream costs cannot depend on
           which block the policy picked (DESIGN.md §4j). *)
        let base = h.Memcore.b_base.(id) in
        Array.fill h.Memcore.words base h.Memcore.b_size.(id) 0;
        Memcore.reset_lines h ~base ~size:h.Memcore.b_size.(id);
        h.Memcore.b_live.(id) <- 1;
        h.Memcore.b_tag.(id) <- tag;
        h.Memcore.b_freed_by.(id) <- -1;
        (id, base)
    | _ ->
        let base = round_up_align h.Memcore.top in
        Memcore.ensure_words h (base + size);
        h.Memcore.top <- base + size;
        let id = new_block_slot t in
        h.Memcore.b_base.(id) <- base;
        h.Memcore.b_size.(id) <- size;
        h.Memcore.b_tag.(id) <- tag;
        h.Memcore.b_live.(id) <- 1;
        Array.fill h.Memcore.block_id base size id;
        (id, base)
  in
  if h.Memcore.san_on then begin
    let time = env_time env in
    if t.san_on then Sanitizer.on_alloc t.san ~bid:id ~pid ~time;
    if t.race_on then
      Racecheck.on_alloc t.race ~bid:id ~base ~size:h.Memcore.b_size.(id) ~pid
        ~time
  end;
  t.allocated <- t.allocated + 1;
  t.live <- t.live + 1;
  t.live_words <- t.live_words + size;
  if t.live > t.peak_live then t.peak_live <- t.live;
  let ts = tag_stats t tag in
  ts.tag_live <- ts.tag_live + 1;
  Telemetry.incr (if bid <> 0 then t.c_alloc_reuse else t.c_alloc_fresh);
  Telemetry.incr ts.c_tag_alloc;
  Telemetry.set_gauge t.g_live t.live;
  Telemetry.set_gauge t.g_live_words t.live_words;
  Recorder.count t.recorder tag base;
  base

let free t a =
  let h = t.h in
  let env = t.here.Proc.env in
  let pid = env_pid env in
  (* Peek the size for the release plan without validating: a bogus
     address gets cost 0 here and faults below, after the [c_free]
     charge — exactly the legacy validation order. *)
  let release_cost =
    if not t.config.Config.alloc_contention then 0
    else begin
      let bid = Memcore.block_of h a in
      if bid <> 0 && h.Memcore.b_base.(bid) = a && h.Memcore.b_live.(bid) = 1
      then Alloc.plan_release t.al ~pid ~size:h.Memcore.b_size.(bid)
      else 0
    end
  in
  (match env with
  | Some e ->
      Profiler.enter_env e Profiler.Free;
      let n = h.Memcore.c_free + release_cost in
      if n > 0 then Proc.pay_env e n;
      Profiler.exit_env e
  | None -> ());
  Recorder.count t.recorder "free" a;
  let bid = Memcore.block_of h a in
  if bid = 0 then mem_fault t Not_a_block ~addr:a ();
  let tag = h.Memcore.b_tag.(bid) in
  if h.Memcore.b_base.(bid) <> a then mem_fault t Not_a_block ~addr:a ~tag ();
  if h.Memcore.b_live.(bid) = 0 then mem_fault t Double_free ~addr:a ~tag ();
  let freed =
    if t.san_on then
      Sanitizer.on_free t.san ~bid ~pid ~time:(env_time env)
    else Sanitizer.Take_back
  in
  (match freed with
  | Sanitizer.Violation extra ->
      mem_fault t Protection_violation ~addr:a ~tag ~extra ()
  | _ -> ());
  h.Memcore.b_live.(bid) <- 0;
  h.Memcore.b_freed_by.(bid) <- pid;
  if t.race_on then Racecheck.on_free t.race ~bid ~pid;
  t.freed <- t.freed + 1;
  t.live <- t.live - 1;
  t.live_words <- t.live_words - h.Memcore.b_size.(bid);
  let ts = tag_stats t tag in
  ts.tag_live <- ts.tag_live - 1;
  Telemetry.incr t.c_free;
  Telemetry.incr ts.c_tag_free;
  Telemetry.set_gauge t.g_live t.live;
  Telemetry.set_gauge t.g_live_words t.live_words;
  let back =
    match freed with
    | Sanitizer.Take_back -> bid
    | Sanitizer.Evict old -> old
    | Sanitizer.Evict_damaged old ->
        file t "quarantine-poison" h.Memcore.b_base.(old)
          ~header:"sanitizer report";
        old
    | Sanitizer.Hold | Sanitizer.Violation _ -> 0
  in
  if back <> 0 && t.config.Config.reuse then Alloc.release t.al ~pid ~bid:back

(* {1 Atomic word operations}

   Every access reads the env from the heap's held cell (no
   domain-local lookup) and pays inline ({!Proc.pay_env}); outside a
   simulation the coherence transition still happens (with pid [-1])
   and the pay is skipped. Profiling
   splits each cost into the scheme-independent floor (an L1 read, an
   owned-line RMW) charged to the surrounding phase and the coherence
   penalty above it, which {!Profiler.demote} moves to the phase's
   [Coherence] child; with profiling off both are one no-op match. The
   shared prelude below is inlined into each entry point, which thus
   makes the same calls as a hand-written body. *)

(* Charge one access to [a] and return the environment for the
   instruments. *)
let[@inline] pay_access t ~write a =
  let h = t.h in
  let env = t.here.Proc.env in
  let pid = env_pid env in
  let c =
    if write then Memcore.cost_write h ~pid ~addr:a
    else Memcore.cost_read h ~pid ~addr:a
  in
  (match env with
  | Some e ->
      Proc.pay_env e c;
      Profiler.demote e
        (c - if write then h.Memcore.c_rmw_owned else h.Memcore.c_l1)
  | None -> ());
  env

(* A single-word access of [kind] up to the data itself: pay, validate,
   then observe when an instrument is armed (outside a simulation as
   the orchestrator, pid [-1] at time 0). *)
let[@inline] access t ~write kind a =
  let h = t.h in
  let env = pay_access t ~write a in
  validate_addr t a;
  if h.Memcore.san_on then
    match env with
    | Some e -> instrument t e kind a
    | None -> observe t [||] ~pid:(-1) ~time:0 kind a

let read t a =
  access t ~write:false Racecheck.Read a;
  t.h.Memcore.words.(a)

(* {1 Span reads}

   [read_span] charges each word exactly as [read] would, and does the
   host work once per cache line. A read leaves its line in the
   reader's L1 way at the line's current version, so while this process
   keeps running inside its run-ahead grant (every pay elided: nobody
   else runs) each further word on that line is an L1 hit, [c_l1] with
   no state change. A line's words from [a] thus cost [cost_read] of
   [a] plus [c_l1] per further word, and when that total fits the
   budget every one of those pays would be elided (pay costs are
   positive, so each running sum fits too): the line is charged at
   once, and the ticks reach the clocks through one [bulk_pay], as the
   VM's memory opcodes do. Otherwise the word takes [read]'s own path
   after flushing: a pay outside the grant, or one that would deliver a
   pending signal, an armed instrument (it reads the clocks), a
   zero-tick pay (which counts no step), or an address that fails
   validation. The tests that need no validation run first, and the
   rest of the line is validated only when the word can still take
   the line at once; a word whose own cost reaches the budget cannot
   (the line's total is at least that cost). So under an armed
   instrument each word is validated once, on [read]'s path. *)

(* [validate]'s verdict without the fault: [a] lies in a live block. *)
let[@inline] live_word h a =
  a > 0 && a < h.Memcore.top
  &&
  let bid = h.Memcore.block_id.(a) in
  bid <> 0 && h.Memcore.b_live.(bid) = 1

(* The first address in [a, stop) that fails validation, or [stop]. *)
let rec live_upto h a stop =
  if a < stop && live_word h a then live_upto h (a + 1) stop else a

(* The span loop over [a, stop), one line at a time: [acc] ticks over
   [k] elided pays are not on the clocks yet. Top level, so a span
   allocates no closure. *)
let rec span t e f a stop acc k =
  if a >= stop then begin
    if k > 0 then e.Proc.bulk_pay acc k
  end
  else begin
    let h = t.h in
    let l1 = h.Memcore.c_l1 in
    let c = Memcore.cost_read h ~pid:e.Proc.pid ~addr:a in
    let v =
      if
        c > 0 && l1 > 0 && e.Proc.fast && c < e.Proc.budget
        && (not e.Proc.intr) && not h.Memcore.san_on
      then
        let line_end = (Memcore.line_of_addr a + 1) * Memcore.line_words in
        live_upto h a (Int.min stop line_end) - a
      else 0
    in
    let total = c + ((v - 1) * l1) in
    if v > 0 && total < e.Proc.budget then begin
      (match e.Proc.prof with
      | Some p ->
          let pen = Int.max 0 (c - l1) in
          let pc = p.Proc.pcounts in
          pc.(p.Proc.pcur) <- pc.(p.Proc.pcur) + total - pen;
          if pen > 0 then pc.(p.Proc.pcoh) <- pc.(p.Proc.pcoh) + pen
      | None -> ());
      e.Proc.budget <- e.Proc.budget - total;
      for i = a to a + v - 1 do
        f h.Memcore.words.(i)
      done;
      span t e f (a + v) stop (acc + total) (k + v)
    end
    else begin
      if k > 0 then e.Proc.bulk_pay acc k;
      Proc.pay_env e c;
      Profiler.demote e (c - l1);
      validate_addr t a;
      if h.Memcore.san_on then instrument t e Racecheck.Read a;
      f h.Memcore.words.(a);
      span t e f (a + 1) stop 0 0
    end
  end

let read_span t base n f =
  match t.here.Proc.env with
  | Some e -> span t e f base (base + n) 0 0
  | None ->
      for a = base to base + n - 1 do
        f (read t a)
      done

let write t a v =
  access t ~write:true Racecheck.Write a;
  t.h.Memcore.words.(a) <- v

let cas t a ~expected ~desired =
  access t ~write:true Racecheck.Rmw a;
  let w = t.h.Memcore.words in
  if w.(a) = expected then begin
    w.(a) <- desired;
    true
  end
  else false

let faa t a d =
  access t ~write:true Racecheck.Rmw a;
  let w = t.h.Memcore.words in
  let old = w.(a) in
  w.(a) <- old + d;
  old

let fas t a v =
  access t ~write:true Racecheck.Rmw a;
  let w = t.h.Memcore.words in
  let old = w.(a) in
  w.(a) <- v;
  old

(* {1 Debug access} *)

(* Debug access bypasses the sanitizer hooks (no protection audit, no
   provenance-ring pollution): oracles peek at will. *)
let peek t a =
  let _bid = validate t a in
  t.h.Memcore.words.(a)

let block_is_live t a =
  let bid = Memcore.block_of t.h a in
  bid <> 0 && t.h.Memcore.b_live.(bid) = 1

let block_base t a =
  let bid = validate t a in
  t.h.Memcore.b_base.(bid)

let block_tag t a =
  match Memcore.block_of t.h a with
  | 0 -> None
  | bid -> Some t.h.Memcore.b_tag.(bid)

(* {1 Accounting} *)

let usage t =
  {
    allocated = t.allocated;
    freed = t.freed;
    live = t.live;
    peak_live = t.peak_live;
    live_words = t.live_words;
  }

let live_with_tag t tag =
  match Hashtbl.find_opt t.tags tag with Some s -> s.tag_live | None -> 0

let iter_live t f =
  let h = t.h in
  for id = 1 to h.Memcore.n_blocks - 1 do
    if h.Memcore.b_live.(id) = 1 then
      f ~base:h.Memcore.b_base.(id) ~size:h.Memcore.b_size.(id)
        ~tag:h.Memcore.b_tag.(id)
  done

(* {1 Sanitizer annotations} *)

let mark_smr t a =
  let bid = Memcore.block_of t.h a in
  if t.san_on && bid <> 0 then Sanitizer.mark_smr t.san ~bid

let retire_note t a =
  Recorder.count t.recorder "retire" a;
  let bid = Memcore.block_of t.h a in
  if bid <> 0 then begin
    let env = t.here.Proc.env in
    let pid = env_pid env in
    if t.race_on then Racecheck.on_retire t.race ~bid ~pid;
    if
      t.san_on
      && Sanitizer.on_retire t.san ~bid ~pid ~time:(env_time env)
    then
      mem_fault t Double_free ~addr:a ~tag:t.h.Memcore.b_tag.(bid)
        ~extra:[ "second retire of the same block (double retire)" ] ()
  end

let leaks_by_site t = Sanitizer.leaks_by_site t.san

let sanitizer_reports t = Sanitizer.reports t.san

(* {1 Race-checker annotations} *)

let mark_race_sync t a =
  if t.race_on && a > 0 then Racecheck.mark_sync t.race ~addr:a

let race_reports t = Racecheck.reports t.race

let race_report_count t = Racecheck.report_count t.race
