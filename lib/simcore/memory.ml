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

let pp_fault ppf = function
  | Fault { kind; addr; pid; tag } ->
      Format.fprintf ppf "%s addr=%d pid=%d tag=%s"
        (fault_kind_to_string kind) addr pid
        (match tag with Some s -> s | None -> "-")
  | e -> Format.pp_print_string ppf (Printexc.to_string e)

let fault_to_string e = Format.asprintf "%a" pp_fault e

type usage = {
  allocated : int;
  freed : int;
  live : int;
  peak_live : int;
  live_words : int;
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
  tag_live : (string, int ref) Hashtbl.t;
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
  tag_probes : (string, Telemetry.counter * Telemetry.counter) Hashtbl.t;
  (* Sanitizer: always present (no-op entry points when the mode is
     off); [shadows] parallels the block ids and is only
     maintained/indexed when [san_on]. [quarantine] holds
     freed-but-not-yet-reusable block ids in FIFO order. *)
  san : Sanitizer.t;
  san_on : bool;
  mutable shadows : Sanitizer.shadow array;
  quarantine : int Queue.t;
  (* Race checker: always present (no-op when off). Pays no ticks and
     allocates nothing simulated, so arming it perturbs no schedule;
     the VM's memory opcodes call the same {!instrument} observer after
     flushing their elided pays, so both engines feed it the identical
     access stream. *)
  race : Racecheck.t;
  race_on : bool;
  (* Flight recorder: always-on bounded ring of recent events (allocs,
     frees, retires, faults) per process, dumped as a merged timeline
     when this heap faults or the sanitizer reports. *)
  recorder : Recorder.t;
}

(* Sentinel filling quarantined blocks; any surviving non-poison word at
   release time indicates the heap's own access checks were bypassed. *)
let poison_word = 0xDEAD_F00D

let create config =
  let tele = Telemetry.create () in
  let san = Sanitizer.create config.Config.sanitize tele in
  let san_on = not (Sanitizer.is_off config.Config.sanitize) in
  let race = Racecheck.create config.Config.race tele in
  let race_on = not (Racecheck.is_off config.Config.race) in
  let h = Memcore.create config.Config.cost in
  h.Memcore.san_on <- san_on || race_on;
  {
    config;
    h;
    al =
      Alloc.create ~policy:config.Config.alloc
        ~contended:config.Config.alloc_contention h tele;
    tag_live = Hashtbl.create 16;
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
    tag_probes = Hashtbl.create 16;
    san;
    san_on;
    shadows = (if san_on then Array.make 256 (Sanitizer.fresh_shadow ()) else [||]);
    quarantine = Queue.create ();
    race;
    race_on;
    recorder = Recorder.create ~procs:config.Config.cores ();
  }

let telemetry t = t.tele

let allocator t = t.al

let sanitizer t = t.san

let recorder t = t.recorder

let hot t = t.h

let tag_probe t tag =
  match Hashtbl.find_opt t.tag_probes tag with
  | Some p -> p
  | None ->
      let p =
        ( Telemetry.counter t.tele ("mem.alloc[" ^ tag ^ "]"),
          Telemetry.counter t.tele ("mem.free[" ^ tag ^ "]") )
      in
      Hashtbl.add t.tag_probes tag p;
      p

let tag_cell t tag =
  match Hashtbl.find_opt t.tag_live tag with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.tag_live tag r;
      r

(* Raise a [Fault], first recording an ASan-style sanitizer report
   (header + block provenance + any caller-supplied detail lines) when
   the sanitizer is on. *)
let mem_fault : type a. t -> fault_kind -> addr:int -> ?tag:string ->
    ?extra:string list -> unit -> a =
 fun t kind ~addr ?tag ?(extra = []) () ->
  let pid = Proc.self () in
  if t.san_on then begin
    let h = t.h in
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Printf.sprintf "==sanitizer== %s: addr=%d pid=%d tag=%s"
         (fault_kind_to_string kind) addr pid
         (match tag with Some s -> s | None -> "-"));
    if
      (Sanitizer.mode t.san).Sanitizer.shadow
      && addr > 0 && addr < h.Memcore.top
      && h.Memcore.block_id.(addr) <> 0
    then
      List.iter
        (fun l -> Buffer.add_string buf ("\n  " ^ l))
        (Sanitizer.provenance t.san t.shadows.(h.Memcore.block_id.(addr)));
    List.iter (fun l -> Buffer.add_string buf ("\n  " ^ l)) extra;
    Buffer.add_string buf
      (Printf.sprintf "\n  faulting access by pid %d at t=%d" pid
         (Proc.global_now ()));
    Sanitizer.report t.san (Buffer.contents buf)
  end;
  Recorder.count t.recorder (fault_kind_to_string kind) addr;
  if Recorder.auto_dump_enabled () then
    Recorder.dump_stderr
      ~header:("flight recorder: " ^ fault_kind_to_string kind)
      t.recorder;
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

   A real (tick-charged) access fetches the ambient environment once,
   pays, validates, and only then — when an instrument is armed
   ([Memcore.san_on] covers both) — reads pid and virtual time from
   that same environment and hands them to the sanitizer and the race
   checker. The pay may suspend and resume this process, but it
   resumes under the same environment, so [e.pid] and [e.gclock ()]
   equal what [Proc.self]/[Proc.global_now] would return here. The
   {!Vm}'s memory opcodes call {!instrument}/{!instrument_pair} at the
   same point, after flushing their elided pays, so the virtual time
   the instruments read does not depend on the engine. *)

let env_pid = function Some e -> e.Proc.pid | None -> -1

let env_time = function Some e -> e.Proc.gclock () | None -> 0

(* Sanitizer hooks for a validated access to [a]: the protection-window
   audit on SMR-tracked blocks, and the recent-ops provenance ring. *)
let san_access t ~write ~pid ~time a =
  let bid = t.h.Memcore.block_id.(a) in
  let sh = t.shadows.(bid) in
  let m = Sanitizer.mode t.san in
  (* Audit only in-simulation dereferences of SMR-tracked blocks that
     were allocated in-simulation. Setup-allocated blocks (structure
     roots, prefill) are immortal or handed over with the structure;
     the allocating pid may touch its own block bare until it is
     published and retired (it owns it outright before publication). *)
  if
    m.Sanitizer.protocol && Sanitizer.tracked sh && pid >= 0
    && Sanitizer.alloc_pid sh >= 0
    && not (pid = Sanitizer.alloc_pid sh && not (Sanitizer.retired sh))
    && not (Sanitizer.pid_shielded t.san ~pid)
  then
    mem_fault t Protection_violation ~addr:a ~tag:t.h.Memcore.b_tag.(bid)
      ~extra:[ "SMR-tracked block dereferenced outside any protection window" ]
      ();
  if m.Sanitizer.shadow then Sanitizer.note_access t.san sh ~write ~pid ~time

(* Decorate a conflict from {!Racecheck} with block provenance and
   record it the way sanitizer reports are recorded: an ASan-style
   text (retained, counted, recorder-noted, auto-dumped). Races never
   raise — the run completes and the audit reads the report list. *)
let race_note t (r : Racecheck.race) =
  let h = t.h in
  let addr = r.Racecheck.r_addr in
  let bid =
    if addr > 0 && addr < h.Memcore.top then h.Memcore.block_id.(addr) else 0
  in
  let side (s : Racecheck.side) =
    Printf.sprintf "%s by pid %d at t=%d" s.Racecheck.s_what s.Racecheck.s_pid
      s.Racecheck.s_time
  in
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "==racecheck== data race: addr=%d tag=%s" addr
       (if bid <> 0 then h.Memcore.b_tag.(bid) else "-"));
  Buffer.add_string buf ("\n  " ^ side r.Racecheck.r_cur);
  Buffer.add_string buf ("\n  conflicts with earlier " ^ side r.Racecheck.r_prev);
  (match if bid <> 0 then Racecheck.alloc_site t.race ~bid else None with
  | Some (apid, atime) ->
      Buffer.add_string buf
        (Printf.sprintf "\n  block allocated by pid %d at t=%d (tag %s)" apid
           atime h.Memcore.b_tag.(bid))
  | None -> ());
  Racecheck.report t.race (Buffer.contents buf);
  Recorder.count t.recorder "data-race" addr;
  if Recorder.auto_dump_enabled () then
    Recorder.dump_stderr ~header:"flight recorder: racecheck report" t.recorder

let race_noted t = function Some r -> race_note t r | None -> ()

(* Both instruments on one validated access to [a]; [race] is the
   checker's hook for the access kind. *)
let instrument t env ~write race a =
  let pid = env_pid env and time = env_time env in
  if t.san_on then san_access t ~write ~pid ~time a;
  if t.race_on then race_noted t (race t.race ~addr:a ~pid ~time)

(* A double-word RMW at [a, a+1], [a] already validated: audit [a],
   validate and audit [a + 1], and only then race both — the fault
   order of a sanitized [cas2]. *)
let instrument_pair t env a =
  let pid = env_pid env and time = env_time env in
  if t.san_on then san_access t ~write:true ~pid ~time a;
  validate_addr t (a + 1);
  if t.san_on then san_access t ~write:true ~pid ~time (a + 1);
  if t.race_on then begin
    race_noted t (Racecheck.on_rmw t.race ~addr:a ~pid ~time);
    race_noted t (Racecheck.on_rmw t.race ~addr:(a + 1) ~pid ~time)
  end

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

(* Ensure [t.shadows] covers block [id] with a fresh record. *)
let shadow_slot t id =
  if id >= Array.length t.shadows then
    t.shadows <-
      Memcore.grow_array t.shadows ~needed:(id + 1) ~fill:t.shadows.(0);
  t.shadows.(id) <- Sanitizer.fresh_shadow ()

let alloc t ~tag ~size =
  assert (size > 0);
  let h = t.h in
  let pid = Proc.self () in
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
  Profiler.enter Profiler.Alloc;
  (match plan.Alloc.source with
  | Alloc.Local -> Profiler.enter Profiler.Alloc_local
  | Alloc.Steal -> Profiler.enter Profiler.Alloc_steal
  | Alloc.Fresh -> ());
  Proc.pay (h.Memcore.c_alloc + plan.Alloc.cost);
  (match plan.Alloc.source with
  | Alloc.Local | Alloc.Steal -> Profiler.exit ()
  | Alloc.Fresh -> ());
  Profiler.exit ();
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
        if t.san_on then shadow_slot t id;
        (id, base)
  in
  if h.Memcore.san_on then begin
    let time = Proc.global_now () in
    if t.san_on then Sanitizer.shadow_alloc t.san t.shadows.(id) ~pid ~time;
    if t.race_on then
      Racecheck.on_alloc t.race ~bid:id ~base ~size:h.Memcore.b_size.(id) ~pid
        ~time
  end;
  t.allocated <- t.allocated + 1;
  t.live <- t.live + 1;
  t.live_words <- t.live_words + size;
  if t.live > t.peak_live then t.peak_live <- t.live;
  incr (tag_cell t tag);
  Telemetry.incr (if bid <> 0 then t.c_alloc_reuse else t.c_alloc_fresh);
  Telemetry.incr (fst (tag_probe t tag));
  Telemetry.set_gauge t.g_live t.live;
  Telemetry.set_gauge t.g_live_words t.live_words;
  Recorder.count t.recorder tag base;
  base

(* Release the oldest quarantined block back to the freelist, verifying
   its poison first (a damaged sentinel means the heap's own access
   checks were bypassed — an internal invariant violation). *)
let quarantine_release_oldest t =
  let h = t.h in
  let old = Queue.pop t.quarantine in
  let base = h.Memcore.b_base.(old) and size = h.Memcore.b_size.(old) in
  let intact = ref true in
  for i = base to base + size - 1 do
    if h.Memcore.words.(i) <> poison_word then intact := false
  done;
  if not !intact then begin
    Sanitizer.report t.san
      (Printf.sprintf
         "==sanitizer== quarantine poison damaged: addr=%d tag=%s" base
         h.Memcore.b_tag.(old));
    if Recorder.auto_dump_enabled () then
      Recorder.dump_stderr ~header:"flight recorder: sanitizer report"
        t.recorder
  end;
  Array.fill h.Memcore.words base size 0;
  Sanitizer.set_quarantined t.shadows.(old) false;
  if t.config.Config.reuse then
    Alloc.release t.al ~pid:(Proc.self ()) ~bid:old

let free t a =
  let h = t.h in
  let pid = Proc.self () in
  (* Peek the size for the release plan without validating: a bogus
     address gets cost 0 here and faults below, after the [c_free]
     charge — exactly the legacy validation order. *)
  let release_cost =
    if not t.config.Config.alloc_contention then 0
    else begin
      let bid =
        if a > 0 && a < h.Memcore.top then h.Memcore.block_id.(a) else 0
      in
      if bid <> 0 && h.Memcore.b_base.(bid) = a && h.Memcore.b_live.(bid) = 1
      then
        Alloc.plan_release t.al ~pid
          ~size:h.Memcore.b_size.(bid)
      else 0
    end
  in
  Profiler.enter Profiler.Free;
  Proc.pay (h.Memcore.c_free + release_cost);
  Profiler.exit ();
  Recorder.count t.recorder "free" a;
  if a <= 0 || a >= h.Memcore.top then mem_fault t Not_a_block ~addr:a ();
  let bid = h.Memcore.block_id.(a) in
  if bid = 0 then mem_fault t Not_a_block ~addr:a ();
  let tag = h.Memcore.b_tag.(bid) in
  if h.Memcore.b_base.(bid) <> a then mem_fault t Not_a_block ~addr:a ~tag ();
  if h.Memcore.b_live.(bid) = 0 then mem_fault t Double_free ~addr:a ~tag ();
  if t.san_on && (Sanitizer.mode t.san).Sanitizer.protocol then begin
    let n = Sanitizer.protected_count t.san a in
    if n > 0 then
      mem_fault t Protection_violation ~addr:a ~tag
        ~extra:
          (List.map
             (fun (p, how) ->
               Printf.sprintf "still protected by pid %d (%s)" p how)
             (Sanitizer.protectors t.san a))
        ()
  end;
  h.Memcore.b_live.(bid) <- 0;
  h.Memcore.b_freed_by.(bid) <- pid;
  if t.race_on then Racecheck.on_free t.race ~bid ~pid;
  t.freed <- t.freed + 1;
  t.live <- t.live - 1;
  t.live_words <- t.live_words - h.Memcore.b_size.(bid);
  decr (tag_cell t tag);
  Telemetry.incr t.c_free;
  Telemetry.incr (snd (tag_probe t tag));
  Telemetry.set_gauge t.g_live t.live;
  Telemetry.set_gauge t.g_live_words t.live_words;
  if t.san_on then begin
    Sanitizer.shadow_free t.san t.shadows.(bid) ~pid ~time:(Proc.global_now ());
    let q = (Sanitizer.mode t.san).Sanitizer.quarantine in
    if q > 0 then begin
      (* Poison and hold the block out of the freelist for the next [q]
         frees; stale pointers keep faulting instead of silently reading
         the reused block. *)
      Array.fill h.Memcore.words h.Memcore.b_base.(bid) h.Memcore.b_size.(bid)
        poison_word;
      Sanitizer.set_quarantined t.shadows.(bid) true;
      Queue.push bid t.quarantine;
      if Queue.length t.quarantine > q then quarantine_release_oldest t;
      Sanitizer.set_quarantine_level t.san (Queue.length t.quarantine)
    end
    else if t.config.Config.reuse then
      Alloc.release t.al ~pid ~bid
  end
  else if t.config.Config.reuse then Alloc.release t.al ~pid ~bid

(* {1 Atomic word operations}

   Every access fetches the ambient environment once and pays inline
   ({!Proc.pay_env}); outside a simulation the coherence transition
   still happens (with pid [-1]) and the pay is skipped. Profiling
   splits each cost into the scheme-independent floor (an L1 read, an
   owned-line RMW) charged to the surrounding phase and the coherence
   penalty above it, which {!Profiler.demote} moves to the phase's
   [Coherence] child; with profiling off both are one no-op match. The
   shared prelude below is inlined into each entry point, which thus
   makes the same calls as a hand-written body. *)

(* Charge one access to [a] ([extra]: CAS2's surcharge, above the
   floor) and return the environment for the instruments. *)
let[@inline] pay_access h ~write ~extra a =
  let env = Proc.get_env () in
  let pid = env_pid env in
  let c =
    if write then Memcore.cost_write h ~pid ~addr:a
    else Memcore.cost_read h ~pid ~addr:a
  in
  (match env with
  | Some e ->
      Proc.pay_env e (c + extra);
      Profiler.demote e
        (c - if write then h.Memcore.c_rmw_owned else h.Memcore.c_l1)
  | None -> ());
  env

(* A single-word access up to the data itself: pay, validate, then
   observe when an instrument is armed ([hook]: the race checker's hook
   for the access kind). *)
let[@inline] access t ~write hook a =
  let h = t.h in
  let env = pay_access h ~write ~extra:0 a in
  validate_addr t a;
  if h.Memcore.san_on then instrument t env ~write hook a

let read t a =
  access t ~write:false Racecheck.on_read a;
  t.h.Memcore.words.(a)

let write t a v =
  access t ~write:true Racecheck.on_write a;
  t.h.Memcore.words.(a) <- v

let cas t a ~expected ~desired =
  access t ~write:true Racecheck.on_rmw a;
  let w = t.h.Memcore.words in
  if w.(a) = expected then begin
    w.(a) <- desired;
    true
  end
  else false

let faa t a d =
  access t ~write:true Racecheck.on_rmw a;
  let w = t.h.Memcore.words in
  let old = w.(a) in
  w.(a) <- old + d;
  old

let fas t a v =
  access t ~write:true Racecheck.on_rmw a;
  let w = t.h.Memcore.words in
  let old = w.(a) in
  w.(a) <- v;
  old

let cas2 t a ~e0 ~e1 ~d0 ~d1 =
  let h = t.h in
  let env = pay_access h ~write:true ~extra:h.Memcore.c_dwcas_extra a in
  validate_addr t a;
  if h.Memcore.san_on then instrument_pair t env a
  else validate_addr t (a + 1);
  let w = h.Memcore.words in
  if w.(a) = e0 && w.(a + 1) = e1 then begin
    w.(a) <- d0;
    w.(a + 1) <- d1;
    true
  end
  else false

(* {1 Debug access} *)

(* Debug access bypasses the sanitizer hooks (no protection audit, no
   provenance-ring pollution): oracles peek at will. *)
let peek t a =
  let _bid = validate t a in
  t.h.Memcore.words.(a)

let block_is_live t a =
  let h = t.h in
  a > 0 && a < h.Memcore.top
  && h.Memcore.block_id.(a) <> 0
  && h.Memcore.b_live.(h.Memcore.block_id.(a)) = 1

let block_base t a =
  let bid = validate t a in
  t.h.Memcore.b_base.(bid)

let block_tag t a =
  let h = t.h in
  if a <= 0 || a >= h.Memcore.top || h.Memcore.block_id.(a) = 0 then None
  else Some h.Memcore.b_tag.(h.Memcore.block_id.(a))

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
  match Hashtbl.find_opt t.tag_live tag with Some r -> !r | None -> 0

let iter_live t f =
  let h = t.h in
  for id = 1 to h.Memcore.n_blocks - 1 do
    if h.Memcore.b_live.(id) = 1 then
      f ~base:h.Memcore.b_base.(id) ~size:h.Memcore.b_size.(id)
        ~tag:h.Memcore.b_tag.(id)
  done

(* {1 Sanitizer annotations} *)

let mark_smr t a =
  let h = t.h in
  if t.san_on && a > 0 && a < h.Memcore.top && h.Memcore.block_id.(a) <> 0 then
    Sanitizer.set_tracked t.shadows.(h.Memcore.block_id.(a))

let retire_note t a =
  let h = t.h in
  Recorder.count t.recorder "retire" a;
  if t.race_on && a > 0 && a < h.Memcore.top && h.Memcore.block_id.(a) <> 0 then
    Racecheck.on_retire t.race ~bid:h.Memcore.block_id.(a) ~pid:(Proc.self ());
  if t.san_on && a > 0 && a < h.Memcore.top && h.Memcore.block_id.(a) <> 0
  then begin
    let bid = h.Memcore.block_id.(a) in
    if
      Sanitizer.note_retire t.san t.shadows.(bid) ~pid:(Proc.self ())
        ~time:(Proc.global_now ())
      && h.Memcore.b_live.(bid) = 1
    then
      mem_fault t Double_free ~addr:a ~tag:h.Memcore.b_tag.(bid)
        ~extra:[ "second retire of the same block (double retire)" ] ()
  end

let leaks_by_site t =
  if not (t.san_on && (Sanitizer.mode t.san).Sanitizer.leaks) then []
  else begin
    let h = t.h in
    let tbl = Hashtbl.create 16 in
    for id = 1 to h.Memcore.n_blocks - 1 do
      if h.Memcore.b_live.(id) = 1 then begin
        let key = (h.Memcore.b_tag.(id), Sanitizer.alloc_pid t.shadows.(id)) in
        let c, w =
          match Hashtbl.find_opt tbl key with Some cw -> cw | None -> (0, 0)
        in
        Hashtbl.replace tbl key (c + 1, w + h.Memcore.b_size.(id))
      end
    done;
    Hashtbl.fold (fun (tag, pid) (c, w) acc -> (tag, pid, c, w) :: acc) tbl []
    |> List.sort (fun (t1, p1, c1, _) (t2, p2, c2, _) ->
           match Int.compare c2 c1 with
           | 0 -> (
               match String.compare t1 t2 with 0 -> Int.compare p1 p2 | n -> n)
           | n -> n)
  end

let sanitizer_reports t = Sanitizer.reports t.san

(* {1 Race-checker annotations} *)

let racecheck t = t.race

let mark_race_sync t a =
  if t.race_on && a > 0 then Racecheck.mark_sync t.race ~addr:a

let race_reports t = Racecheck.reports t.race

let race_report_count t = Racecheck.report_count t.race
