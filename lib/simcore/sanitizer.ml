(* Shadow-heap sanitizer: provenance, quarantine, SMR protocol
   auditing, leak attribution, over the blocks of one heap. Driven by
   virtual time and simulation pids — no ticks, no addresses of its
   own; it writes heap words only to poison quarantined blocks — so
   every checker is deterministic and bit-identical across fastpath
   on/off and [--jobs] values. See sanitizer.mli. *)

(* {1 Mode} *)

type mode = { shadow : bool; quarantine : int; protocol : bool; leaks : bool }

let off = { shadow = false; quarantine = 0; protocol = false; leaks = false }

let default_quarantine = 64

let default_on = { shadow = true; quarantine = 0; protocol = true; leaks = true }

let all_on = { default_on with quarantine = default_quarantine }

let is_off m = m = off

let mode_to_string m =
  if is_off m then "off"
  else
    String.concat ","
      (List.concat
         [
           (if m.shadow then [ "shadow" ] else []);
           (if m.quarantine > 0 then
              [ Printf.sprintf "quarantine=%d" m.quarantine ]
            else []);
           (if m.protocol then [ "protocol" ] else []);
           (if m.leaks then [ "leaks" ] else []);
         ])

let mode_of_string s =
  Modeparse.parse ~what:"sanitize"
    ~expected:"shadow|quarantine[=N]|protocol|leaks|all|default|off" ~off
    ~token:(fun m tok ->
      match tok with
      | "shadow" -> Some (Ok { m with shadow = true })
      | "protocol" -> Some (Ok { m with protocol = true })
      | "leaks" -> Some (Ok { m with leaks = true })
      | "quarantine" -> Some (Ok { m with quarantine = default_quarantine })
      | "all" ->
          Some
            (Ok
               {
                 shadow = true;
                 quarantine = Int.max m.quarantine default_quarantine;
                 protocol = true;
                 leaks = true;
               })
      | "default" | "on" ->
          Some (Ok { m with shadow = true; protocol = true; leaks = true })
      | _ -> (
          match
            if String.length tok > 11 && String.sub tok 0 11 = "quarantine="
            then
              int_of_string_opt (String.sub tok 11 (String.length tok - 11))
            else None
          with
          | Some n when n > 0 -> Some (Ok { m with quarantine = n })
          | Some _ -> Some (Error "quarantine depth must be positive")
          | None -> None))
    s

(* {1 Shadow block records}

   One record per heap block id, reused across lifetimes. The
   recent-op ring packs (event, pid, time) into one int each:
   bits 60..62 event, 48..59 pid+2 (clamped), 0..47 time. *)

let ring_len = 8

let ev_alloc = 0
let ev_free = 1
let ev_read = 2
let ev_write = 3
let ev_retire = 4

let ev_name = function
  | 0 -> "alloc"
  | 1 -> "free"
  | 2 -> "read"
  | 3 -> "write"
  | 4 -> "retire"
  | _ -> "?"

let[@inline] pack ev pid time =
  let p = pid + 2 in
  let pid' = if p < 0 then 0 else if p > 4095 then 4095 else p in
  (ev lsl 60) lor (pid' lsl 48) lor (time land 0xFFFF_FFFF_FFFF)

let unpack e =
  let ev = (e lsr 60) land 0x7 in
  let pid = ((e lsr 48) land 0xFFF) - 2 in
  let time = e land 0xFFFF_FFFF_FFFF in
  (ev, pid, time)

type shadow = {
  mutable s_gen : int;  (* lifetimes started; 0 = never allocated *)
  mutable s_alloc_pid : int;
  mutable s_alloc_time : int;
  mutable s_free_pid : int;  (* -2 = not freed in this lifetime *)
  mutable s_free_time : int;
  mutable s_tracked : bool;
  mutable s_retired : bool;
  mutable s_quarantined : bool;
  s_ring : int array;
  mutable s_ring_n : int;  (* total events ever pushed *)
}

let fresh_shadow () =
  {
    s_gen = 0;
    s_alloc_pid = -2;
    s_alloc_time = 0;
    s_free_pid = -2;
    s_free_time = 0;
    s_tracked = false;
    s_retired = false;
    s_quarantined = false;
    s_ring = Array.make ring_len 0;
    s_ring_n = 0;
  }

(* Fills the shadow table's unallocated slots; {!on_alloc} gives each
   new block id its own record. *)
let no_shadow = fresh_shadow ()

let push_ev sh ev pid time =
  sh.s_ring.(sh.s_ring_n mod ring_len) <- pack ev pid time;
  sh.s_ring_n <- sh.s_ring_n + 1

(* {1 Protocol state}

   Array-backed, so the annotations on the acquire path (a slot
   overwrite is two count updates and four stores) never hash or
   allocate: slot keys are dense because {!register_slots} hands them
   out contiguously from 0, pids are small ints (index [pid + 1], so
   the orchestrator's [-1] is index 0), and protected addresses are
   heap block bases. Every array grows on demand by doubling. *)

type pstate = {
  mutable p_depth : int;  (* open windows *)
  mutable p_slots : int;  (* live slot protections owned by this pid *)
  mutable p_wset : int array;  (* window-protected addrs, one per protection *)
  mutable p_wlen : int;
}

type t = {
  m : mode;
  tele : Telemetry.t;
  h : Memcore.t;  (* the heap whose blocks this instance shadows *)
  mutable shadows : shadow array;  (* block id -> record *)
  quarantine : int Queue.t;  (* freed, poisoned, held block ids; FIFO *)
  mutable g_quar : Telemetry.gauge option;
  mutable next_key : int;
  mutable slot_pid : int array;  (* slot key -> owning pid *)
  mutable slot_addr : int array;  (* slot key -> protected addr; 0 = empty *)
  mutable prot : int array;  (* addr -> total protection count *)
  mutable pids : pstate array;  (* pid + 1 -> state *)
  mutable rev_reports : string list;  (* newest first, capped *)
  mutable n_reports : int;
}

let fresh_pstate _ = { p_depth = 0; p_slots = 0; p_wset = [||]; p_wlen = 0 }

let create m tele h =
  {
    m;
    tele;
    h;
    shadows = [||];
    quarantine = Queue.create ();
    g_quar = None;
    next_key = 0;
    slot_pid = Array.make 64 0;
    slot_addr = Array.make 64 0;
    prot = Array.make 256 0;
    pids = Array.init 16 fresh_pstate;
    rev_reports = [];
    n_reports = 0;
  }

let mode t = t.m

(* {1 Provenance} *)

let provenance sh =
  let site what pid time =
    Printf.sprintf "%s by pid %d at t=%d" what pid time
  in
  let head =
    if sh.s_gen = 0 then [ "never allocated" ]
    else
      (site "allocated" sh.s_alloc_pid sh.s_alloc_time
      ^ Printf.sprintf " (lifetime %d)" sh.s_gen)
      ::
      (if sh.s_free_pid <> -2 then
         [
           site "freed" sh.s_free_pid sh.s_free_time
           ^ (if sh.s_quarantined then " (in quarantine)" else "");
         ]
       else [])
  in
  let ring =
    if sh.s_ring_n = 0 then []
    else begin
      let n = Int.min sh.s_ring_n ring_len in
      let evs = ref [] in
      for i = 0 to n - 1 do
        (* oldest retained first *)
        let idx = (sh.s_ring_n - n + i) mod ring_len in
        let ev, pid, time = unpack sh.s_ring.(idx) in
        evs := Printf.sprintf "%s(p%d@%d)" (ev_name ev) pid time :: !evs
      done;
      [ "recent ops: " ^ String.concat " " (List.rev !evs) ]
    end
  in
  head @ ring

(* {1 Protocol auditor} *)

let pstate t pid =
  let i = pid + 1 in
  if i >= Array.length t.pids then begin
    let n = Array.length t.pids in
    t.pids <-
      Array.init (Int.max (i + 1) (2 * n)) (fun j ->
          if j < n then t.pids.(j) else fresh_pstate j)
  end;
  t.pids.(i)

let prot_incr t addr n =
  if addr >= Array.length t.prot then
    t.prot <- Memcore.grow_array t.prot ~needed:(addr + 1) ~fill:0;
  let c = t.prot.(addr) + n in
  t.prot.(addr) <- (if c < 0 then 0 else c)

let ensure_slots t n =
  if n > Array.length t.slot_addr then begin
    t.slot_pid <- Memcore.grow_array t.slot_pid ~needed:n ~fill:0;
    t.slot_addr <- Memcore.grow_array t.slot_addr ~needed:n ~fill:0
  end

let register_slots t ~n =
  let b = t.next_key in
  t.next_key <- b + n;
  ensure_slots t t.next_key;
  b

let protect t ~key ~pid addr =
  if t.m.protocol then begin
    ensure_slots t (key + 1);
    let oaddr = t.slot_addr.(key) in
    if oaddr <> 0 then begin
      let o = pstate t t.slot_pid.(key) in
      o.p_slots <- o.p_slots - 1;
      prot_incr t oaddr (-1);
      t.slot_addr.(key) <- 0
    end;
    if addr <> 0 then begin
      t.slot_pid.(key) <- pid;
      t.slot_addr.(key) <- addr;
      let p = pstate t pid in
      p.p_slots <- p.p_slots + 1;
      prot_incr t addr 1
    end
  end

let window_enter t ~pid =
  if t.m.protocol then begin
    let p = pstate t pid in
    p.p_depth <- p.p_depth + 1
  end

let window_exit t ~pid =
  if t.m.protocol then begin
    let p = pstate t pid in
    if p.p_depth > 0 then p.p_depth <- p.p_depth - 1;
    if p.p_depth = 0 then begin
      for i = 0 to p.p_wlen - 1 do
        prot_incr t p.p_wset.(i) (-1)
      done;
      p.p_wlen <- 0
    end
  end

let window_protect t ~pid addr =
  if t.m.protocol && addr <> 0 then begin
    let p = pstate t pid in
    if p.p_depth > 0 then begin
      if p.p_wlen = Array.length p.p_wset then
        p.p_wset <- Memcore.grow_array p.p_wset ~needed:8 ~fill:0;
      p.p_wset.(p.p_wlen) <- addr;
      p.p_wlen <- p.p_wlen + 1;
      prot_incr t addr 1
    end
  end

let protected_count t addr =
  if addr >= 0 && addr < Array.length t.prot then t.prot.(addr) else 0

let window_holds p addr =
  let rec go i = i < p.p_wlen && (p.p_wset.(i) = addr || go (i + 1)) in
  go 0

let protectors t addr =
  let acc = ref [] in
  for key = 0 to Array.length t.slot_addr - 1 do
    if addr <> 0 && t.slot_addr.(key) = addr then acc := (t.slot_pid.(key), "slot") :: !acc
  done;
  Array.iteri
    (fun i p -> if window_holds p addr then acc := (i - 1, "window") :: !acc)
    t.pids;
  List.sort_uniq
    (fun (p1, h1) (p2, h2) ->
      match Int.compare p1 p2 with 0 -> String.compare h1 h2 | c -> c)
    !acc

let pid_shielded t ~pid =
  let i = pid + 1 in
  i >= 0 && i < Array.length t.pids
  &&
  let p = t.pids.(i) in
  p.p_depth > 0 || p.p_slots > 0

let reset_protocol t =
  Array.fill t.slot_addr 0 (Array.length t.slot_addr) 0;
  Array.fill t.prot 0 (Array.length t.prot) 0;
  Array.iter
    (fun p ->
      p.p_depth <- 0;
      p.p_slots <- 0;
      p.p_wlen <- 0)
    t.pids

(* {1 Reports and probes}

   Probes are registered lazily so that a clean sanitized run's
   telemetry snapshot is byte-identical to an unsanitized one. *)

let max_reports = 128

let report t text =
  Telemetry.incr (Telemetry.counter t.tele "san.reports");
  t.n_reports <- t.n_reports + 1;
  if t.n_reports <= max_reports then t.rev_reports <- text :: t.rev_reports

let reports t = List.rev t.rev_reports

let quarantine_level t n =
  let g =
    match t.g_quar with
    | Some g -> g
    | None ->
        let g = Telemetry.gauge t.tele "san.quarantined" in
        t.g_quar <- Some g;
        g
  in
  Telemetry.set_gauge g n

(* {1 Heap events}

   {!Memory} calls these by block id, once per event, only while this
   instance is armed, after validating the address. The heap keeps the
   fault order: each check returns a verdict for it to act on, and no
   check raises. *)

(* Sentinel filling quarantined blocks; any surviving non-poison word at
   release time indicates the heap's own access checks were bypassed. *)
let poison_word = 0xDEAD_F00D

let on_alloc t ~bid ~pid ~time =
  if bid >= Array.length t.shadows then
    t.shadows <-
      Memcore.grow_array t.shadows ~needed:(bid + 1) ~fill:no_shadow;
  if t.shadows.(bid) == no_shadow then t.shadows.(bid) <- fresh_shadow ();
  let sh = t.shadows.(bid) in
  sh.s_gen <- sh.s_gen + 1;
  sh.s_alloc_pid <- pid;
  sh.s_alloc_time <- time;
  sh.s_free_pid <- -2;
  sh.s_free_time <- 0;
  sh.s_tracked <- false;
  sh.s_retired <- false;
  if t.m.shadow then push_ev sh ev_alloc pid time

(* Audit only in-simulation dereferences of SMR-tracked blocks that were
   allocated in-simulation. Setup-allocated blocks (structure roots,
   prefill) are immortal or handed over with the structure; the
   allocating pid may touch its own block bare until it is published
   and retired (it owns it outright before publication). *)
let on_access t ~bid ~write ~pid ~time =
  let sh = t.shadows.(bid) in
  if
    t.m.protocol && sh.s_tracked && pid >= 0 && sh.s_alloc_pid >= 0
    && not (pid = sh.s_alloc_pid && not sh.s_retired)
    && not (pid_shielded t ~pid)
  then true
  else begin
    if t.m.shadow then
      push_ev sh (if write then ev_write else ev_read) pid time;
    false
  end

type freed =
  | Violation of string list
  | Take_back
  | Hold
  | Evict of int
  | Evict_damaged of int

(* Release the oldest quarantined block, verifying its poison first (a
   damaged sentinel means the heap's own access checks were bypassed —
   an internal invariant violation). *)
let leave_quarantine t =
  let h = t.h in
  let old = Queue.pop t.quarantine in
  let base = h.Memcore.b_base.(old) and size = h.Memcore.b_size.(old) in
  let intact = ref true in
  for i = base to base + size - 1 do
    if h.Memcore.words.(i) <> poison_word then intact := false
  done;
  if not !intact then
    report t
      (Printf.sprintf "==sanitizer== quarantine poison damaged: addr=%d tag=%s"
         base h.Memcore.b_tag.(old));
  Array.fill h.Memcore.words base size 0;
  t.shadows.(old).s_quarantined <- false;
  if !intact then Evict old else Evict_damaged old

let on_free t ~bid ~pid ~time =
  let h = t.h in
  let base = h.Memcore.b_base.(bid) in
  if t.m.protocol && protected_count t base > 0 then
    Violation
      (List.map
         (fun (p, how) -> Printf.sprintf "still protected by pid %d (%s)" p how)
         (protectors t base))
  else begin
    let sh = t.shadows.(bid) in
    sh.s_free_pid <- pid;
    sh.s_free_time <- time;
    sh.s_retired <- false;
    if t.m.shadow then push_ev sh ev_free pid time;
    let q = t.m.quarantine in
    if q = 0 then Take_back
    else begin
      (* Poison and hold the block out of the freelist for the next [q]
         frees; stale pointers keep faulting instead of silently reading
         the reused block. *)
      Array.fill h.Memcore.words base h.Memcore.b_size.(bid) poison_word;
      sh.s_quarantined <- true;
      Queue.push bid t.quarantine;
      let v =
        if Queue.length t.quarantine > q then leave_quarantine t else Hold
      in
      quarantine_level t (Queue.length t.quarantine);
      v
    end
  end

let on_retire t ~bid ~pid ~time =
  let sh = t.shadows.(bid) in
  let dbl = sh.s_retired in
  sh.s_retired <- true;
  if t.m.shadow then push_ev sh ev_retire pid time;
  dbl && t.h.Memcore.b_live.(bid) = 1

let mark_smr t ~bid = t.shadows.(bid).s_tracked <- true

let report_fault t ~what ~addr ~pid ~tag ~extra ~time =
  let bid = Memcore.block_of t.h addr in
  report t
    (String.concat "\n  "
       ((Printf.sprintf "==sanitizer== %s: addr=%d pid=%d tag=%s" what addr pid
           (Option.value tag ~default:"-")
        :: (if t.m.shadow && bid <> 0 then provenance t.shadows.(bid) else []))
       @ extra
       @ [ Printf.sprintf "faulting access by pid %d at t=%d" pid time ]))

let leaks_by_site t =
  if not t.m.leaks then []
  else begin
    let h = t.h in
    let tbl = Hashtbl.create 16 in
    for id = 1 to h.Memcore.n_blocks - 1 do
      if h.Memcore.b_live.(id) = 1 then begin
        let key = (h.Memcore.b_tag.(id), t.shadows.(id).s_alloc_pid) in
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
