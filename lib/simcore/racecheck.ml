(* FastTrack-style happens-before race and publication analyzer for
   the simulated heap. Pure bookkeeping over simulation pids and
   virtual time — no ticks, no simulated allocations — so arming it
   never perturbs schedules, and verdicts are deterministic and
   identical across fastpath on/off, VM on/off and [--jobs] values.

   Representation (FlFr, PLDI 2009, adapted to the simulator):

   - per pid slot, a vector clock [C_p] (slot 0 is the outside-sim
     orchestrator, pid -1; in-sim pid p maps to slot p+1). Clocks
     advance only at release operations, so same-epoch accesses
     coalesce.
   - per heap word, adaptive last-access state: a packed last-write
     epoch, a packed last-read epoch that escalates to a full read
     vector clock only after genuinely concurrent reads, and a
     sync/data classification bit.
   - sync words (atomic locations) carry a release clock [L_x] in a
     per-word array beside the epochs; every access to them is a
     release-acquire edge and is never itself reported. An RMW's
     [L_x := C_s] copies into the word's existing clock in place, and a
     reallocation zeroes it rather than dropping it, so in steady state
     the access path neither hashes nor allocates. Each sync word also
     keeps an acquired set: the slots whose clock already covers [L_x]
     since [L_x] last changed, whose acquires are skipped and whose
     store-releases copy rather than join (see {!acquire}). A word
     becomes sync on its first RMW (CAS/FAA/FAS) or by explicit
     annotation ({!Memory.mark_race_sync}) for single-writer protocols
     whose stores are plain writes in the model (HP announcements, EBR
     reservations, swcopy destinations).
   - custody: free/retire release the freeing process's clock into a
     per-block hand-off vector; a reallocation acquires it (zeroing it
     in place, as [L_x] is zeroed) and stamps every word of the block
     with the allocating process's fresh epoch. Benign reuse through
     the allocator (either policy) is thereby ordered, while a write
     racing the custody transfer — or a reader reaching a block before
     the publishing release — is not, and reports.

   Run boundaries: {!note_run_start} gives the calling domain a fresh
   run token; the first in-sim access of a new run performs a barrier
   join (all clocks learn all history, then each advances), modelling
   the fork/join edges of {!Sim.run} without the simulator knowing
   about any particular heap. Orchestrator accesses between runs lazily
   join every in-sim clock first. The token is held domain-locally, so
   parallel [--jobs] sweeps cannot leak barriers into each other's
   cells. The heap's accesses ({!access}) come with their run's envs
   array, which all envs of one {!Sim.run} share and no other run has,
   so the token is read only when that array changes. *)

(* {1 Mode} *)

type mode = { hb : bool; custody : bool }

let off = { hb = false; custody = false }

let default_on = { hb = true; custody = true }

let is_off m = m = off

let mode_to_string m =
  if is_off m then "off"
  else
    String.concat ","
      (List.concat
         [
           (if m.hb then [ "hb" ] else []);
           (if m.custody then [ "custody" ] else []);
         ])

let mode_of_string s =
  Modeparse.parse ~what:"race" ~expected:"hb|custody|all|default|off" ~off
    ~token:(fun m tok ->
      match tok with
      | "hb" -> Some (Ok { m with hb = true })
      | "custody" -> Some (Ok { m with custody = true })
      | "all" | "default" | "on" -> Some (Ok default_on)
      | _ -> None)
    s

(* {1 Pid slots, epochs, packed access info}

   Epochs pack (slot, clock) as [slot lsl 48 lor clock]; 0 is "none"
   (clocks start at 1) and -1 marks an escalated read state. Access
   info for reports packs (pid + 2, virtual time) the same way the
   sanitizer's provenance ring does. *)

let max_pids = Memcore.max_pids

let n_slots = max_pids + 2

let[@inline] slot_of pid =
  if pid < 0 then 0 else if pid >= max_pids then max_pids else pid + 1

let time_mask = 0xFFFF_FFFF_FFFF

let epoch slot clock = (slot lsl 48) lor (clock land time_mask)

let epoch_slot e = e lsr 48

let epoch_clock e = e land time_mask

let pack_info pid time =
  let p = pid + 2 in
  let pid' = if p < 0 then 0 else if p > 4095 then 4095 else p in
  (pid' lsl 48) lor (time land time_mask)

let info_pid i = ((i lsr 48) land 0xFFF) - 2

let info_time i = i land time_mask

type side = { s_pid : int; s_time : int; s_what : string }

type race = { r_addr : int; r_cur : side; r_prev : side }

(* {1 Vector clocks}

   Variable-length int arrays; a missing component is 0. [joined a b]
   mutates [a] in place when it is long enough, otherwise returns a
   fresh widened array — callers always reassign.

   Clocks are copied and zeroed with typed int loops, never with
   [Array.blit]/[Array.fill]: those are generic over the element type
   and go through the major heap's write barrier element by element,
   about twice the cost of a plain loop on a 49-entry clock. The hot
   loops index unchecked: each runs below the length of every array it
   touches, checked once before the loop. *)

let vc_get v i = if i < Array.length v then v.(i) else 0

let unborn v = Array.length v = 0

let zero_clock (v : int array) =
  for i = 0 to Array.length v - 1 do
    Array.unsafe_set v i 0
  done

(* [vmax x y]: the larger of two clock components without a
   data-dependent branch (a compare-and-store mispredicts on about a
   third of a join's entries). Exact for components in [0, 2^48), which
   every clock's are (an epoch keeps 48 bits of one): [x - y] cannot
   overflow, and [d asr 62] is 0 when [x >= y] and -1 otherwise. *)
let vmax x y =
  let d = x - y in
  y + (d land lnot (d asr 62))

let joined (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  if lb <= la then begin
    for i = 0 to lb - 1 do
      Array.unsafe_set a i (vmax (Array.unsafe_get b i) (Array.unsafe_get a i))
    done;
    a
  end
  else begin
    let c = Array.make lb 0 in
    for i = 0 to la - 1 do
      Array.unsafe_set c i (vmax (Array.unsafe_get b i) (Array.unsafe_get a i))
    done;
    for i = la to lb - 1 do
      Array.unsafe_set c i (Array.unsafe_get b i)
    done;
    c
  end

(* [assigned dst src]: a clock equal to [src], written into [dst] in
   place when it is long enough (zeroing its tail), otherwise a fresh
   copy — callers always reassign. *)
let assigned (dst : int array) (src : int array) =
  let ld = Array.length dst and ls = Array.length src in
  if ls <= ld then begin
    for i = 0 to ls - 1 do
      Array.unsafe_set dst i (Array.unsafe_get src i)
    done;
    for i = ls to ld - 1 do
      Array.unsafe_set dst i 0
    done;
    dst
  end
  else Array.copy src

let epoch_leq e v = epoch_clock e <= vc_get v (epoch_slot e)

let vc_leq a b =
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if a.(i) > vc_get b i then ok := false
  done;
  !ok

(* {1 Run token}

   Each {!Sim.run} takes a token from one process-wide counter and
   holds it domain-locally, so a token names one run in one domain: a
   run starting in another worker of a parallel sweep never changes
   this domain's token (a barrier there would mask races
   nondeterministically with the job count), and one comparison with
   the heap's last token replaces a (domain, serial) pair. A domain
   that has not started a run yet holds a token of its own too. *)

(* lint: allow-atomic — run-token source, no simulated state *)
let next_token = Atomic.make 0 (* lint: allow-atomic *)

let fresh_token () = Atomic.fetch_and_add next_token 1 (* lint: allow-atomic *)

(* lint: allow-atomic *)
let run_token : int Domain.DLS.key = Domain.DLS.new_key fresh_token (* lint: allow-atomic *)

(* lint: allow-atomic *)
let note_run_start () = Domain.DLS.set run_token (fresh_token ()) (* lint: allow-atomic *)

let domain_token () = Domain.DLS.get run_token (* lint: allow-atomic *)

(* {1 State} *)

(* Per-word flag bits. *)
let f_sync = 1

let f_reported = 2

let f_wide = 4 (* sync word: the acquired set may have members >= acq_bits *)

type t = {
  m : mode;
  tele : Telemetry.t;
  h : Memcore.t; (* the heap, for report provenance *)
  (* clocks *)
  vcs : int array array; (* slot -> clock vector; [||] = unborn *)
  mutable max_slot : int;
  mutable seen_token : int; (* run token of the last barrier; -1 = none *)
  mutable seen_run : Proc.env array option;
      (* envs array of the run of the last in-sim {!access} *)
  mutable sim_dirty : bool;
  (* per-word shadow state, parallel to [Memcore.words] *)
  mutable wep : int array; (* last-write epoch; 0 = none *)
  mutable winfo : int array; (* packed (pid, time) of last write *)
  mutable rep : int array;
      (* data word: last-read epoch, 0 = none, -1 = escalated;
         sync word: acquired-set bits for slots < acq_bits *)
  mutable rinfo : int array; (* packed (pid, time) of last read *)
  mutable flags : Bytes.t; (* f_sync / f_reported / f_wide bits *)
  mutable lvcs : int array array; (* sync-word release clocks L_x; [||] = none *)
  mutable rvcs : int array array;
      (* data word: read clock, all-zero unless rep = -1;
         sync word: acquired-set bits for slots >= acq_bits, all-zero
         unless f_wide *)
  (* custody *)
  mutable custody : int array array;
      (* block id -> hand-off clock; [||] = never released, all-zero =
         none since the block's last allocation *)
  mutable b_alloc : int array; (* block id -> packed alloc (pid, time) *)
  (* reports *)
  mutable rev_reports : string list; (* newest first, capped *)
  mutable n_reports : int;
}

let create m tele h =
  {
    m;
    tele;
    h;
    vcs = Array.make n_slots [||];
    max_slot = 0;
    seen_token = -1;
    seen_run = None;
    sim_dirty = false;
    wep = Array.make 256 0;
    winfo = Array.make 256 0;
    rep = Array.make 256 0;
    rinfo = Array.make 256 0;
    flags = Bytes.make 256 '\000';
    lvcs = Array.make 256 [||];
    rvcs = Array.make 256 [||];
    custody = Array.make 256 [||];
    b_alloc = Array.make 256 0;
    rev_reports = [];
    n_reports = 0;
  }

let grow_int_array arr ~needed = Memcore.grow_array arr ~needed ~fill:0

let ensure_words t n =
  if n > Array.length t.wep then begin
    t.wep <- grow_int_array t.wep ~needed:n;
    t.winfo <- grow_int_array t.winfo ~needed:n;
    t.rep <- grow_int_array t.rep ~needed:n;
    t.rinfo <- grow_int_array t.rinfo ~needed:n;
    t.lvcs <- Memcore.grow_array t.lvcs ~needed:n ~fill:[||];
    t.rvcs <- Memcore.grow_array t.rvcs ~needed:n ~fill:[||];
    let b = Bytes.make (Array.length t.wep) '\000' in
    Bytes.blit t.flags 0 b 0 (Bytes.length t.flags);
    t.flags <- b
  end

let ensure_blocks t n =
  if n > Array.length t.b_alloc then begin
    t.b_alloc <- grow_int_array t.b_alloc ~needed:n;
    t.custody <- Memcore.grow_array t.custody ~needed:n ~fill:[||]
  end

let[@inline] flag_test t a f = Char.code (Bytes.get t.flags a) land f <> 0

let flag_set t a f =
  Bytes.set t.flags a (Char.chr (Char.code (Bytes.get t.flags a) lor f))

let flag_clear t a f =
  Bytes.set t.flags a (Char.chr (Char.code (Bytes.get t.flags a) land lnot f))

let flag_clear_all t a = Bytes.set t.flags a '\000'

(* {1 Clock plumbing} *)

(* Birth a slot's clock: fork from the orchestrator's clock (setup
   writes happen-before every process), own component strictly beyond
   anything any other clock holds for this slot. *)
let birth t s =
  if s > t.max_slot then t.max_slot <- s;
  let root = t.vcs.(0) in
  let len = Int.max (s + 1) (Array.length root) in
  let v = Array.make len 0 in
  Array.blit root 0 v 0 (Array.length root);
  v.(s) <- v.(s) + 1;
  t.vcs.(s) <- v;
  v

let[@inline] cvec t s =
  let v = t.vcs.(s) in
  if unborn v then birth t s else v

let[@inline] bump t s =
  let v = t.vcs.(s) in
  v.(s) <- v.(s) + 1

let[@inline] cur_epoch t s = epoch s t.vcs.(s).(s)

(* Run-start barrier: everything before the run happens-before every
   process of the run. Join all born clocks, then advance each so
   post-barrier accesses are not retroactively covered. *)
let barrier t token =
  t.seen_token <- token;
  let j = ref [||] in
  for s = 0 to t.max_slot do
    if not (unborn t.vcs.(s)) then j := joined !j t.vcs.(s)
  done;
  if not (unborn !j) then
    for s = 0 to t.max_slot do
      if not (unborn t.vcs.(s)) then begin
        let c = Array.copy !j in
        c.(s) <- c.(s) + 1;
        t.vcs.(s) <- c
      end
    done

(* Orchestrator access after in-sim activity: join every in-sim clock
   (the runs have completed or will be barriered; teardown reads and
   oracle frees are ordered after them). *)
let root_join t =
  t.sim_dirty <- false;
  let r = ref (cvec t 0) in
  for s = 1 to t.max_slot do
    if not (unborn t.vcs.(s)) then r := joined !r t.vcs.(s)
  done;
  let r = !r in
  r.(0) <- r.(0) + 1;
  t.vcs.(0) <- r

(* The run stamp is one int compare against the domain's token: an
   in-sim access always follows its own run's {!note_run_start} in the
   same domain, so a changed token is exactly a new run. *)
let check_token t =
  let token = domain_token () in
  if token <> t.seen_token then barrier t token

(* The slot of [pid], after the run-boundary work its access implies:
   a barrier for the first in-sim access of a new run, the root join
   for the first orchestrator access after a run. *)
let prologue t ~pid =
  if pid >= 0 then begin
    check_token t;
    t.sim_dirty <- true
  end
  else if t.sim_dirty then root_join t;
  slot_of pid

let new_run t run =
  t.seen_run <- Some run;
  check_token t

(* The same for an access by a process of the run whose envs array is
   [run]. A {!Sim.run} calls {!note_run_start} before it builds its
   envs, and the array last seen stays reachable from [seen_run], so
   no later run can own an array physically equal to it: while the
   array is the one last seen, the token has not moved, and only a
   changed array needs the domain-local read. *)
let[@inline] run_prologue t run ~pid =
  if pid >= 0 then begin
    (match t.seen_run with
    | Some r when r == run -> ()
    | Some _ | None -> new_run t run);
    t.sim_dirty <- true
  end
  else if t.sim_dirty then root_join t;
  slot_of pid

(* {1 Reports} *)

(* Besides the per-instance list, reports accumulate in one
   process-global ring (mutex-guarded, like the telemetry registry
   list) so the CLI can print a per-experiment report block even
   though each benchmark cell owns — and drops — its own heap. Under a
   parallel sweep the global order is completion order; the CI diff
   strips the whole block, and a sequential run is deterministic. *)
let global_mutex = Mutex.create ()

let global_cap = 256

let global_reports : string list ref = ref []

let global_count = ref 0

let mark () =
  Mutex.lock global_mutex;
  global_reports := [];
  global_count := 0;
  Mutex.unlock global_mutex

let recent_reports () =
  Mutex.lock global_mutex;
  let r = (List.rev !global_reports, !global_count) in
  Mutex.unlock global_mutex;
  r

let max_reports = 128

let report t text =
  Mutex.lock global_mutex;
  incr global_count;
  if !global_count <= global_cap then
    global_reports := text :: !global_reports;
  Mutex.unlock global_mutex;
  Telemetry.incr (Telemetry.counter t.tele "race.reports");
  t.n_reports <- t.n_reports + 1;
  if t.n_reports <= max_reports then t.rev_reports <- text :: t.rev_reports

let reports t = List.rev t.rev_reports

let report_count t = t.n_reports

let side_of_info i what =
  { s_pid = info_pid i; s_time = info_time i; s_what = what }

(* One report per word: after a word races once, further reports on it
   are suppressed (the state keeps updating, so other words still
   report independently). The sides are built only for a report, so a
   suppressed conflict allocates nothing. *)
let found t addr ~pid ~time what prev_info prev_what =
  if t.m.hb && not (flag_test t addr f_reported) then begin
    flag_set t addr f_reported;
    Some
      {
        r_addr = addr;
        r_cur = { s_pid = pid; s_time = time; s_what = what };
        r_prev = side_of_info prev_info prev_what;
      }
  end
  else None

(* {1 Access hooks} *)

(* {2 Acquired sets}

   A sync word's acquired set holds the slots whose clock already
   covers [L_x] since [L_x] last changed. A member's acquire would
   change nothing, so it is skipped, and a member's store-release
   [L_x := L_x ⊔ C_s] is the copy [L_x := C_s]. This is exact, not a
   heuristic, because a clock never decreases: [C_s] is written only by
   [bump], [joined], [barrier], [root_join] and the custody acquire in
   {!on_alloc}, each of which leaves every component at least where it
   was. Once [C_s] covers [L_x] it keeps covering it until [L_x] itself
   changes, and every change to [L_x] rewrites the set:
   - an RMW, or a member's store-release, leaves [L_x] equal to the
     releaser's clock before its bump: the set becomes {releaser};
   - any other store-release joins, so [L_x] may hold history the
     releaser lacks: the set empties;
   - zeroing at reallocation empties it.

   Slots below [acq_bits] are bits of the word's [rep] entry (unused as
   a read epoch on a sync word); higher slots spill into its [rvcs]
   entry (unused as a read clock), which [f_wide] marks as possibly
   non-zero, so emptying the set is O(1) unless a wide slot joined. *)

let acq_bits = 62 (* bits 0..61: [rep] stays non-negative, never -1 *)

(* The narrow cases inline into the access path; the wide ones are
   calls. *)
let acquired_wide t addr s =
  let k = (s / acq_bits) - 1 and w = t.rvcs.(addr) in
  k < Array.length w && w.(k) land (1 lsl (s mod acq_bits)) <> 0

let[@inline] acquired t addr s =
  if s < acq_bits then t.rep.(addr) land (1 lsl s) <> 0
  else acquired_wide t addr s

let add_acquired_wide t addr s =
  let k = (s / acq_bits) - 1 in
  let w = t.rvcs.(addr) in
  let w =
    if k < Array.length w then w
    else begin
      let w = grow_int_array w ~needed:(k + 1) in
      t.rvcs.(addr) <- w;
      w
    end
  in
  w.(k) <- w.(k) lor (1 lsl (s mod acq_bits));
  flag_set t addr f_wide

let[@inline] add_acquired t addr s =
  if s < acq_bits then t.rep.(addr) <- t.rep.(addr) lor (1 lsl s)
  else add_acquired_wide t addr s

let clear_wide t addr =
  zero_clock t.rvcs.(addr);
  flag_clear t addr f_wide

let[@inline] clear_acquired t addr =
  t.rep.(addr) <- 0;
  if flag_test t addr f_wide then clear_wide t addr

(* A word's release clock is never dropped, only zeroed (see
   {!on_alloc}); an all-zero clock acquires nothing and releases into
   exactly [C_s], so it stands for "no release yet".

   [joined] and [assigned] usually return the array they were given;
   storing it back anyway would run the write barrier on every edge, so
   the clock arrays are written only when a fresh array came back. *)
let acquire t s addr =
  if not (acquired t addr s) then begin
    let l = t.lvcs.(addr) in
    if not (unborn l) then begin
      let c = t.vcs.(s) in
      let c' = joined c l in
      if c' != c then t.vcs.(s) <- c'
    end;
    add_acquired t addr s
  end

(* [L_x := C_s], for a releaser whose clock covers [L_x]. *)
let release_copy t s addr =
  let l = t.lvcs.(addr) in
  let l' = assigned l t.vcs.(s) in
  if l' != l then t.lvcs.(addr) <- l';
  clear_acquired t addr;
  add_acquired t addr s;
  bump t s

let release t s addr =
  if acquired t addr s then release_copy t s addr
  else begin
    let l = t.lvcs.(addr) in
    let l' = joined l t.vcs.(s) in
    if l' != l then t.lvcs.(addr) <- l';
    clear_acquired t addr;
    bump t s
  end

let read_at t s ~addr ~pid ~time =
  let c = cvec t s in
  if flag_test t addr f_sync then begin
    acquire t s addr;
    None
  end
  else begin
    let race =
      let w = t.wep.(addr) in
      if w <> 0 && not (epoch_leq w c) then
        found t addr ~pid ~time "read" t.winfo.(addr) "write"
      else None
    in
    (match t.rep.(addr) with
    | 0 -> t.rep.(addr) <- cur_epoch t s
    | -1 ->
        let rv = t.rvcs.(addr) in
        if s < Array.length rv then begin
          if c.(s) > rv.(s) then rv.(s) <- c.(s)
        end
        else begin
          let rv' = grow_int_array rv ~needed:(s + 1) in
          rv'.(s) <- c.(s);
          t.rvcs.(addr) <- rv'
        end
    | re when epoch_slot re = s || epoch_leq re c ->
        t.rep.(addr) <- cur_epoch t s
    | re ->
        (* Two genuinely concurrent readers: escalate to a read clock,
           reusing the word's zeroed one when it is long enough. *)
        let needed = Int.max (epoch_slot re + 1) (s + 1) in
        let rv = t.rvcs.(addr) in
        let rv = if needed <= Array.length rv then rv else grow_int_array rv ~needed in
        rv.(epoch_slot re) <- epoch_clock re;
        if c.(s) > rv.(s) then rv.(s) <- c.(s);
        t.rvcs.(addr) <- rv;
        t.rep.(addr) <- -1);
    t.rinfo.(addr) <- pack_info pid time;
    race
  end

(* A read clock is non-zero exactly while [rep = -1]; leaving it
   zeroed rather than dropped lets the next escalation reuse it. *)
let clear_reads t addr =
  if t.rep.(addr) = -1 then zero_clock t.rvcs.(addr);
  t.rep.(addr) <- 0

let plain_write_race t ~addr ~pid ~time c =
  let w = t.wep.(addr) in
  if w <> 0 && not (epoch_leq w c) then
    found t addr ~pid ~time "write" t.winfo.(addr) "write"
  else
    match t.rep.(addr) with
    | 0 -> None
    | -1 ->
        if vc_leq t.rvcs.(addr) c then None
        else found t addr ~pid ~time "write" t.rinfo.(addr) "read"
    | re ->
        if epoch_leq re c then None
        else found t addr ~pid ~time "write" t.rinfo.(addr) "read"

let write_at t s ~addr ~pid ~time =
  let c = cvec t s in
  if flag_test t addr f_sync then begin
    (* A plain store to a sync word is a store-release (the model's
       spelling of single-writer atomic publication: swcopy
       destinations, HP announcements, EBR reservations). *)
    release t s addr;
    None
  end
  else begin
    let race = plain_write_race t ~addr ~pid ~time c in
    t.wep.(addr) <- cur_epoch t s;
    t.winfo.(addr) <- pack_info pid time;
    clear_reads t addr;
    race
  end

let rmw_at t s ~addr ~pid ~time =
  let c = cvec t s in
  if flag_test t addr f_sync then begin
    (* After the acquire C_s covers L_x, so L_x := C_s is a copy in
       place. *)
    acquire t s addr;
    release_copy t s addr;
    None
  end
  else begin
    (* First RMW on this word: it becomes an atomic location. Check the
       last plain write first — an unpublished initialization racing
       the first CAS is the classic publication-before-initialization —
       then forgive prior plain reads (they are this model's spelling
       of atomic loads that predate the first RMW). *)
    let race =
      let w = t.wep.(addr) in
      if w <> 0 && not (epoch_leq w c) then
        found t addr ~pid ~time "atomic rmw" t.winfo.(addr) "write"
      else None
    in
    flag_set t addr f_sync;
    t.wep.(addr) <- 0;
    clear_reads t addr;
    release_copy t s addr;
    race
  end

(* The access hooks for a caller that holds no run: the domain's token
   decides the barrier, and the shadow arrays are grown to [addr]. *)
let on_read t ~addr ~pid ~time =
  ensure_words t (addr + 1);
  read_at t (prologue t ~pid) ~addr ~pid ~time

let on_write t ~addr ~pid ~time =
  ensure_words t (addr + 1);
  write_at t (prologue t ~pid) ~addr ~pid ~time

let on_rmw t ~addr ~pid ~time =
  ensure_words t (addr + 1);
  rmw_at t (prologue t ~pid) ~addr ~pid ~time

type access = Read | Write | Rmw

(* The heap's observer: one direct call per access kind, and no
   growth check, since every address the heap validates lies in a
   block whose words {!on_alloc} covered. *)
let access t run kind ~addr ~pid ~time =
  let s = run_prologue t run ~pid in
  match kind with
  | Read -> read_at t s ~addr ~pid ~time
  | Write -> write_at t s ~addr ~pid ~time
  | Rmw -> rmw_at t s ~addr ~pid ~time

let mark_sync t ~addr =
  ensure_words t (addr + 1);
  if not (flag_test t addr f_sync) then begin
    flag_set t addr f_sync;
    t.wep.(addr) <- 0;
    clear_reads t addr
  end

(* {1 Custody} *)

let release_block t ~bid ~pid =
  ensure_blocks t (bid + 1);
  let s = prologue t ~pid in
  if t.m.custody then begin
    let cv = t.custody.(bid) in
    let cv' = joined cv (cvec t s) in
    if cv' != cv then t.custody.(bid) <- cv';
    bump t s
  end

let on_free t ~bid ~pid = release_block t ~bid ~pid

let on_retire t ~bid ~pid = release_block t ~bid ~pid

let on_alloc t ~bid ~base ~size ~pid ~time =
  ensure_words t (base + size);
  ensure_blocks t (bid + 1);
  let s = prologue t ~pid in
  (if t.m.custody then
     let cv = t.custody.(bid) in
     if not (unborn cv) then begin
       (* Acquire the hand-off: the freeing (or retiring) process's
          history happens-before this lifetime. *)
       let c = cvec t s in
       let c' = joined c cv in
       if c' != c then t.vcs.(s) <- c';
       (* Zeroed, not dropped: the lifetime's first free or retire
          then joins into it in place. *)
       zero_clock cv
     end);
  let c = cvec t s in
  let me = epoch s c.(s) in
  let info = pack_info pid time in
  for a = base to base + size - 1 do
    t.wep.(a) <- me;
    t.winfo.(a) <- info;
    if flag_test t a f_sync then clear_acquired t a else clear_reads t a;
    flag_clear_all t a;
    zero_clock t.lvcs.(a)
  done;
  t.b_alloc.(bid) <- info

(* {1 Report text}

   A conflict decorated with its block's tag and allocation site, in the
   ASan style of the sanitizer's reports. *)

let report_race t r =
  let bid = Memcore.block_of t.h r.r_addr in
  let tag = if bid <> 0 then t.h.Memcore.b_tag.(bid) else "-" in
  let side s =
    Printf.sprintf "%s by pid %d at t=%d" s.s_what s.s_pid s.s_time
  in
  let site =
    if bid <> 0 && bid < Array.length t.b_alloc && t.b_alloc.(bid) <> 0 then
      let i = t.b_alloc.(bid) in
      Printf.sprintf "\n  block allocated by pid %d at t=%d (tag %s)"
        (info_pid i) (info_time i) tag
    else ""
  in
  report t
    (Printf.sprintf
       "==racecheck== data race: addr=%d tag=%s\n  %s\n  conflicts with earlier %s%s"
       r.r_addr tag (side r.r_cur) (side r.r_prev) site)
