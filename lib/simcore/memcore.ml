(* The flat hot core of the simulated machine: every word the
   deref/CAS path touches, in parallel unboxed int arrays.

   {!Memory} owns one of these and layers allocation bookkeeping,
   telemetry and the sanitizer on top; {!Vm} reads it directly so a
   compiled instruction stream can run an entire run-ahead window
   without crossing a module boundary. The helpers both engines share
   on every access live here: the validity predicate [valid], marked
   [@inline], and the coherence cost functions. The build uses dune's
   release profile, so ocamlopt reads this module's [.cmx]: [valid]
   inlines into {!Memory}'s entry points and the VM's dispatch loop
   alike, and the cost functions are direct calls from both (DESIGN.md,
   "Measured build profile"). Block metadata lives in
   parallel arrays indexed by block id — the former per-block record
   cost a pointer chase per validation — and the coherence line/L1
   state rides in the same record so one load reaches everything an
   access needs. *)

(* The instruction cost model, re-exported and documented as
   {!Config.cost}. It lives here so that the instruments, whose modes
   [Config] names, can read the heap without a module cycle. *)
type cost = {
  c_l1 : int;
  c_hit : int;
  c_read_miss : int;
  c_rmw_owned : int;
  c_rmw_transfer : int;
  c_dwcas_extra : int;
  c_alloc : int;
  c_free : int;
}

type t = {
  (* Heap words. *)
  mutable words : int array;
  mutable block_id : int array;  (* 0 = no block; parallel to [words] *)
  mutable top : int;  (* next unallocated address *)
  (* Block metadata, indexed by block id (slot 0 unused). *)
  mutable n_blocks : int;
  mutable b_base : int array;
  mutable b_size : int array;
  mutable b_live : int array;  (* 1 = live, 0 = freed *)
  mutable b_freed_by : int array;
  mutable b_next : int array;  (* intrusive freelist link; 0 = end *)
  mutable b_tag : string array;
  (* Coherence: per-line MESI-ish state, packed
     [(owner + 1) lsl 1 lor exclusive]; zero = shared, no owner. *)
  mutable lines : int array;
  mutable vers : int array;  (* bumped on every write *)
  (* Two-entry per-process "L1", direct-mapped on line parity. *)
  l1_line : int array;
  l1_ver : int array;
  (* Cost scalars, denormalized out of the config record. *)
  c_l1 : int;
  c_hit : int;
  c_read_miss : int;
  c_rmw_owned : int;
  c_rmw_transfer : int;
  c_alloc : int;
  c_free : int;
  (* An instrument (sanitizer or race checker) is armed: compiled
     memory ops flush their elided pays and call {!Memory}'s observer
     after validation. *)
  mutable san_on : bool;
}

let line_words = 8

(* Blocks are allocated on cache-line-PAIR boundaries (128 simulated
   bytes, jemalloc-style small-class slabs). Pair alignment fixes the
   parity of every line of a block relative to its base, which — with
   {!reset_lines} canonicalizing reused lines to cold — makes every
   post-alloc access cost independent of *which* same-size block the
   allocator returned. That address-obliviousness is what lets two
   different allocator policies print byte-identical tables (DESIGN.md
   §4j). *)
let alloc_align = 2 * line_words

let max_pids = 1024

(* The single array-doubling helper behind every growable array here
   and in {!Memory} (words, block ids, metadata, shadows): returns a
   copy of [a] grown to at least [needed], at least doubled. *)
let grow_array a ~needed ~fill =
  let n = Array.length a in
  let b = Array.make (Int.max needed (2 * n)) fill in
  Array.blit a 0 b 0 n;
  b

let create (cost : cost) =
  {
    words = Array.make (1 lsl 12) 0;
    block_id = Array.make (1 lsl 12) 0;
    (* Skip the first line so that address 0 is never valid. *)
    top = line_words;
    n_blocks = 1;
    b_base = Array.make 256 0;
    b_size = Array.make 256 0;
    b_live = Array.make 256 0;
    b_freed_by = Array.make 256 (-1);
    b_next = Array.make 256 0;
    b_tag = Array.make 256 "";
    lines = Array.make 1024 0;
    vers = Array.make 1024 0;
    l1_line = Array.make (2 * max_pids) (-1);
    l1_ver = Array.make (2 * max_pids) (-1);
    c_l1 = cost.c_l1;
    c_hit = cost.c_hit;
    c_read_miss = cost.c_read_miss;
    c_rmw_owned = cost.c_rmw_owned;
    c_rmw_transfer = cost.c_rmw_transfer;
    c_alloc = cost.c_alloc;
    c_free = cost.c_free;
    san_on = false;
  }

let ensure_words t needed =
  if needed > Array.length t.words then begin
    t.words <- grow_array t.words ~needed ~fill:0;
    t.block_id <- grow_array t.block_id ~needed ~fill:0
  end

let ensure_block t id =
  if id >= Array.length t.b_base then begin
    let needed = id + 1 in
    t.b_base <- grow_array t.b_base ~needed ~fill:0;
    t.b_size <- grow_array t.b_size ~needed ~fill:0;
    t.b_live <- grow_array t.b_live ~needed ~fill:0;
    t.b_freed_by <- grow_array t.b_freed_by ~needed ~fill:(-1);
    t.b_next <- grow_array t.b_next ~needed ~fill:0;
    t.b_tag <- grow_array t.b_tag ~needed ~fill:""
  end

(* {1 Coherence} *)

let[@inline] line_of_addr addr = addr / line_words

(* Growth is cold and kept out of line, so the bounds test of
   [ensure_line] inlines into every cost function. *)
let[@inline never] grow_lines t line =
  let needed = line + 1 in
  t.lines <- grow_array t.lines ~needed ~fill:0;
  t.vers <- grow_array t.vers ~needed ~fill:0

let[@inline] ensure_line t line =
  if line >= Array.length t.lines then grow_lines t line

(* Canonicalize a block's lines to cold on (re)allocation: no owner, and
   a version bump so every stale L1 entry — in any process's way — misses
   deterministically. Fresh lines are virgin (never remembered), so after
   this runs the access costs on a reused block match those on a fresh
   one exactly, whichever block the allocator picked. *)
let reset_lines t ~base ~size =
  let last = line_of_addr (base + size - 1) in
  ensure_line t last;
  for line = line_of_addr base to last do
    t.lines.(line) <- 0;
    t.vers.(line) <- t.vers.(line) + 1
  done

let block_of t a = if a > 0 && a < t.top then t.block_id.(a) else 0

(* [a] lies in a live block. [a < top] also bounds the unchecked loads:
   [block_id] is kept at least [top] long, and block ids index the
   metadata arrays. *)
let[@inline] valid t a =
  a > 0 && a < t.top
  &&
  let id = Array.unsafe_get t.block_id a in
  id <> 0 && Array.unsafe_get t.b_live id = 1

let[@inline] pid_slot pid = if pid < 0 || pid >= max_pids then max_pids - 1 else pid

(* Direct-mapped on the line's parity bit: adjacent hot lines (node vs
   announcement slots) land in different ways often enough. *)
let[@inline] way pid line = (2 * pid_slot pid) + (line land 1)

let[@inline] remember t pid line =
  let w = way pid line in
  t.l1_line.(w) <- line;
  t.l1_ver.(w) <- t.vers.(line)

let cost_read t ~pid ~addr =
  let line = line_of_addr addr in
  ensure_line t line;
  let s = t.lines.(line) in
  if s land 1 = 1 && (s lsr 1) - 1 <> pid then begin
    (* Exclusively held elsewhere: demote to shared. *)
    t.lines.(line) <- 0;
    remember t pid line;
    t.c_read_miss
  end
  else begin
    let w = way pid line in
    if t.l1_line.(w) = line && t.l1_ver.(w) = t.vers.(line) then t.c_l1
    else begin
      t.l1_line.(w) <- line;
      t.l1_ver.(w) <- t.vers.(line);
      t.c_hit
    end
  end

let cost_write t ~pid ~addr =
  let line = line_of_addr addr in
  ensure_line t line;
  let s = t.lines.(line) in
  let owned = s land 1 = 1 && (s lsr 1) - 1 = pid in
  t.lines.(line) <- ((pid + 1) lsl 1) lor 1;
  t.vers.(line) <- t.vers.(line) + 1;
  remember t pid line;
  if owned then t.c_rmw_owned else t.c_rmw_transfer
