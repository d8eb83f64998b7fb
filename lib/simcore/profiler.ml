(* Virtual-time attribution: every simulated tick is charged to the
   phase stack its process was in when it paid.

   The mechanism is split across two modules. {!Proc} holds the
   per-process state ([Proc.prof]: a counts array, the depth and the
   two hot slots) and the slot trie's type, so that [Proc.charge] —
   the one floor/penalty charge every tick flows through — can charge
   with one or two array stores. This module owns everything else: the
   phase taxonomy, growing the trie, enter/exit, the conservation check
   and the reports.

   Representation. Each distinct phase stack is a dense slot index,
   shared by all processes of the profiler, and the slots form a trie
   ([Proc.trie]): a slot has a child slot per phase code and a parent
   slot, so entering a phase is one array load (a slot is created the
   first time its stack is entered), leaving one is another, and
   nothing on either path hashes. Each process counts ticks per slot
   in its own array (so the service layer can take per-process deltas
   around a request). Entering a phase also looks up the new stack's
   coherence-penalty child, so the split charge stays
   branch-plus-store. For the reports each slot keeps its stack packed
   into one int, 4 bits per level holding [code + 1] (so 0 reads as
   "empty level"), at most [max_depth] levels; deeper pushes only bump
   an overflow counter and keep charging the deepest stack. Slots are
   numbered in the order the stacks are first entered, each stack
   before its coherence child.

   Concurrency: one profiler belongs to one benchmark cell, which runs
   on one domain (the {!Domain_pool} cell-isolation argument), so the
   trie needs no lock. The global registry list is shared
   across domains and mutex-protected, like {!Telemetry}'s.

   Conservation. Clocks advance only through pays ([Sim]'s fast_pay /
   bulk_pay / account_pay are fed exclusively by [Proc.pay_split], the
   VM's elide/yield sites and span reads, which all charge exactly once
   through [Proc.charge]), so
   the per-phase sums equal the summed per-core clocks that
   {!add_expected} accumulates — exactly, or the accounting is buggy. *)

type phase =
  | Traverse
  | Cas_retry
  | Alloc
  | Free
  | Smr_scan
  | Drc_defer
  | Coherence
  | Queueing
  | Idle
  | Alloc_local
  | Alloc_steal

let code = function
  | Traverse -> 0
  | Cas_retry -> 1
  | Alloc -> 2
  | Free -> 3
  | Smr_scan -> 4
  | Drc_defer -> 5
  | Coherence -> 6
  | Queueing -> 7
  | Idle -> 8
  | Alloc_local -> 9
  | Alloc_steal -> 10

let phases =
  [
    Traverse; Cas_retry; Alloc; Alloc_local; Alloc_steal; Free; Smr_scan;
    Drc_defer; Coherence; Queueing; Idle;
  ]

let phase_name = function
  | Traverse -> "traverse"
  | Cas_retry -> "cas-retry"
  | Alloc -> "alloc"
  | Free -> "free"
  | Smr_scan -> "smr-scan"
  | Drc_defer -> "drc-defer"
  | Coherence -> "coherence-penalty"
  | Queueing -> "queueing"
  | Idle -> "idle"
  | Alloc_local -> "alloc-local"
  | Alloc_steal -> "alloc-steal"

let phase_of_code = function
  | 0 -> Traverse
  | 1 -> Cas_retry
  | 2 -> Alloc
  | 3 -> Free
  | 4 -> Smr_scan
  | 5 -> Drc_defer
  | 6 -> Coherence
  | 7 -> Queueing
  | 8 -> Idle
  | 9 -> Alloc_local
  | 10 -> Alloc_steal
  | c -> invalid_arg ("Profiler.phase_of_code: " ^ string_of_int c)

(* 12 levels x 4 bits = 48 bits, plus one level for the coherence child
   = 52: comfortably inside a 63-bit int. *)
let max_depth = 12

let n_codes = 11 (* phase codes 0..10: the trie's fan-out *)

type t = {
  label : string;
  trie : Proc.trie;
  pstates : (int, Proc.prof) Hashtbl.t;  (* pid -> its counting state *)
  mutable expected : int;  (* accumulated sum-of-clocks of each Sim.run *)
}

(* {1 Registry} *)

let registry_mutex = Mutex.create ()

let registry : t list ref = ref []

let mark () =
  Mutex.lock registry_mutex;
  registry := [];
  Mutex.unlock registry_mutex

let recent () =
  Mutex.lock registry_mutex;
  let r = List.rev !registry in
  Mutex.unlock registry_mutex;
  r

(* {1 Construction and the slot trie} *)

let grown a n = Memcore.grow_array a ~needed:n ~fill:0

(* A new slot for [slot]'s stack with [c] pushed at [level] (the
   parent's depth). *)
let add_child (tr : Proc.trie) slot c level =
  let s = tr.Proc.n_slots in
  if s >= Array.length tr.Proc.packed_of then begin
    tr.Proc.packed_of <- grown tr.Proc.packed_of (s + 1);
    tr.Proc.parent <- grown tr.Proc.parent (s + 1);
    tr.Proc.child <- grown tr.Proc.child ((s + 1) * n_codes)
  end;
  tr.Proc.packed_of.(s) <-
    tr.Proc.packed_of.(slot) lor ((c + 1) lsl (4 * level));
  tr.Proc.parent.(s) <- slot;
  tr.Proc.child.((slot * n_codes) + c) <- s;
  tr.Proc.n_slots <- s + 1;
  s

(* The slot of [slot]'s stack with phase code [c] pushed at [level]. *)
let[@inline] child (tr : Proc.trie) slot c level =
  let s = Array.unsafe_get tr.Proc.child ((slot * n_codes) + c) in
  if s <> 0 then s else add_child tr slot c level

let create ?(label = "") () =
  let t =
    {
      label;
      (* slot 0, the root, is the empty stack *)
      trie =
        {
          Proc.child = Array.make (16 * n_codes) 0;
          parent = Array.make 16 0;
          packed_of = Array.make 16 0;
          n_slots = 1;
        };
      pstates = Hashtbl.create 64;
      expected = 0;
    }
  in
  Mutex.lock registry_mutex;
  registry := t :: !registry;
  Mutex.unlock registry_mutex;
  t

let coh_code = code Coherence

(* Move to slot [cur] at depth [p.pdepth]: look up its coherence child
   and grow this process's counts array to cover both. *)
let refresh (p : Proc.prof) cur =
  let coh = child p.Proc.ptrie cur coh_code p.Proc.pdepth in
  let need = 1 + Int.max cur coh in
  if need > Array.length p.Proc.pcounts then begin
    let a = Array.make (Int.max need (2 * Array.length p.Proc.pcounts)) 0 in
    Array.blit p.Proc.pcounts 0 a 0 (Array.length p.Proc.pcounts);
    p.Proc.pcounts <- a
  end;
  p.Proc.pcur <- cur;
  p.Proc.pcoh <- coh

let pstate t ~pid =
  match Hashtbl.find_opt t.pstates pid with
  | Some p -> p
  | None ->
      let p =
        {
          Proc.pcounts = Array.make 8 0;
          pcur = 0;
          pcoh = 0;
          pdepth = 0;
          pover = 0;
          ptrie = t.trie;
        }
      in
      refresh p 0;
      Hashtbl.add t.pstates pid p;
      p

let add_expected t n = t.expected <- t.expected + n

let expected t = t.expected

(* {1 Phase stack (hot: called from scheme annotation sites)} *)

let push_prof (p : Proc.prof) ph =
  let d = p.Proc.pdepth in
  if d >= max_depth then p.Proc.pover <- p.Proc.pover + 1
  else begin
    let cur = child p.Proc.ptrie p.Proc.pcur (code ph) d in
    p.Proc.pdepth <- d + 1;
    refresh p cur
  end

let pop_prof (p : Proc.prof) =
  if p.Proc.pover > 0 then p.Proc.pover <- p.Proc.pover - 1
  else if p.Proc.pdepth > 0 then begin
    p.Proc.pdepth <- p.Proc.pdepth - 1;
    refresh p p.Proc.ptrie.Proc.parent.(p.Proc.pcur)
  end

let active () =
  match Proc.get_env () with
  | Some { Proc.prof = Some _; _ } -> true
  | Some _ | None -> false

let enter ph =
  match Proc.get_env () with
  | Some { Proc.prof = Some p; _ } -> push_prof p ph
  | Some _ | None -> ()

let exit () =
  match Proc.get_env () with
  | Some { Proc.prof = Some p; _ } -> pop_prof p
  | Some _ | None -> ()

let enter_env (e : Proc.env) ph =
  match e.Proc.prof with Some p -> push_prof p ph | None -> ()

let exit_env (e : Proc.env) =
  match e.Proc.prof with Some p -> pop_prof p | None -> ()

let with_phase ph f =
  match Proc.get_env () with
  | Some { Proc.prof = Some p; _ } -> (
      push_prof p ph;
      match f () with
      | v ->
          pop_prof p;
          v
      | exception e ->
          pop_prof p;
          raise e)
  | Some _ | None -> f ()

(* {1 Reading} *)

let total t =
  Hashtbl.fold
    (fun _ p acc ->
      let s = ref 0 in
      Array.iter (fun v -> s := !s + v) p.Proc.pcounts;
      acc + !s)
    t.pstates 0

let conservation_ok t = total t = t.expected

(* Decode a packed stack into its phase list, bottom first. *)
let decode packed =
  let rec go packed acc =
    if packed = 0 then List.rev acc
    else go (packed lsr 4) (phase_of_code ((packed land 0xf) - 1) :: acc)
  in
  go packed []

(* The leaf phase a slot's ticks belong to: the top of its stack, or
   [Traverse] for the root (uninstrumented structure-traversal code
   runs with an empty stack by construction). *)
let leaf_phase packed =
  match List.rev (decode packed) with [] -> Traverse | ph :: _ -> ph

let slot_total t slot =
  Hashtbl.fold
    (fun _ p acc ->
      acc
      + if slot < Array.length p.Proc.pcounts then p.Proc.pcounts.(slot) else 0)
    t.pstates 0

let leaf_totals t =
  let sums = Array.make (List.length phases) 0 in
  for s = 0 to t.trie.Proc.n_slots - 1 do
    let c = code (leaf_phase t.trie.Proc.packed_of.(s)) in
    sums.(c) <- sums.(c) + slot_total t s
  done;
  List.map (fun ph -> (ph, sums.(code ph))) phases

(* Per-slot group classification for the service layer's per-request
   stall decomposition: a tick is a retry stall if its stack contains
   [Cas_retry], else a reclamation stall if it contains [Smr_scan],
   [Drc_defer] or [Free]. *)
type group = G_other | G_retry | G_reclaim

let group_of_packed packed =
  let ps = decode packed in
  if List.mem Cas_retry ps then G_retry
  else if
    List.exists (fun p -> p = Smr_scan || p = Drc_defer || p = Free) ps
  then G_reclaim
  else G_other

(* Snapshot one process's (total, retry, reclaim) tick sums — O(live
   slots), used to take before/after deltas around a request. *)
let group_snapshot t (p : Proc.prof) =
  let tot = ref 0 and retry = ref 0 and reclaim = ref 0 in
  let n = Int.min t.trie.Proc.n_slots (Array.length p.Proc.pcounts) in
  for s = 0 to n - 1 do
    let v = p.Proc.pcounts.(s) in
    if v <> 0 then begin
      tot := !tot + v;
      match group_of_packed t.trie.Proc.packed_of.(s) with
      | G_retry -> retry := !retry + v
      | G_reclaim -> reclaim := !reclaim + v
      | G_other -> ()
    end
  done;
  (!tot, !retry, !reclaim)

(* {1 Reports} *)

(* Collapsed stacks in flamegraph.pl's folded format: root frame is the
   profiler's label, one frame per phase, space, tick count. *)
let collapsed t =
  let root = if t.label = "" then "all" else t.label in
  let lines = ref [] in
  for s = t.trie.Proc.n_slots - 1 downto 0 do
    let v = slot_total t s in
    if v > 0 then begin
      let frames =
        root :: List.map phase_name (decode t.trie.Proc.packed_of.(s))
      in
      lines := (String.concat ";" frames, v) :: !lines
    end
  done;
  List.sort
    (fun (a, x) (b, y) ->
      match String.compare a b with 0 -> Int.compare x y | c -> c)
    !lines

(* Merge leaf totals of all profilers sharing a label (a sweep makes
   one profiler per cell; the table reads better per scheme). *)
let merged_by_label ts =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      let lt = List.map (fun (ph, v) -> (ph, v)) (leaf_totals t) in
      let tot = total t and exp_ = expected t in
      match Hashtbl.find_opt tbl t.label with
      | None -> Hashtbl.add tbl t.label (lt, tot, exp_)
      | Some (lt0, tot0, exp0) ->
          Hashtbl.replace tbl t.label
            ( List.map2 (fun (ph, a) (_, b) -> (ph, a + b)) lt0 lt,
              tot0 + tot,
              exp0 + exp_ ))
    ts;
  Hashtbl.fold (fun label v acc -> (label, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The per-scheme breakdown table, rendered to a string so callers can
   print it atomically (the Tables discipline under --jobs). *)
let report_string ts =
  let b = Buffer.create 4096 in
  let rows = merged_by_label ts in
  if rows <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "%-26s %12s" "scheme" "total");
    List.iter
      (fun ph -> Buffer.add_string b (Printf.sprintf " %10s" (phase_name ph)))
      phases;
    Buffer.add_string b "  conservation\n";
    List.iter
      (fun (label, (lt, tot, exp_)) ->
        Buffer.add_string b
          (Printf.sprintf "%-26s %12d"
             (if label = "" then "(unlabelled)" else label)
             tot);
        List.iter
          (fun (_, v) -> Buffer.add_string b (Printf.sprintf " %10d" v))
          lt;
        Buffer.add_string b
          (if tot = exp_ then "  ok\n"
           else Printf.sprintf "  VIOLATED (expected %d)\n" exp_))
      rows
  end;
  Buffer.contents b

(* Every collapsed stack of every recent profiler, for --profile-out. *)
let collapsed_string ts =
  let b = Buffer.create 4096 in
  List.iter
    (fun t ->
      List.iter
        (fun (path, v) ->
          Buffer.add_string b path;
          Buffer.add_char b ' ';
          Buffer.add_string b (string_of_int v);
          Buffer.add_char b '\n')
        (collapsed t))
    ts;
  Buffer.contents b
