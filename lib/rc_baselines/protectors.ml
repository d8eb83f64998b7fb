module M = Simcore.Memory
module Proc = Simcore.Proc
module Word = Simcore.Word
module Prof = Simcore.Profiler
module Int_set = Simcore.Int_set

let header = 2

let field_addr = Rc_obj.field_addr ~header

let flag_addr w = Word.to_addr w + 1

type t = {
  mem : M.t;
  procs : int;
  n_slots : int;
  guards : int array;  (* per-process base of [n_slots] words *)
  reg : Rc_obj.registry;
  (* Each process's guarded set, reused by its sweeps (slot [procs]
     serves the quiescent flush, pid -1). Per process because a sweep's
     pays can suspend it while others sweep; taken out while in use, so
     a sweep nested in a deletion cascade builds its own. *)
  sets : Int_set.t option array;
  (* Set by {!quiesce} while its rounds run outside a simulation: every
     guard is zero, so a sweep's guarded set is empty without reading
     them. *)
  mutable cleared : bool;
}

let create mem ~procs ~slots ~reg =
  let guards =
    Array.init procs (fun _ ->
        let base = M.alloc mem ~tag:"guards" ~size:slots in
        (* Single-writer announcement words: only the owning process
           stores, scanners read. The race checker treats them as atomic
           locations (store-release / load-acquire). *)
        for s = 0 to slots - 1 do
          M.mark_race_sync mem (base + s)
        done;
        base)
  in
  { mem; procs; n_slots = slots; guards; reg;
    sets = Array.make (procs + 1) None; cleared = false }

let slots t = t.n_slots

let guard_addr t ~pid ~slot =
  assert (pid >= 0 && pid < t.procs);
  assert (slot >= 0 && slot < t.n_slots);
  t.guards.(pid) + slot

let read_guard t ~pid ~slot = M.read t.mem (guard_addr t ~pid ~slot)

let write_guard t ~pid ~slot v = M.write t.mem (guard_addr t ~pid ~slot) v

let protect_loop t ~pid ~slot src =
  let a = guard_addr t ~pid ~slot in
  let rec loop v =
    M.write t.mem a v;
    let v' = M.read t.mem src in
    if v' = v then v else loop v'
  in
  loop (M.read t.mem src)

let on_zero t ~pending w =
  if M.cas t.mem (flag_addr w) ~expected:0 ~desired:1 then begin
    pending := w :: !pending;
    true
  end
  else false

(* The O(P) guard sweep, one span per process's guard block. *)
let guarded_addrs t set =
  Int_set.clear set;
  let add w =
    let a = Word.to_addr w in
    if a <> 0 then Int_set.add set a
  in
  for p = 0 to t.procs - 1 do
    M.read_span t.mem t.guards.(p) t.n_slots add
  done

let scan_pending t ~pending ~dec =
  (* The guard sweep, the pending-list pass and the deletions it
     liberates are reclamation time for every protector-based scheme
     (herlihy, orcgc): charge them to the smr-scan phase. *)
  Prof.with_phase Prof.Smr_scan @@ fun () ->
  let i = match Proc.self () with -1 -> t.procs | p -> p in
  let guarded =
    match t.sets.(i) with
    | Some s ->
        t.sets.(i) <- None;
        s
    | None -> Int_set.create ()
  in
  if t.cleared then Int_set.clear guarded else guarded_addrs t guarded;
  (* Deletions can cascade into [dec], which may append new entries to
     [pending]; snapshot-and-drain keeps those appends and keeps a
     nested scan disjoint from this one. *)
  let snapshot = !pending in
  pending := [];
  let keep = ref [] in
  let freed = ref 0 in
  List.iter
    (fun w ->
      Proc.pay 1;
      let c = M.read t.mem (Rc_obj.count_addr w) in
      if c > 0 || Int_set.mem guarded (Word.to_addr w) then
        (* Resurrected or still guarded: this entry keeps watching; the
           liberation flag stays claimed so no second entry can appear. *)
        keep := w :: !keep
      else begin
        incr freed;
        Rc_obj.delete t.mem t.reg w ~header ~destruct_cell:(fun fw ->
            if not (Word.is_null fw) then dec (Word.clean fw))
      end)
    snapshot;
  pending := List.rev_append !keep !pending;
  t.sets.(i) <- Some guarded;
  !freed

let quiesce t f =
  for p = 0 to t.procs - 1 do
    for s = 0 to t.n_slots - 1 do
      M.write t.mem (t.guards.(p) + s) 0
    done
  done;
  if Proc.self () >= 0 then f ()
  else begin
    t.cleared <- true;
    Fun.protect ~finally:(fun () -> t.cleared <- false) f
  end
