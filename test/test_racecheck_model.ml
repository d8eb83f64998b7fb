(* A reference model for the race checker. Random traces over 2-4
   pids (either 0..3 or drawn from a pool that straddles the checker's
   acquired-set word boundaries) and three two-word blocks are fed both to {!Racecheck} and to
   a naive DJIT+-style model kept here: full vector clocks everywhere,
   a full release clock per sync word and per block hand-off, and the
   complete access history of every data word instead of FastTrack's
   adaptive epochs. The two must report the same words, with the same
   current and earlier side, at the same step.

   The model shares the checker's definition of the happens-before
   edges (DESIGN.md §4k): clocks advance only at releases; a slot's
   clock is born on its first access as a fork of the orchestrator's;
   the first in-sim access of a run joins every born clock and
   advances each; an orchestrator access after in-sim activity joins
   every in-sim clock; RMWs and accesses to sync words are
   release-acquire edges; free and retire release into the block's
   hand-off clock, which the next allocation acquires; an allocation
   stamps every word with a write by the allocator. It also shares the
   reporting convention: one report per word per lifetime, and the
   earlier side is the word's last write if that write is unordered,
   else its last read. *)

open Simcore

let n_blocks = 3

let block_size = 2

let n_words = 1 + (n_blocks * block_size)

let base_of b = 1 + ((b - 1) * block_size)

type op =
  | Read of int * int (* pid, word *)
  | Write of int * int
  | Rmw of int * int
  | Mark_sync of int
  | Alloc of int * int (* pid, block *)
  | Free of int * int
  | Retire of int * int
  | Run_start

let pp_op = function
  | Read (p, a) -> Printf.sprintf "read(p%d,%d)" p a
  | Write (p, a) -> Printf.sprintf "write(p%d,%d)" p a
  | Rmw (p, a) -> Printf.sprintf "rmw(p%d,%d)" p a
  | Mark_sync a -> Printf.sprintf "mark_sync(%d)" a
  | Alloc (p, b) -> Printf.sprintf "alloc(p%d,b%d)" p b
  | Free (p, b) -> Printf.sprintf "free(p%d,b%d)" p b
  | Retire (p, b) -> Printf.sprintf "retire(p%d,b%d)" p b
  | Run_start -> "run_start"

(* A report as both sides see it: word, then (pid, time, what) of the
   current and the earlier access. *)
type verdict = int * (int * int * string) * (int * int * string)

let of_race (r : Racecheck.race) : verdict =
  let side (s : Racecheck.side) = (s.Racecheck.s_pid, s.s_time, s.s_what) in
  (r.Racecheck.r_addr, side r.r_cur, side r.r_prev)

(* {1 The model} *)

type access = { kind : [ `R | `W ]; snap : int array; pid : int; time : int }

type model = {
  hb : bool;
  custody : bool;
  n_slots : int;
  clocks : int array option array; (* slot -> clock; None = unborn *)
  mutable barrier_due : bool;
  mutable sim_dirty : bool;
  sync : bool array;
  reported : bool array;
  history : access list array; (* data words: every access, newest first *)
  release : int array array; (* sync words: L_x *)
  handoff : int array array; (* blocks: hand-off clock *)
}

let model ~hb ~custody ~pids =
  let n_slots = List.fold_left max 0 pids + 2 in
  {
    hb;
    custody;
    n_slots;
    clocks = Array.make n_slots None;
    barrier_due = true;
    sim_dirty = false;
    sync = Array.make n_words false;
    reported = Array.make n_words false;
    history = Array.make n_words [];
    release = Array.init n_words (fun _ -> Array.make n_slots 0);
    handoff = Array.init (n_blocks + 1) (fun _ -> Array.make n_slots 0);
  }

let join_into dst src = Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src

let leq a b =
  let ok = ref true in
  Array.iteri (fun i v -> if v > b.(i) then ok := false) a;
  !ok

let clock m s =
  match m.clocks.(s) with
  | Some c -> c
  | None ->
      let c =
        match m.clocks.(0) with
        | Some root -> Array.copy root
        | None -> Array.make m.n_slots 0
      in
      c.(s) <- c.(s) + 1;
      m.clocks.(s) <- Some c;
      c

let bump m s =
  let c = clock m s in
  c.(s) <- c.(s) + 1

let born m = List.filter_map (fun s -> Option.map (fun c -> (s, c)) m.clocks.(s))

let all_slots m = List.init m.n_slots Fun.id

let prologue m pid =
  let s = pid + 1 in
  if pid >= 0 then begin
    if m.barrier_due then begin
      m.barrier_due <- false;
      let j = Array.make m.n_slots 0 in
      List.iter (fun (_, c) -> join_into j c) (born m (all_slots m));
      List.iter
        (fun (s', _) ->
          let c = Array.copy j in
          c.(s') <- c.(s') + 1;
          m.clocks.(s') <- Some c)
        (born m (all_slots m))
    end;
    m.sim_dirty <- true
  end
  else if m.sim_dirty then begin
    m.sim_dirty <- false;
    let r = clock m 0 in
    List.iter (fun (_, c) -> join_into r c) (born m (List.tl (all_slots m)));
    r.(0) <- r.(0) + 1
  end;
  s

let last kind h = List.find_opt (fun a -> a.kind = kind) h

let unordered kind h c = List.exists (fun a -> a.kind = kind && not (leq a.snap c)) h

let report m addr cur (prev : access) what =
  if m.hb && not m.reported.(addr) then begin
    m.reported.(addr) <- true;
    Some (addr, cur, (prev.pid, prev.time, what))
  end
  else None

let record m addr kind c pid time =
  m.history.(addr) <- { kind; snap = Array.copy c; pid; time } :: m.history.(addr)

let step m ~time op : verdict option =
  match op with
  | Run_start ->
      m.barrier_due <- true;
      None
  | Read (pid, a) ->
      let s = prologue m pid in
      let c = clock m s in
      if m.sync.(a) then begin
        join_into c m.release.(a);
        None
      end
      else begin
        let h = m.history.(a) in
        let r =
          if unordered `W h c then
            report m a (pid, time, "read") (Option.get (last `W h)) "write"
          else None
        in
        record m a `R c pid time;
        r
      end
  | Write (pid, a) ->
      let s = prologue m pid in
      let c = clock m s in
      if m.sync.(a) then begin
        join_into m.release.(a) c;
        bump m s;
        None
      end
      else begin
        let h = m.history.(a) in
        let cur = (pid, time, "write") in
        let r =
          if unordered `W h c then report m a cur (Option.get (last `W h)) "write"
          else if unordered `R h c then report m a cur (Option.get (last `R h)) "read"
          else None
        in
        record m a `W c pid time;
        r
      end
  | Rmw (pid, a) ->
      let s = prologue m pid in
      let c = clock m s in
      if m.sync.(a) then begin
        join_into c m.release.(a);
        Array.blit c 0 m.release.(a) 0 m.n_slots;
        bump m s;
        None
      end
      else begin
        (* Promotion to a sync word: only the last plain write is
           checked; earlier plain reads are forgiven. *)
        let h = m.history.(a) in
        let r =
          if unordered `W h c then
            report m a (pid, time, "atomic rmw") (Option.get (last `W h)) "write"
          else None
        in
        m.sync.(a) <- true;
        m.history.(a) <- [];
        Array.blit c 0 m.release.(a) 0 m.n_slots;
        bump m s;
        r
      end
  | Mark_sync a ->
      if not m.sync.(a) then begin
        m.sync.(a) <- true;
        m.history.(a) <- []
      end;
      None
  | Free (pid, b) | Retire (pid, b) ->
      let s = prologue m pid in
      if m.custody then begin
        join_into m.handoff.(b) (clock m s);
        bump m s
      end;
      None
  | Alloc (pid, b) ->
      let s = prologue m pid in
      let c = clock m s in
      if m.custody then begin
        join_into c m.handoff.(b);
        Array.fill m.handoff.(b) 0 m.n_slots 0
      end;
      for a = base_of b to base_of b + block_size - 1 do
        m.sync.(a) <- false;
        m.reported.(a) <- false;
        m.history.(a) <- [ { kind = `W; snap = Array.copy c; pid; time } ];
        Array.fill m.release.(a) 0 m.n_slots 0
      done;
      None

(* {1 The checker, driven directly} *)

let check_step rc ~time op : verdict option =
  let v = Option.map of_race in
  match op with
  | Run_start ->
      Racecheck.note_run_start ();
      None
  | Read (pid, addr) -> v (Racecheck.on_read rc ~addr ~pid ~time)
  | Write (pid, addr) -> v (Racecheck.on_write rc ~addr ~pid ~time)
  | Rmw (pid, addr) -> v (Racecheck.on_rmw rc ~addr ~pid ~time)
  | Mark_sync addr ->
      Racecheck.mark_sync rc ~addr;
      None
  | Alloc (pid, bid) ->
      Racecheck.on_alloc rc ~bid ~base:(base_of bid) ~size:block_size ~pid ~time;
      None
  | Free (pid, bid) ->
      Racecheck.on_free rc ~bid ~pid;
      None
  | Retire (pid, bid) ->
      Racecheck.on_retire rc ~bid ~pid;
      None

(* {1 Traces} *)

(* Pids on both sides of the checker's acquired-set word boundaries:
   slots (pid + 1) 0..61 are one word's bits, 62..123 the next, and so
   on, so pids 60/61 and 122/123 are the last and first of a word. *)
let wide_pids = [ 0; 1; 60; 61; 62; 63; 122; 123; 126; 127; 200 ]

let gen_pids =
  QCheck.Gen.(
    int_range 2 4 >>= fun n ->
    oneof
      [
        return (List.init n Fun.id);
        shuffle_l wide_pids >|= List.filteri (fun i _ -> i < n);
      ])

(* Traces alternate an orchestrator phase (pid -1: set-up, oracle
   reads, teardown frees) with a run (a run start, then in-sim pids
   only) — the shape {!Sim.run} gives every heap, and the assumption
   behind the orchestrator's join of every in-sim clock. *)
let gen_trace =
  QCheck.Gen.(
    gen_pids >>= fun pids ->
    let word = int_range 1 (n_words - 1) in
    let block = int_range 1 n_blocks in
    let op pid =
      frequency
        [
          (6, map (fun a -> Read (pid, a)) word);
          (5, map (fun a -> Write (pid, a)) word);
          (3, map (fun a -> Rmw (pid, a)) word);
          (2, map (fun a -> Mark_sync a) word);
          (2, map (fun b -> Alloc (pid, b)) block);
          (1, map (fun b -> Free (pid, b)) block);
          (1, map (fun b -> Retire (pid, b)) block);
        ]
    in
    let outside = list_size (int_range 0 6) (op (-1)) in
    let run = list_size (int_range 1 30) (oneofl pids >>= op) in
    let phase = map2 (fun o r -> o @ (Run_start :: r)) outside run in
    pair bool (list_size (int_range 1 4) phase) >|= fun (custody, phases) ->
    (pids, custody, List.concat phases))

let arb_trace =
  QCheck.make
    ~print:(fun (pids, custody, ops) ->
      Printf.sprintf "pids=%s custody=%b [%s]"
        (String.concat "," (List.map string_of_int pids))
        custody
        (String.concat "; " (List.map pp_op ops)))
    gen_trace

let pp_verdict = function
  | None -> "-"
  | Some (a, (p, t, w), (p', t', w')) ->
      Printf.sprintf "word %d: %s p%d@%d vs %s p%d@%d" a w p t w' p' t'

let checker ?(mode = Racecheck.default_on) () =
  Racecheck.create mode (Telemetry.create ()) (Memcore.create Config.default_cost)

let agrees (pids, custody, ops) =
  let rc = checker ~mode:{ Racecheck.hb = true; custody } () in
  let m = model ~hb:true ~custody ~pids in
  List.iteri
    (fun i op ->
      let time = i + 1 in
      let expect = step m ~time op in
      let got = check_step rc ~time op in
      if got <> expect then
        QCheck.Test.fail_reportf "step %d %s: checker %s, model %s" time (pp_op op)
          (pp_verdict got) (pp_verdict expect))
    ops;
  true

let prop_matches_model =
  QCheck.Test.make ~count:10000 ~name:"racecheck = full-vector-clock model" arb_trace agrees

(* The generator must actually reach races, on both sides of each
   kind, or agreement would be vacuous. *)
let test_model_finds_races () =
  let rand = Random.State.make [| 7 |] in
  let kinds = Hashtbl.create 8 in
  for _ = 1 to 300 do
    let pids, custody, ops = QCheck.Gen.generate1 ~rand gen_trace in
    let m = model ~hb:true ~custody ~pids in
    List.iteri
      (fun i op ->
        match step m ~time:(i + 1) op with
        | Some (_, (_, _, w), (_, _, w')) -> Hashtbl.replace kinds (w, w') ()
        | None -> ())
      ops
  done;
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "%s vs %s reached" (fst k) (snd k))
        true (Hashtbl.mem kinds k))
    [ ("read", "write"); ("write", "write"); ("write", "read"); ("atomic rmw", "write") ]

(* A read clock left over from a word's earlier concurrent reads must
   not leak into its next escalation: here the final write is ordered
   after both current readers (through the sync word 5), but not after
   pid 0's read from before the reallocation. *)
let test_reescalation_starts_clean () =
  let trace =
    [
      Alloc (-1, 1); Run_start;
      Read (0, 1); Read (1, 1); (* concurrent: escalate *)
      Alloc (2, 1); (* new lifetime, reads cleared *)
      Rmw (2, 5); Rmw (1, 5); (* publish the block to pid 1 *)
      Read (1, 1); Read (2, 1); (* concurrent again: escalate *)
      Rmw (2, 5); Rmw (1, 5); (* order pid 2's read before pid 1 *)
      Write (1, 1);
    ]
  in
  Alcotest.(check bool) "checker = model" true (agrees ([ 0; 1; 2 ], true, trace));
  let rc = checker () in
  List.iteri (fun i op -> ignore (check_step rc ~time:(i + 1) op)) trace;
  Alcotest.(check int) "no race" 0 (Racecheck.report_count rc)

(* The join-release trap. A store-release by a process that has not
   acquired the word is a join: afterwards [L_x] holds history the
   releaser lacks (here p1's write of word 1, published by p1's RMW).
   The releaser's next RMW must still acquire it, so its read of word 1
   is ordered. A checker that counted the joining releaser as having
   acquired [L_x] would skip that acquire and report a race. Each pid
   pair is tried in both halves of the acquired set. *)
let test_join_release_trap () =
  List.iter
    (fun (p0, p1) ->
      let trace =
        [
          Alloc (-1, 1); Alloc (-1, 3); Run_start;
          Write (p1, 1); Rmw (p1, 5); (* publish p1's write through x = 5 *)
          Write (p0, 5); (* store-release by a non-acquirer: a join *)
          Rmw (p0, 5); (* must acquire p1's history *)
          Read (p0, 1);
        ]
      in
      let name = Printf.sprintf "p%d after p%d" p0 p1 in
      Alcotest.(check bool) (name ^ ": checker = model") true
        (agrees ([ p0; p1 ], true, trace));
      let rc = checker () in
      List.iteri (fun i op -> ignore (check_step rc ~time:(i + 1) op)) trace;
      Alcotest.(check int) (name ^ ": no race") 0 (Racecheck.report_count rc))
    [ (0, 1); (200, 61); (61, 200); (123, 126) ]

let suite =
  [
    QCheck_alcotest.to_alcotest prop_matches_model;
    Alcotest.test_case "re-escalation starts clean" `Quick
      test_reescalation_starts_clean;
    Alcotest.test_case "join-release trap" `Quick test_join_release_trap;
    Alcotest.test_case "model reaches every race kind" `Quick test_model_finds_races;
  ]
