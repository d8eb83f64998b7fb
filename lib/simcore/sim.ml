open Effect.Deep

type policy =
  | Fair
  | Uniform
  | Chaos of { pause_prob : float; pause_steps : int }

type fault = { pid : int; exn : exn }

type result = {
  makespan : int;
  steps : int;
  faults : fault list;
  clocks : int array;
}

exception Stuck of string

type pstate =
  | Not_started
  | Suspended of (unit, unit) continuation
  | Flat of (unit -> int)
      (* flat coroutine (see the [coroutine] parameter of {!run}): the
         thunk runs the process to its next suspension point and returns
         the pay amount, or a negative value on completion *)
  | Finished

type core = {
  mutable clock : int;
  runq : int Queue.t;
  mutable cur : int;  (* process currently owning the core; -1 = none *)
  mutable slice : int;  (* ticks left before involuntary switch *)
}

(* Pid [max_procs] and above would share {!Memcore.pid_slot}'s last
   coherence slot with the orchestrator (pid -1). *)
let max_procs = Memcore.max_pids - 1

let run ?(policy = Fair) ?(seed = 1) ?(fastpath = true) ?tracer ?profiler
    ?coroutine ?adversary ~config ~procs body =
  if procs < 1 || procs > max_procs then
    invalid_arg
      (Printf.sprintf "Sim.run: procs = %d, must be between 1 and %d" procs
         max_procs);
  (* An adversary with an empty script costs nothing: every hook below
     is guarded by [adv_on], so unfaulted runs are untouched. *)
  let adv_on =
    match adversary with Some a -> Adversary.active a | None -> false
  in
  Racecheck.note_run_start ();
  (* The domain's env cell, fetched once: switching processes is then
     one field store, with no domain-local lookup per resume. *)
  let here = Proc.here () in
  (match tracer with Some tr -> Recorder.new_run tr | None -> ());
  let root_rng = Rng.create ~seed in
  let quantum = Int.max 1 config.Config.quantum in
  let n_cores = Int.max 1 (Int.min config.Config.cores procs) in
  let lookahead = Int.max 0 config.Config.lookahead in
  let cores =
    Array.init n_cores (fun _ ->
        { clock = 0; runq = Queue.create (); cur = -1; slice = quantum })
  in
  let core_of = Array.init procs (fun p -> p mod n_cores) in
  let states = Array.make procs Not_started in
  let pclocks = Array.make procs 0 in
  let steps = ref 0 in
  let fair = match policy with Fair -> true | Uniform | Chaos _ -> false in
  let envs =
    Array.init procs (fun p ->
        let clock =
          if fair then begin
            let core = cores.(core_of.(p)) in
            fun () -> core.clock
          end
          else fun () -> pclocks.(p)
        in
        (* [fast_pay] charges exactly what the scheduler's suspension
           handler would, including the step counter that a suspension's
           scheduler-loop iteration would have bumped, so [global_now]
           and [now] are identical with and without elision. *)
        let fast_pay =
          if fair then begin
            let core = cores.(core_of.(p)) in
            fun n ->
              core.clock <- core.clock + n;
              core.slice <- core.slice - n;
              incr steps
          end
          else fun n ->
            pclocks.(p) <- pclocks.(p) + n;
            incr steps
        in
        let bulk_pay =
          if fair then begin
            let core = cores.(core_of.(p)) in
            fun n k ->
              core.clock <- core.clock + n;
              core.slice <- core.slice - n;
              steps := !steps + k
          end
          else fun n k ->
            pclocks.(p) <- pclocks.(p) + n;
            steps := !steps + k
        in
        {
          Proc.pid = p;
          prng = Rng.split root_rng;
          clock;
          gclock = (fun () -> !steps);
          budget = 0;
          fast = fastpath && fair;
          fast_pay;
          bulk_pay;
          regrant = (fun _ -> false);
          prof =
            (match profiler with
            | Some t -> Some (Profiler.pstate t ~pid:p)
            | None -> None);
          intr = false;
          on_sig = None;
          sigmask = false;
          peers = [||];
        })
  in
  (* Every env sees all envs, so {!Proc.signal} can mark any pid. *)
  Array.iter (fun e -> e.Proc.peers <- envs) envs;
  (* Preallocated so that entering a process never allocates. *)
  let some_envs = Array.map (fun e -> Some e) envs in
  let faults = ref [] in
  let remaining = ref procs in
  let cur_pid = ref (-1) in
  (* Core run-queue setup (Fair policy). *)
  Array.iteri (fun p c -> Queue.push p cores.(c).runq) core_of;
  let core_pq = Pqueue.Core_ring.create n_cores in
  let core_queued = Array.make n_cores false in
  let requeue_core c =
    let core = cores.(c) in
    if (not core_queued.(c)) && (core.cur >= 0 || not (Queue.is_empty core.runq))
    then begin
      core_queued.(c) <- true;
      Pqueue.Core_ring.add core_pq ~key:core.clock c
    end
  in
  for c = 0 to n_cores - 1 do
    requeue_core c
  done;
  (* Run-ahead grant: how many ticks the chosen process may consume
     before any scheduling decision could differ. Until its core clock
     would reach the second-smallest queued core clock plus [lookahead],
     no other core can be due; the slice bound keeps the quantum exact,
     and the max_steps bound keeps the livelock valve exact. The grant
     drives both modes: with [fastpath] the process elides suspensions
     while the budget lasts, without it the scheduler re-resumes the
     process (below) until the budget is spent — bit-identical runs. *)
  let grant core p =
    let b =
      (* The chosen core stays at the heap root while its process runs
         (see [pick_fair]), so the bound comes from the runner-up key. *)
      let k = Pqueue.Core_ring.second_key core_pq in
      if k = max_int then max_int else k + lookahead - core.clock
    in
    let b = if Queue.is_empty core.runq then b else Int.min b core.slice in
    let b =
      if config.Config.max_steps > 0 then
        Int.min b (config.Config.max_steps + 1 - !steps)
      else b
    in
    (Array.unsafe_get envs p).Proc.budget <- b
  in
  (* Chaos / Uniform bookkeeping. *)
  let sleep_until = Array.make procs 0 in
  let sched_rng = Rng.split root_rng in
  (* Effect handling: a Pay that reaches the effect suspends and returns
     control to the main loop; decisions about who runs next live in
     [pick] below. Under [Fair] with [fastpath], pays inside the granted
     budget never get here (see {!Proc.pay}). *)
  (* The suspension's accounting, shared by the effect handler and the
     flat-coroutine return path so both are bit-identical. *)
  let account_pay p n =
    match policy with
    | Fair ->
        (* [p]/[c] are scheduler-maintained indices, always in range. *)
        let core = Array.unsafe_get cores (Array.unsafe_get core_of p) in
        core.clock <- core.clock + n;
        core.slice <- core.slice - n;
        let e = Array.unsafe_get envs p in
        e.Proc.budget <- e.Proc.budget - n;
        if core.slice <= 0 && not (Queue.is_empty core.runq) then begin
          (* Involuntary context switch: rotate to the back. *)
          Queue.push p core.runq;
          core.cur <- -1
        end
    | Uniform | Chaos _ -> pclocks.(p) <- pclocks.(p) + n
  in
  let on_pay n k =
    let p = !cur_pid in
    states.(p) <- Suspended k;
    account_pay p n
  in
  let on_done () =
    let p = !cur_pid in
    states.(p) <- Finished;
    decr remaining;
    match policy with
    | Fair -> (cores.(core_of.(p))).cur <- -1
    | Uniform | Chaos _ -> ()
  in
  let on_exn e =
    let p = !cur_pid in
    (match tracer with
    | Some tr -> Recorder.instant tr ("fault: " ^ Printexc.to_string e)
    | None -> ());
    faults := { pid = p; exn = e } :: !faults;
    on_done ()
  in
  let handler =
    {
      retc = (fun () -> on_done ());
      exnc = (fun e -> on_exn e);
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Proc.Pay n ->
              Some (fun (k : (a, unit) continuation) -> on_pay n k)
          | _ -> None);
    }
  in
  (* Run process [p] until its next suspension point or completion.
     [on_pay] / [on_done] / [on_exn] update [states.(p)] before control
     returns here, so the state is never stale and one-shot continuations
     are never reused. *)
  let last_resumed = ref (-1) in
  (* A flat process suspends by returning its pay from the coroutine
     thunk instead of performing the effect: same accounting, no fiber
     round trip. Exceptions out of the thunk are the fiber path's exnc. *)
  let run_flat p co =
    match co () with
    | n when n >= 0 -> account_pay p n
    | _ -> on_done ()
    | exception e -> on_exn e
  in
  let resume p =
    cur_pid := p;
    here.Proc.env <- Array.unsafe_get some_envs p;
    (match tracer with
    | Some tr when p <> !last_resumed ->
        last_resumed := p;
        Recorder.instant tr "switch"
    | Some _ | None -> ());
    match Array.unsafe_get states p with
    | Not_started -> (
        (* [coroutine p] runs the process's setup (it is the first code
           of the process, under its env), like the head of [body]. *)
        match (match coroutine with Some f -> f p | None -> None) with
        | Some co ->
            states.(p) <- Flat co;
            run_flat p co
        | None -> match_with body p handler
        | exception e -> on_exn e)
    | Flat co -> run_flat p co
    | Suspended k -> continue k ()
    | Finished -> assert false
  in
  (* Pick the next process to run, or -1 when everyone is done. The
     due core is peeked, not popped: it stays at the heap root for the
     whole grant and is re-keyed in place afterwards
     ({!Pqueue.Core_ring.reprioritize_min}), saving a full pop/push round
     trip per scheduling window. Allocates nothing. *)
  let rec pick_fair () =
    match Pqueue.Core_ring.peek core_pq with
    | -1 -> -1
    | c ->
        let core = Array.unsafe_get cores c in
        if core.cur < 0 && not (Queue.is_empty core.runq) then begin
          core.cur <- Queue.pop core.runq;
          core.slice <- quantum
        end;
        if core.cur >= 0 then begin
          grant core core.cur;
          core.cur
        end
        else begin
          ignore (Pqueue.Core_ring.pop_min core_pq);
          core_queued.(c) <- false;
          pick_fair ()
        end
  in
  (* Adversary hooks (see {!Adversary.step}), invoked only from genuine
     decision points of the main loop ([running] = -1), whose global
     step counts are identical across execution modes. Parked processes
     leave the run structures entirely: under [Fair] they are removed
     from their core (the core drains and drops out of the ring if
     nothing else runs there), under [Uniform]/[Chaos] the picker skips
     them. A run with processes still parked at the end terminates
     normally once everyone else finishes — the pickers return -1. *)
  let adv_parked =
    match adversary with
    | Some a when adv_on -> fun p -> Adversary.is_parked a p
    | Some _ | None -> fun _ -> false
  in
  let adv_park p =
    if states.(p) <> Finished then
      match policy with
      | Fair ->
          let core = cores.(core_of.(p)) in
          if core.cur = p then core.cur <- -1
          else begin
            (* Drop [p] from its core's queue, order preserved. *)
            let tmp = Queue.create () in
            Queue.transfer core.runq tmp;
            Queue.iter (fun q -> if q <> p then Queue.push q core.runq) tmp
          end
      | Uniform | Chaos _ -> ()
  in
  (* Ticks [adv_revive] added to idle cores' clocks. *)
  let lifted = ref 0 in
  let adv_revive p =
    if states.(p) <> Finished then
      match policy with
      | Fair ->
          let c = core_of.(p) in
          let core = cores.(c) in
          Queue.push p core.runq;
          (* The core may have drained and dropped out of the ring while
             its only process was parked. Ring keys are monotone, so an
             idle core re-enters at the current virtual now, not its
             stale frozen clock — idling accrues no entitlement. A core
             still in the ring keeps its key (its clock is never below
             the minimum), so the lift applies exactly to revived-idle
             cores. No pay made the lift, so [finish] keeps it out of
             the profiler's expected total. *)
          let m = Pqueue.Core_ring.min_key core_pq in
          if m <> max_int && core.clock < m then begin
            lifted := !lifted + (m - core.clock);
            core.clock <- m
          end;
          requeue_core c
      | Uniform | Chaos _ -> ()
  in
  let adv_charge p n =
    (match policy with
    | Fair ->
        (* The core's ring key goes stale until its next re-key — a
           deterministic lag, identical in every execution mode. *)
        let core = cores.(core_of.(p)) in
        core.clock <- core.clock + n
    | Uniform | Chaos _ -> pclocks.(p) <- pclocks.(p) + n);
    (* Like a pay, the ticks also land on the victim's current phase
       slot, preserving the profiler's conservation invariant. *)
    Proc.charge envs.(p) n 0
  in
  (* Preallocated scratch for [pick_random]: the previous per-step list
     and array builds were O(P) allocation per instruction. Filled in
     ascending pid order and indexed from the top so the random draw maps
     to the same pid as the descending lists it replaced. *)
  let scratch_run = Array.make procs 0 in
  let scratch_sleep = Array.make procs 0 in
  let pick_random () =
    let n_run = ref 0 and n_sleep = ref 0 in
    for p = 0 to procs - 1 do
      match states.(p) with
      | Finished -> ()
      | Not_started | Suspended _ | Flat _ ->
          if adv_parked p then ()
          else if sleep_until.(p) <= !steps then begin
            scratch_run.(!n_run) <- p;
            incr n_run
          end
          else begin
            scratch_sleep.(!n_sleep) <- p;
            incr n_sleep
          end
    done;
    if !n_run = 0 then
      if !n_sleep = 0 then -1
      else scratch_sleep.(!n_sleep - 1 - Rng.int sched_rng !n_sleep)
    else begin
      let p = scratch_run.(!n_run - 1 - Rng.int sched_rng !n_run) in
      (match policy with
      | Chaos { pause_prob; pause_steps } ->
          if Rng.below sched_rng pause_prob then
            sleep_until.(p) <- !steps + 1 + Rng.int sched_rng pause_steps
      | Fair | Uniform -> ());
      p
    end
  in
  let finish () =
    here.Proc.env <- None;
    let clocks =
      match policy with
      | Fair -> Array.map (fun c -> c.clock) cores
      | Uniform | Chaos _ -> Array.copy pclocks
    in
    let makespan = Array.fold_left Int.max 0 clocks in
    (* Feed the conservation check: apart from revive lifts, clocks
       advance only through pays, and every pay charged a phase slot
       exactly once, so the profiler's per-phase sums must equal this
       total. *)
    (match profiler with
    | Some t ->
        Profiler.add_expected t (Array.fold_left ( + ) 0 clocks - !lifted)
    | None -> ());
    { makespan; steps = !steps; faults = List.rev !faults; clocks }
  in
  Fun.protect ~finally:(fun () -> here.Proc.env <- None) @@ fun () ->
  let continue_loop = ref true in
  (* Fair process mid-grant (suspension-per-pay mode only); -1 = none. *)
  let running = ref (-1) in
  while !continue_loop && !remaining > 0 do
    if config.Config.max_steps > 0 && !steps > config.Config.max_steps then begin
      here.Proc.env <- None;
      raise
        (Stuck
           (Printf.sprintf "exceeded max_steps=%d with %d processes unfinished"
              config.Config.max_steps !remaining))
    end;
    incr steps;
    (match adversary with
    | Some adv when adv_on && !running < 0 ->
        Adversary.step adv ~steps:!steps ~revive:adv_revive ~park:adv_park
          ~charge:adv_charge
    | Some _ | None -> ());
    let next =
      if !running >= 0 then !running
      else match policy with
        | Fair -> pick_fair ()
        | Uniform | Chaos _ -> pick_random ()
    in
    match next with
    | -1 -> continue_loop := false
    | p ->
        resume p;
        (match policy with
        | Fair ->
            let c = Array.unsafe_get core_of p in
            let core = Array.unsafe_get cores c in
            (* With budget left, a still-suspended, still-scheduled
               process continues its grant: no requeue, the core stays
               at the heap root. (With [fastpath] the elided pays spend
               the budget inside the process, so a suspension always
               ends the grant.) *)
            if
              (Array.unsafe_get envs p).Proc.budget > 0
              && (match Array.unsafe_get states p with
                 | Suspended _ | Flat _ -> true
                 | Not_started | Finished -> false)
              && core.cur = p
            then running := p
            else begin
              running := -1;
              (* End of grant: the core is still the heap root (it was
                 only peeked). Re-key it under its advanced clock when
                 still eligible, mirroring the former pop-plus-requeue's
                 fresh insertion sequence; otherwise drop it. *)
              if core.cur >= 0 || not (Queue.is_empty core.runq) then
                Pqueue.Core_ring.reprioritize_min core_pq ~key:core.clock
              else begin
                ignore (Pqueue.Core_ring.pop_min core_pq);
                core_queued.(c) <- false
              end
            end
        | Uniform | Chaos _ -> ())
  done;
  finish ()
