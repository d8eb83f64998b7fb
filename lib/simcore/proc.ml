type _ Effect.t += Pay : int -> unit Effect.t

(* The slots of one profiler: a trie of phase stacks, one node per
   distinct stack, shared by all its processes (see {!Profiler}, which
   grows it). Slot 0 is the empty stack. Moving along an edge is an
   array load, so entering and leaving a phase never hashes. *)
type trie = {
  mutable child : int array;  (* slot * n_codes + code -> child slot; 0 = none yet *)
  mutable parent : int array;  (* slot -> the slot one level up *)
  mutable packed_of : int array;  (* slot -> packed stack, 4 bits per level *)
  mutable n_slots : int;
}

(* Per-process profiling state (see {!Profiler}, which owns the trie of
   phase stacks). It lives here, below the module that interprets it,
   so that [charge] — the single point every simulated tick flows
   through — can charge the current slot with one array store and no
   dependency cycle. The charge is branch-plus-store, and [prof = None]
   (profiling off) costs one match. *)
type prof = {
  mutable pcounts : int array;  (* ticks charged per interned stack slot *)
  mutable pcur : int;  (* slot of the current phase stack *)
  mutable pcoh : int;  (* slot of current stack + coherence-penalty child *)
  mutable pdepth : int;  (* levels of the current stack *)
  mutable pover : int;  (* pushes beyond the packing depth, popped first *)
  ptrie : trie;  (* the profiler's slot trie, shared by its processes *)
}

type env = {
  pid : int;
  prng : Rng.t;
  clock : unit -> int;
  gclock : unit -> int;
  mutable budget : int;
  fast : bool;
  fast_pay : int -> unit;
  bulk_pay : int -> int -> unit;
  regrant : int -> bool;
  prof : prof option;
  mutable intr : bool;  (* pending simulated signal (see {!signal}) *)
  mutable on_sig : (unit -> unit) option;  (* per-process signal handler *)
  mutable sigmask : bool;  (* deferred delivery (see {!with_signals_deferred}) *)
  mutable peers : env array;  (* all envs of the run, for cross-pid signals *)
}

exception Interrupted

(* The ambient environment is domain-local: each worker domain of a
   parallel sweep (see {!Domain_pool}) hosts its own simulation, and a
   shared ref would make them clobber each other's scheduler state. The
   DLS slot holds one mutable cell per domain, created on the domain's
   first lookup; {!Sim.run} writes the running process's env into it.
   A simulation never leaves the domain that runs it, so the code that
   creates a heap, a registry or a run looks the cell up once and keeps
   it, and each access then reads the env with one field load. The
   functions below serve callers that hold no cell, at the cost of a
   DLS lookup per call. *)
type here = { mutable env : env option; domain : int }

let new_here () = { env = None; domain = Domain_pool.domain_id () }

let slot : here Domain.DLS.key = Domain.DLS.new_key new_here (* lint: allow-atomic *)

let here () = Domain.DLS.get slot (* lint: allow-atomic *)

let set_env e = (here ()).env <- e

let get_env () = (here ()).env

(* Charge [c] ticks to the current phase slot, [pen] of them — the
   coherence penalty above the access's floor (an L1 read, an
   owned-line RMW) — to the slot's [Coherence] child. Every pay site
   calls it exactly once per pay, before any suspension, so the
   per-phase sums equal the clock sum (the profiler's conservation
   invariant): [pay_split] here (and so [pay_env]), the VM's elided
   pays, {!Memory}'s span reads and the scheduler's adversary charge.
   Inlined into each; with profiling off it is one [None] match. *)
let[@inline] charge e c pen =
  match e.prof with
  | Some p ->
      let pc = p.pcounts in
      if pen > 0 then begin
        pc.(p.pcur) <- pc.(p.pcur) + c - pen;
        pc.(p.pcoh) <- pc.(p.pcoh) + pen
      end
      else pc.(p.pcur) <- pc.(p.pcur) + c
  | None -> ()

exception Unhandled_signal of int

let () =
  Printexc.register_printer (function
    | Unhandled_signal pid ->
        Some
          (Printf.sprintf
             "Proc: a signal reached pid %d, which registered no on_signal \
              handler"
             pid)
    | _ -> None)

(* Simulated-signal delivery (the adversary's neutralization channel,
   see {!Adversary}): a pending signal is consumed by the victim's very
   next pay — which, because every shared-memory access pays before it
   touches the heap, is guaranteed to precede the victim's next access.
   The check runs {e after} the charge, on the resumed side of any
   suspension: a pay is exactly where the process can be descheduled,
   so a signal posted while it sat suspended must be seen when it wakes
   — before the access the pay was charging for — or the victim would
   get one free unprotected access. (This is how a real OS behaves:
   pending signals are delivered when a descheduled thread is scheduled
   back in, before user code resumes.) The handler runs in the victim's
   context and must not pay; the raise unwinds its in-flight operation
   to whatever restart point the workload installed — the simulated
   analogue of a POSIX signal handler plus longjmp. A victim without a
   registered handler faults: its sender (DEBRA+) has already closed
   its protection window, so letting it run on would be unsafe. The
   check-and-raise charges no ticks, so delivery lands at the identical
   instruction across fastpath and VM execution modes. *)
let[@inline never] deliver e =
  e.intr <- false;
  match e.on_sig with
  | Some f ->
      f ();
      raise Interrupted
  | None -> raise (Unhandled_signal e.pid)

(* The scheduler grants [budget] ticks that this process may consume
   before any scheduling decision could differ; while the budget lasts, a
   pay is a pair of integer updates instead of an effect suspension plus
   a run-queue round trip. The pay that exhausts the budget performs the
   effect, so the scheduler regains control exactly where it would have
   made a different decision. Every path advances this process's clock
   by exactly [n]; the VM's elided memory opcodes bypass [pay_split]
   and charge at their own sites, and [bulk_pay] and the scheduler's
   accounting never charge. *)
let pay_split e n ~pen =
  if n > 0 then begin
    charge e n pen;
    if e.fast && n < e.budget then begin
      e.budget <- e.budget - n;
      e.fast_pay n
    end
    else Effect.perform (Pay n)
  end;
  if e.intr && not e.sigmask then deliver e

let pay_env e n = pay_split e n ~pen:0

let pay n =
  if n > 0 then match get_env () with None -> () | Some e -> pay_env e n

let self () = match get_env () with Some e -> e.pid | None -> -1

let now () = match get_env () with Some e -> e.clock () | None -> 0

let global_now () = match get_env () with Some e -> e.gclock () | None -> 0

let rng () =
  match get_env () with
  | Some e -> e.prng
  | None -> failwith "Proc.rng: not inside a simulation"

let signal pid =
  match get_env () with
  | Some e when pid >= 0 && pid < Array.length e.peers ->
      e.peers.(pid).intr <- true
  | Some _ | None -> ()

let on_signal f = match get_env () with Some e -> e.on_sig <- Some f | None -> ()

(* The simulated sigprocmask: a raise out of the middle of reclamation
   bookkeeping (a half-swept limbo bag, a half-recorded retirement)
   would corrupt the very structures the scheme uses to decide what is
   safe to free — real DEBRA+ defers neutralization signals outside the
   neutralizable section for exactly this reason. A pending signal is
   kept, not dropped; the first pay after the mask lifts delivers it,
   and since every shared-memory access pays (unmasked) first, delivery
   still precedes the process's next tracked access. *)
let with_signals_deferred f =
  match get_env () with
  | None -> f ()
  | Some e ->
      let prev = e.sigmask in
      e.sigmask <- true;
      Fun.protect ~finally:(fun () -> e.sigmask <- prev) f
