(* Fault injection for the simulated machine (see DESIGN.md §4l).

   An adversary is a deterministic, seeded script of scheduling faults
   — stalls (park a process indefinitely at its next scheduling
   decision, optionally only while it holds a pin), delays (charge a
   victim extra virtual-clock ticks for a window) and revivals at
   scripted times — applied by {!Sim.run} at its genuine scheduling
   decision points. All trigger times are global scheduler steps
   ({!Proc.global_now}'s clock), which advance identically with the
   fastpath on or off and under the compiled VM driver, so a faulted
   run is bit-identical across every execution mode, exactly like an
   unfaulted one.

   The companion signal channel ({!signal} / {!Proc.on_signal}) is the
   neutralization primitive of DEBRA+-style robust reclamation: a
   scheme that detects a stalled pinned process "signals" it, and the
   victim's next pay raises {!Proc.Interrupted} through its operation
   (the simulated analogue of the POSIX-signal longjmp) before it can
   touch shared memory again. *)

type stall = {
  victim : int;
  at : int;  (* global step at/after which the stall takes effect *)
  only_pinned : bool;  (* wait until the victim holds a pin *)
  revive : int;  (* global step of revival; max_int = never *)
}

type delay = {
  d_victim : int;
  d_from : int;
  d_until : int;  (* window [d_from, d_until) in global steps *)
  d_penalty : int;  (* extra ticks charged per scheduling decision *)
}

type spec = { stalls : stall list; delays : delay list }

let spec_none = { stalls = []; delays = [] }

let stall ?(only_pinned = false) ?(revive = max_int) ~victim ~at () =
  { victim; at; only_pinned; revive }

(* k distinct victims drawn from pids [1, procs) (pid 0 is left alone:
   the figure harnesses sample their gauges from it), stall times
   staggered from [at] so the parks are attributable in a trace. *)
let stall_k ?(only_pinned = true) ?(revive = max_int) ~seed ~procs ~k ~at () =
  let rng = Rng.create ~seed in
  let pool = Array.init (max 0 (procs - 1)) (fun i -> i + 1) in
  Rng.shuffle rng pool;
  let k = min k (Array.length pool) in
  {
    stalls =
      List.init k (fun i ->
          stall ~only_pinned ~revive ~victim:pool.(i) ~at:(at + (i * 64)) ());
    delays = [];
  }

type t = {
  stalls : stall array;
  delays : delay array;
  fired : bool array;  (* per stall: already applied *)
  parked : bool array;  (* per pid *)
  revive_at : int array;  (* per pid; meaningful while parked *)
  mutable pinned_probe : (int -> bool) option;
  c_stalls : Telemetry.counter option;
  c_signals : Telemetry.counter option;
}

let create ?telemetry ~procs (spec : spec) =
  List.iter
    (fun s ->
      if s.victim < 0 || s.victim >= procs then
        invalid_arg "Adversary.create: stall victim out of range")
    spec.stalls;
  List.iter
    (fun d ->
      if d.d_victim < 0 || d.d_victim >= procs then
        invalid_arg "Adversary.create: delay victim out of range")
    spec.delays;
  {
    stalls = Array.of_list spec.stalls;
    delays = Array.of_list spec.delays;
    fired = Array.make (max 1 (List.length spec.stalls)) false;
    parked = Array.make procs false;
    revive_at = Array.make procs max_int;
    pinned_probe = None;
    c_stalls =
      (match telemetry with
      | Some reg -> Some (Telemetry.counter reg "adv.stalls")
      | None -> None);
    c_signals =
      (match telemetry with
      | Some reg -> Some (Telemetry.counter reg "adv.signals")
      | None -> None);
  }

let active t = Array.length t.stalls > 0 || Array.length t.delays > 0

let is_parked t pid = t.parked.(pid)

let set_pinned_probe t f = t.pinned_probe <- Some f

let pinned t ~pid =
  match t.pinned_probe with Some f -> f pid | None -> false

let bump = function Some c -> Telemetry.incr c | None -> ()

(* One scheduling decision: revive whatever is due, then fire due
   stalls, then charge delay penalties. [revive]/[park] reinsert into /
   remove from the scheduler's run structures; [charge pid n] adds [n]
   ticks to the victim's clock (and its current profiler phase, so tick
   conservation holds). Called by {!Sim.run} only at genuine decision
   points, where the step count is identical across execution modes. *)
let step t ~steps ~revive ~park ~charge =
  Array.iteri
    (fun p r ->
      if t.parked.(p) && r <= steps then begin
        t.parked.(p) <- false;
        t.revive_at.(p) <- max_int;
        revive p
      end)
    t.revive_at;
  Array.iteri
    (fun i s ->
      if
        (not t.fired.(i))
        && (not t.parked.(s.victim))
        && steps >= s.at
        && ((not s.only_pinned) || pinned t ~pid:s.victim)
      then begin
        t.fired.(i) <- true;
        t.parked.(s.victim) <- true;
        t.revive_at.(s.victim) <- s.revive;
        bump t.c_stalls;
        park s.victim
      end)
    t.stalls;
  Array.iter
    (fun d ->
      if steps >= d.d_from && steps < d.d_until && not t.parked.(d.d_victim)
      then charge d.d_victim d.d_penalty)
    t.delays

let signal t ~pid =
  bump t.c_signals;
  Proc.signal pid

(* {1 Ambient instance}

   Reclamation schemes are instantiated through functors whose [create]
   signature has no room for an adversary, so a workload that wants the
   scheme to report its signals on the adversary's [adv.signals] probe
   publishes the instance ambiently around the instantiation. The slot
   is domain-local: parallel sweep workers each wire their own cell. *)

let ambient_slot : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None) (* lint: allow-atomic *)

let ambient () = Domain.DLS.get ambient_slot (* lint: allow-atomic *)

let with_ambient t f =
  Domain.DLS.set ambient_slot (Some t); (* lint: allow-atomic *)
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_slot None) f (* lint: allow-atomic *)
