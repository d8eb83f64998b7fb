(* "Figure R": reclamation robustness under fault injection.

   Every other figure keeps all processes making progress, so the
   well-known unbounded-garbage failure mode of epoch-based reclamation
   never manifests. This figure drives the Harris-Michael list under
   {!Simcore.Adversary} fault scripts — a stalled pinned reader, several
   stalled pinned readers, a crash-restart — and tracks the
   removed-but-unreclaimed node count over virtual time: plain EBR and
   DEBRA diverge the moment a pinned process stalls, DEBRA+
   (neutralization) and the paper's DRC stay bounded. *)

module M = Simcore.Memory
module Pool = Simcore.Domain_pool
module Rng = Simcore.Rng
module Proc = Simcore.Proc
module Adv = Simcore.Adversary
module San = Simcore.Sanitizer
module Smr_intf = Smr.Smr_intf

let scheme_names = [ "EBR"; "DEBRA"; "DEBRA+"; "IBR"; "HE"; "HP"; "DRC" ]

type fault = No_fault | Stall_one | Stall_k | Crash_restart

let fault_names =
  [ "no-fault"; "stall-1-pinned"; "stall-k-pinned"; "crash-restart" ]

let faults = [ No_fault; Stall_one; Stall_k; Crash_restart ]

let fault_name f =
  List.nth fault_names
    (match f with
    | No_fault -> 0
    | Stall_one -> 1
    | Stall_k -> 2
    | Crash_restart -> 3)

module L_ebr = Cds.List_smr.Make (Smr.Ebr)
module L_debra = Cds.List_smr.Make (Smr.Debra)
module L_debra_plus = Cds.List_smr.Make (Smr.Debra.Plus)
module L_ibr = Cds.List_smr.Make (Smr.Ibr)
module L_he = Cds.List_smr.Make (Smr.He)
module L_hp = Cds.List_smr.Make (Smr.Hp)

(* Smaller retire batches than Figure 7: this figure is about
   reclamation dynamics, not peak throughput, and the divergence story
   needs every scheme actually scanning many times inside the run
   window (a scheme that never fills a batch reclaims nothing and
   "diverges" even unfaulted, which would prove nothing). *)
let epoch_params = { Smr_intf.slots = 5; batch = 8; era_freq = 24 }

let hp_params = { Smr_intf.slots = 5; batch = 8; era_freq = 1 }

type instance = {
  i_insert : int -> int -> bool;
  i_delete : int -> int -> bool;
  i_contains : int -> int -> bool;
  i_extra : unit -> int;
  i_flush : unit -> unit;
}

let wrap (type t) (module S : Cds.Set_intf.OPS with type t = t) (t : t) ~procs
    ~seed ~size =
  let setup = S.handle t (-1) in
  let keys = Array.init (2 * size) (fun i -> i) in
  Rng.shuffle (Rng.create ~seed:(seed + 7)) keys;
  for i = 0 to size - 1 do
    ignore (S.insert setup keys.(i))
  done;
  let handles = Array.init procs (S.handle t) in
  {
    i_insert = (fun pid k -> S.insert handles.(pid) k);
    i_delete = (fun pid k -> S.delete handles.(pid) k);
    i_contains = (fun pid k -> S.contains handles.(pid) k);
    i_extra = (fun () -> S.extra_nodes t);
    i_flush = (fun () -> S.flush t);
  }

let factory scheme mem ~procs ~seed ~size =
  match scheme with
  | "EBR" ->
      wrap (module L_ebr)
        (L_ebr.create mem ~procs ~params:epoch_params)
        ~procs ~seed ~size
  | "DEBRA" ->
      wrap (module L_debra)
        (L_debra.create mem ~procs ~params:epoch_params)
        ~procs ~seed ~size
  | "DEBRA+" ->
      wrap
        (module L_debra_plus)
        (L_debra_plus.create mem ~procs ~params:epoch_params)
        ~procs ~seed ~size
  | "IBR" ->
      wrap (module L_ibr)
        (L_ibr.create mem ~procs ~params:epoch_params)
        ~procs ~seed ~size
  | "HE" ->
      wrap (module L_he)
        (L_he.create mem ~procs ~params:epoch_params)
        ~procs ~seed ~size
  | "HP" ->
      wrap (module L_hp)
        (L_hp.create mem ~procs ~params:hp_params)
        ~procs ~seed ~size
  | "DRC" ->
      wrap
        (module Cds.List_rc.Plain)
        (Cds.List_rc.Plain.create mem ~procs)
        ~procs ~seed ~size
  | other -> invalid_arg ("Fig_robust.factory: unknown scheme " ^ other)

(* Fault scripts, in global scheduler steps: the stall lands early (the
   victim parks at the first decision point at/after [horizon/4] steps
   where it holds a protection — early enough that even the slowest
   scheme's run, whose expensive accesses buy fewer steps per tick,
   reaches it), leaving most of the run to expose the divergence;
   crash-restart revives the victim one quarter-horizon later so the
   tail shows recovery. Victims are drawn
   from pids >= 1 — pid 0 samples the memory gauge and must keep
   running. [pinned] gates the stall on {!San.pid_shielded}: true for
   the window/slot schemes (a stall outside a critical region is
   harmless to them, the pinned one is their worst case). DRC has no
   pinned moments at all — its reader protection is the paper's
   acquire-retire, invisible to the epoch auditor — so its stalls fire
   unconditionally: the scheme's worst case is any mid-operation stall,
   and the figure shows reclamation proceeding through it regardless. *)
let fault_spec fault ~pinned ~threads ~horizon ~seed =
  if threads < 2 then Adv.spec_none
  else
    let at = max 1 (horizon / 4) in
    match fault with
    | No_fault -> Adv.spec_none
    | Stall_one ->
        {
          Adv.stalls = [ Adv.stall ~only_pinned:pinned ~victim:1 ~at () ];
          delays = [];
        }
    | Stall_k ->
        Adv.stall_k ~only_pinned:pinned ~seed ~procs:threads
          ~k:(max 1 (threads / 4))
          ~at ()
    | Crash_restart ->
        {
          Adv.stalls =
            [
              Adv.stall ~only_pinned:pinned ~victim:1 ~at
                ~revive:(at + max 1 (horizon / 4))
                ();
            ];
          delays = [];
        }

(* One (scheme, fault) cell. Returns the point plus the sampled
   unreclaimed-memory series [(sample index, extra nodes)]. *)
let point ?policy ?fastpath ?tracer ?(config = Simcore.Config.default)
    ?(profile = false) ~scheme ~fault ~threads ~horizon ~seed ~size
    ~update_pct () =
  let profiler = Fig6.cell_profiler ~profile scheme in
  (* The protection auditor doubles as the adversary's pin oracle
     ([only_pinned] stalls trigger on {!San.pid_shielded}), so protocol
     mode is always on here — it is zero-perturbation (tables are
     byte-identical with it off) and audits the new scheme for free. *)
  let config =
    {
      config with
      Simcore.Config.sanitize =
        { config.Simcore.Config.sanitize with San.protocol = true };
    }
  in
  let mem = M.create config in
  let adv =
    Adv.create ~telemetry:(M.telemetry mem) ~procs:threads
      (fault_spec fault ~pinned:(scheme <> "DRC") ~threads ~horizon ~seed)
  in
  Adv.set_pinned_probe adv (fun pid -> San.pid_shielded (M.sanitizer mem) ~pid);
  let inst = factory scheme mem ~procs:threads ~seed ~size in
  let series = ref [] and n_samples = ref 0 in
  let sample () =
    let v = inst.i_extra () in
    series := (!n_samples, v) :: !series;
    incr n_samples;
    v
  in
  let key_range = 2 * size in
  let half = update_pct in
  let registered = Array.make threads false in
  let op pid rng =
    if not registered.(pid) then begin
      registered.(pid) <- true;
      (* Neutralization handler: nothing to repair — the neutralizer
         already cleared the victim's announcement and closed its
         protection window; the raise just aborts the in-flight
         operation, and the next one re-announces from scratch. *)
      Proc.on_signal (fun () -> ())
    end;
    let k = Rng.int rng key_range in
    let r = Rng.int rng 200 in
    try
      if r < half then ignore (inst.i_insert pid k)
      else if r < 2 * half then ignore (inst.i_delete pid k)
      else ignore (inst.i_contains pid k)
    with Proc.Interrupted -> ()
  in
  let pt =
    (* Ambient adversary so DEBRA+'s neutralizations are counted on
       [adv.signals]; structure ops stay closures behind a host call
       while the driver loop runs compiled, exactly like Figure 7. *)
    Adv.with_ambient adv @@ fun () ->
    Measure.run_point ?policy ?fastpath ?tracer ?profiler
      ~telemetry:(M.telemetry mem) ~adversary:adv ~vm:(mem, None) ~config
      ~seed ~threads ~horizon ~op ~sample ()
  in
  Fig6.assert_conservation scheme profiler;
  (* A faulted run can end with a victim parked inside its critical
     region, its protections still registered; the quiescent flush below
     frees everything, so drop them first (the simulation is over — this
     is exactly the "all processes stopped" precondition of [flush]). *)
  San.reset_protocol (M.sanitizer mem);
  inst.i_flush ();
  (pt, List.rev !series)

let counter pt name =
  match List.assoc_opt name pt.Measure.counters with Some v -> v | None -> 0

let run ?(arm = Measure.unarmed) ?(threads = 8) ?(horizon = 60_000)
    ?(seed = 42) ?(size = 16) ?(update_pct = 50) ~title () =
  let results =
    Pool.map_grid arm.Measure.pool ~rows:faults ~cols:scheme_names
      ~label:(fun f scheme ->
        Printf.sprintf "%s [%s, %s]" title scheme (fault_name f))
      (fun f scheme ->
        point ?tracer:arm.tracer ~config:arm.config ~profile:arm.profile
          ~scheme ~fault:f ~threads ~horizon ~seed ~size ~update_pct ())
  in
  let fault_idx = List.mapi (fun i (f, cells) -> (i, f, cells)) results in
  Tables.print_kv ~title:(title ^ " — fault legend")
    (List.map
       (fun (i, f, _) -> (Printf.sprintf "fault %d" i, fault_name f))
       fault_idx);
  Tables.print_series ~row_header:"fault" ~title
    ~unit_label:
      (Printf.sprintf "throughput: operations per megatick (P=%d)" threads)
    ~columns:scheme_names
    ~rows:
      (List.map
         (fun (i, _, cells) ->
           (i, List.map (fun (pt, _) -> pt.Measure.throughput) cells))
         fault_idx)
    ();
  (* Unreclaimed memory over virtual time, one panel per fault mode:
     rows are pid-0 sample times (virtual ticks), columns schemes. This
     is the figure's claim in one look — under a stalled pinned reader
     the EBR/DEBRA columns grow monotonically to the end of the run
     while DEBRA+, HP and DRC flatten out. *)
  let sample_every = max 1 (horizon / 64) in
  List.iter
    (fun (_, f, cells) ->
      (* Schemes sample at most once per operation, so a slow scheme may
         have fewer samples than the grid; clamp to its last sample
         (carry-forward) rather than truncating the fast schemes' —
         that's where the divergence lives. *)
      let serieses =
        List.map (fun (_, s) -> Array.of_list (List.map snd s)) cells
      in
      let max_len =
        List.fold_left (fun m s -> max m (Array.length s)) 0 serieses
      in
      if max_len > 0 then begin
        let stride = max 1 (max_len / 8) in
        let rows = ref [] in
        let i = ref (max_len - 1) in
        while !i >= 0 do
          rows :=
            ( !i * sample_every,
              List.map
                (fun s ->
                  if Array.length s = 0 then 0.0
                  else float_of_int s.(min !i (Array.length s - 1)))
                serieses )
            :: !rows;
          i := !i - stride
        done;
        Tables.print_series ~row_header:"vtime"
          ~title:(Printf.sprintf "%s — memory over time [%s]" title (fault_name f))
          ~unit_label:"extra nodes (removed, not yet reclaimed) at sample time"
          ~columns:scheme_names ~rows:!rows ()
      end)
    fault_idx;
  (* The adversary/neutralization probes, so the mechanism is visible:
     stalls fired, signals posted (DEBRA+ only), and the limbo-bag
     occupancy peak of the DEBRA family. *)
  List.iter
    (fun (name, probe) ->
      Tables.print_series ~row_header:"fault" ~title:(title ^ " — " ^ name)
        ~unit_label:(name ^ " (telemetry, end of run)")
        ~columns:scheme_names
        ~rows:
          (List.map
             (fun (i, _, cells) ->
               ( i,
                 List.map
                   (fun (pt, _) -> float_of_int (counter pt probe))
                   cells ))
             fault_idx)
        ())
    [
      ("adversary stalls", "adv.stalls");
      ("neutralization signals", "adv.signals");
      ("limbo occupancy peak", "smr.limbo_occupancy/peak");
    ]
