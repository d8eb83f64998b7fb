(* The invariance harness: no execution mode or instrument may change a
   result. Each run of the property draws small random cells — one
   Figure 6a point per scheme, two load/store points of the Figure
   6b–6d shapes (store share, location count), a Figure 7 list point, a
   faulted Figure R point and a serving-benchmark cell, each with its
   own seed, process count and lookahead window — runs each cell plain
   and once per mode, and requires plain's fingerprint from every mode:
   fastpath off, VM off, either allocator, the sanitizer, the race
   checker, the profiler, all three instruments at once (on either
   engine), and a pool of two domains. The VM-off modes run only on
   cells with a compiled op body; elsewhere the VM is not in play and
   they would rerun plain. Across the two engines the instruments' own
   outputs (the sanitizer's and race checker's report texts, the
   collapsed profile stacks) must agree too.

   Coverage is enumerated, not sampled: every run covers all five cell
   kinds, every {!Workload.Fig6.schemes} entry, all three policies and
   both lookahead windows, and each mode must show in at least one cell
   that it took effect. A failure names the cell (kind, scheme, seed,
   P, policy, lookahead, and a load/store cell's shape) and the mode;
   [QCHECK_SEED=N] replays a run. *)

open Simcore
module W = Workload
module B = Service.Bench

(* {1 Cells and modes} *)

type kind = Fig6a | Fig6bd | Fig7a | Robust | Serve

type cell = {
  kind : kind;
  scheme : string;
  seed : int;
  procs : int;
  policy : int;  (** index into [policies] *)
  lookahead : int;
  n_locs : int;  (** load/store cells: locations ... *)
  p_store : float;  (** ... and store share *)
}

let loadstore c = c.kind = Fig6a || c.kind = Fig6bd

let policies =
  [|
    ("fair", Sim.Fair);
    ("uniform", Sim.Uniform);
    ("chaos", Sim.Chaos { pause_prob = 0.03; pause_steps = 60 });
  |]

let cell_name c =
  Printf.sprintf "%s %S seed=%d P=%d policy=%s lookahead=%d%s"
    (List.assoc c.kind
       [ (Fig6a, "6a"); (Fig6bd, "6b-6d"); (Fig7a, "7a"); (Robust, "robust");
         (Serve, "serve") ])
    c.scheme c.seed c.procs
    (fst policies.(c.policy))
    c.lookahead
    (if c.kind = Fig6bd then
       Printf.sprintf " locs=%d stores=%.1f" c.n_locs c.p_store
     else "")

(* A mode arms a cell's config; the fast path and the profiler are
   arguments of the runners instead. *)
type mode = {
  name : string;
  fastpath : bool;
  profile : bool;
  arm : Config.t -> Config.t;
}

let mode ?(fastpath = true) ?(profile = false) ?(arm = Fun.id) name =
  { name; fastpath; profile; arm }

let plain = mode "plain"

let sanitize c = { c with Config.sanitize = Sanitizer.default_on }

let race c = { c with Config.race = Racecheck.default_on }

let vm_off c = { c with Config.vm = false }

let all_three = "sanitize+race+profile"

let all_three_vm_off = all_three ^ ", vm off"

(* The pool of two domains is the one mode outside this list: it runs
   every plain cell at once (see [run_on_pool]). *)
let pool_mode = "pool of 2 domains"

let modes =
  [
    mode "fastpath off" ~fastpath:false;
    mode "vm off" ~arm:vm_off;
    mode "alloc legacy" ~arm:(fun c -> { c with Config.alloc = Config.Legacy });
    mode "alloc pooled" ~arm:(fun c -> { c with Config.alloc = Config.Pooled });
    mode "sanitize" ~arm:sanitize;
    mode "race" ~arm:race;
    mode "profile" ~profile:true;
    mode all_three ~profile:true ~arm:(fun c -> race (sanitize c));
    mode all_three_vm_off ~profile:true ~arm:(fun c -> vm_off (race (sanitize c)));
  ]

(* {1 Running a cell} *)

type fingerprint =
  | Point of (W.Measure.point * (int * int) list)  (** Figure R's series *)
  | Served of Service.Slo.report
  | Unsafe of string  (** the run stopped on a simulated memory fault *)

(* One cell under one mode, on the figures' machine: its fingerprint,
   and from the 6a cells the heap's sanitizer reports and whether leak
   attribution is on. A run that stops on a memory fault has the fault
   as its fingerprint. *)
let fingerprint cell m =
  let policy = snd policies.(cell.policy) and fastpath = m.fastpath in
  let config = m.arm { Config.default with lookahead = cell.lookahead } in
  let profile = m.profile and threads = cell.procs and seed = cell.seed in
  let reports = ref [] and leaks = ref false in
  let on_heap mem =
    reports := Memory.sanitizer_reports mem;
    leaks := Memory.leaks_by_site mem <> []
  in
  let run () =
    match cell.kind with
    | Fig6a | Fig6bd ->
        Point
          ( W.Fig6.loadstore_point ~policy ~fastpath ~config ~profile ~on_heap
              (List.assoc cell.scheme W.Fig6.schemes)
              ~threads ~horizon:10_000 ~seed ~n_locs:cell.n_locs
              ~p_store:cell.p_store,
            [] )
    | Fig7a ->
        Point
          ( W.Fig7.point ~policy ~fastpath ~config ~profile
              ~structure:W.Fig7.List_set ~scheme:cell.scheme ~threads
              ~horizon:5_000 ~seed ~size:16 ~update_pct:20 (),
            [] )
    | Robust ->
        Point
          (W.Fig_robust.point ~policy ~fastpath ~config ~profile
             ~scheme:cell.scheme ~fault:W.Fig_robust.Stall_one ~threads
             ~horizon:6_000 ~seed ~size:16 ~update_pct:50 ())
    | Serve ->
        let profiler =
          if profile then Some (Profiler.create ~label:cell.scheme ()) else None
        in
        let params =
          { (Test_service.small_params ~scheme:cell.scheme ()) with
            B.workers = cell.procs }
        in
        (* The critical-path split exists only when profiled. *)
        let r = B.run ~fastpath ~config ?profiler ~seed params in
        Served { r with Service.Slo.breakdown = None }
  in
  let fp =
    try run () with
    | Failure msg
      when String.starts_with ~prefix:"benchmark process " msg
           || String.starts_with ~prefix:"service worker " msg ->
        Unsafe msg
  in
  (fp, !reports, !leaks)

let fail cell mode what =
  QCheck.Test.fail_reportf "cell %s, mode %s: %s" (cell_name cell) mode what

type outcome = {
  fp : fingerprint;
  san : string list;
  races : string list;
  stacks : (string * int) list;
  leaks : bool;
  words : float;  (** host words the run allocated *)
}

let allocated () =
  match Gc.counters () with minor, promoted, major -> minor +. major -. promoted

let observe cell m =
  Racecheck.mark ();
  Profiler.mark ();
  let w0 = allocated () in
  let fp, san, leaks =
    try fingerprint cell m
    with e -> fail cell m.name ("raised " ^ Printexc.to_string e)
  in
  let words = allocated () -. w0 in
  let races, _ = Racecheck.recent_reports () in
  let stacks = List.concat_map Profiler.collapsed (Profiler.recent ()) in
  { fp; san; races; stacks; leaks; words }

(* {1 Comparing} *)

let counters = function
  | Point (p, _) -> p.W.Measure.counters
  | Served r -> r.Service.Slo.counters
  | Unsafe _ -> []

let counter fp k = Option.value (List.assoc_opt k (counters fp)) ~default:0

let allocator_key k =
  String.starts_with ~prefix:"mem.alloc." k
  || String.starts_with ~prefix:"mem.pool." k

(* The part of a fingerprint a mode must reproduce: the instruments'
   own report counters ([race.reports], [san.reports]) are their output,
   not the simulation's, and with [alloc] the allocator's probes go too,
   the one legitimate difference between the policies (they count their
   fresh/reuse/steal traffic differently). *)
let comparable ~alloc fp =
  let keep =
    List.filter (fun (k, _) ->
        not (k = "race.reports" || k = "san.reports" || (alloc && allocator_key k)))
  in
  match fp with
  | Point (p, s) -> Point ({ p with W.Measure.counters = keep p.W.Measure.counters }, s)
  | Served r -> Served { r with Service.Slo.counters = keep r.Service.Slo.counters }
  | Unsafe _ -> fp

let brief = function
  | Point (p, _) ->
      Printf.sprintf "ops=%d steps=%d makespan=%d" p.W.Measure.ops
        p.W.Measure.steps p.W.Measure.makespan
  | Served r ->
      Printf.sprintf "completed=%d shed=%d makespan=%d" r.Service.Slo.completed
        r.Service.Slo.shed r.Service.Slo.makespan
  | Unsafe msg -> msg

let differs cell mode ~plain got =
  let key (k, _) = List.assoc_opt k (counters plain) <> List.assoc_opt k (counters got) in
  fail cell mode
    (match List.find_opt key (counters plain @ counters got) with
    | Some (k, _) when brief plain = brief got ->
        Printf.sprintf "counter %s: plain %d, this mode %d" k (counter plain k)
          (counter got k)
    | _ -> Printf.sprintf "plain %s; this mode %s" (brief plain) (brief got))

(* {1 The property} *)

(* The Figure 6 schemes whose load/store op body compiles. *)
let compiled_schemes =
  List.filter_map
    (fun (name, (module R : Rc_baselines.Rc_intf.S)) ->
      let t = R.create (Memory.create Config.small) ~procs:1 in
      if Option.is_some (R.vm_ops t) then Some name else None)
    W.Fig6.schemes

let compiled c = loadstore c && List.mem c.scheme compiled_schemes

(* One 6a cell per scheme, two compiled load/store cells of the 6b–6d
   shapes (6b's store share, 6c's location count), then one cell of
   each other kind. Policies and windows rotate over the cells from a
   random offset, so every draw covers all three policies and both
   windows. *)
let cells_gen =
  let schemes6 = List.map fst W.Fig6.schemes and shape6a = (8, 0.3) in
  let n = List.length schemes6 + 5 in
  QCheck.Gen.(
    let* base_seed = int_range 0 1_000_000 in
    let* procs = array_size (return n) (int_range 1 8) in
    let* shift = int_bound 5 in
    let* shapes =
      list_repeat 2
        (triple (oneofl compiled_schemes) (oneofl [ 10; 100; 1000 ])
           (oneofl [ 0.1; 0.5 ]))
    in
    let* s7 = oneofl W.Fig7.scheme_names in
    let+ s_serve = oneofl Service.Kv.schemes in
    List.mapi
      (fun i (kind, scheme, (n_locs, p_store)) ->
        let p = procs.(i) in
        {
          kind;
          scheme;
          seed = base_seed + (7919 * i);
          (* Figure R's victim is pid 1; serving cells run 1-4 workers. *)
          procs =
            (match kind with Robust -> 2 + (p mod 7) | Serve -> 1 + (p mod 4) | _ -> p);
          (* The serving benchmark always schedules [Fair]. *)
          policy = (if kind = Serve then 0 else (i + shift) mod 3);
          lookahead = (if (i + (shift / 3)) mod 2 = 0 then 0 else 64);
          n_locs;
          p_store;
        })
      (List.map (fun s -> (Fig6a, s, shape6a)) schemes6
      @ List.map (fun (s, locs, stores) -> (Fig6bd, s, (locs, stores))) shapes
      (* DEBRA+'s pinned stall fires at every seed, P and policy, and its
         victim is neutralized mid-operation. *)
      @ List.map
          (fun (kind, s) -> (kind, s, shape6a))
          [ (Fig7a, s7); (Robust, "DEBRA+"); (Serve, s_serve) ]))

let is_drc s = String.starts_with ~prefix:"DRC" s

(* Plain's run of a cell must be non-trivial before anything is
   compared against it. *)
let check_plain cell fp =
  (match fp with
  | Point ({ W.Measure.ops = 0; _ }, _) | Served { Service.Slo.completed = 0; _ } | Unsafe _ ->
      fail cell plain.name "no operation completed"
  | _ -> ());
  if cell.kind = Robust && counter fp "adv.stalls" = 0 then
    fail cell plain.name "the stall never fired";
  if
    loadstore cell && is_drc cell.scheme
    && not
         (List.mem_assoc "drc.deferred_decs/peak" (counters fp)
         && List.mem_assoc "ar.delayed/peak" (counters fp)
         && counter fp "mem.alloc.fresh" > 0)
  then fail cell plain.name "the DRC probes were not exercised"

(* Does [o] show that every knob [m] arms reached the cell? Plain runs
   the legacy allocator, so the pooled one shows in the allocator's
   probes; the sanitizer shows in leak attribution, the profiler in
   stacks, and fastpath off, VM off and the race checker in the host
   words the run allocates. *)
let took_effect m ~base o =
  let c = m.arm Config.default in
  (m.fastpath || o.words > base.words)
  && (c.Config.vm || o.words <> base.words)
  && (c.alloc = Config.Legacy || counters o.fp <> counters base.fp)
  && (Sanitizer.is_off c.sanitize || o.leaks)
  && (Racecheck.is_off c.race || o.words <> base.words)
  && ((not m.profile) || o.stacks <> [])

(* The guard sweep these schemes share can miss a protection taken after
   it, and a cell of theirs sometimes frees a block a reader still
   holds: the run then faults, or the race checker reports it (an open
   ROADMAP item). Such an outcome must still be the same under every
   mode; from any other scheme it fails the property. *)
let known_unsafe cell =
  loadstore cell && List.mem cell.scheme [ "Herlihy"; "Herlihy (opt)"; "OrcGC" ]

(* Run [cell] plain and under each of [modes]; record in [evidence] each
   mode that took effect. The pooled allocator recycles other addresses
   than the legacy one, and a program can see that: a CAS whose expected
   pointer was freed and reallocated (ABA) succeeds under one reuse
   order and fails under the other. Under [Fair] that does not happen
   in these cells; under [Uniform] and [Chaos], whose stalls are longer,
   it does (with address reuse off the two agree), so the pooled
   allocator is compared on [Fair] cells. For the same reason a cell
   whose plain run faults must fault the same way under every mode but
   the pooled allocator: which block a stale access lands on, and so
   whether it faults, depends on reuse order. *)
let check_cell evidence modes cell =
  let modes =
    if compiled cell then modes
    else List.filter (fun m -> (m.arm Config.default).Config.vm) modes
  in
  let base = observe cell plain in
  let unsafe = match base.fp with Unsafe _ -> true | _ -> false in
  if unsafe && not (known_unsafe cell) then fail cell plain.name (brief base.fp);
  if unsafe then Printf.printf "cell %s: %s\n" (cell_name cell) (brief base.fp)
  else check_plain cell base.fp;
  let fair = snd policies.(cell.policy) = Sim.Fair in
  let outcome m =
    let o = observe cell m in
    let alloc = (m.arm Config.default).alloc = Config.Pooled in
    if
      ((not alloc) || (fair && not unsafe))
      && comparable ~alloc o.fp <> comparable ~alloc base.fp
    then differs cell m.name ~plain:base.fp o.fp;
    if o.races <> [] && not (known_unsafe cell) then
      fail cell m.name ("races reported:\n" ^ String.concat "\n" o.races);
    if not unsafe then begin
      if o.san <> [] then
        fail cell m.name ("sanitizer reports:\n" ^ String.concat "\n" o.san);
      if m.profile && o.stacks = [] then fail cell m.name "no collapsed stacks";
      if
        m.profile && loadstore cell && is_drc cell.scheme
        && not
             (List.exists
                (fun (path, _) -> String.ends_with ~suffix:"drc-defer" path)
                o.stacks)
      then fail cell m.name "no drc-defer frames";
      if took_effect m ~base o then Hashtbl.replace evidence m.name ()
    end;
    (m.name, o)
  in
  let outcomes = List.map outcome modes in
  (* The instruments report the same things on either engine. *)
  (match (List.assoc_opt all_three outcomes, List.assoc_opt all_three_vm_off outcomes) with
  | Some on, Some off ->
      let across what a b =
        if a <> b then fail cell (all_three ^ ", vm on vs off") (what ^ " differ")
      in
      across "sanitizer reports" on.san off.san;
      across "race reports" on.races off.races;
      across "collapsed stacks" on.stacks off.stacks
  | _ -> ());
  base.fp

(* Every plain cell at once on two domains. With more than one cell,
   the first job waits until a job has started on another domain, so
   both domains run cells. Returns the fingerprints and how many
   domains ran cells. *)
let run_on_pool cells =
  let lock = Mutex.create () and ran = ref [] in
  let job (i, cell) =
    let me = (Domain.self () :> int) (* lint: allow-atomic *) in
    Mutex.protect lock (fun () -> ran := me :: !ran);
    let alone () = Mutex.protect lock (fun () -> List.for_all (( = ) me) !ran) in
    let deadline = Sys.time () +. 10.0 in
    while i = 0 && List.length cells > 1 && alone () && Sys.time () < deadline do
      Domain.cpu_relax () (* lint: allow-atomic *)
    done;
    let fp, _, _ = fingerprint cell plain in
    fp
  in
  let fps =
    Domain_pool.with_pool ~jobs:2 (fun pool ->
        Domain_pool.map_ordered pool job (List.mapi (fun i c -> (i, c)) cells))
  in
  (fps, List.length (List.sort_uniq Int.compare !ran))

(* Check [cells] under [modes], and on the pool when [pool]; returns
   the modes that showed they took effect. *)
let check ~modes ~pool cells =
  let evidence = Hashtbl.create 16 in
  let plain_fps = List.map (check_cell evidence modes) cells in
  if pool then begin
    let pooled, domains = run_on_pool cells in
    List.iter2
      (fun (cell, a) b -> if a <> b then differs cell pool_mode ~plain:a b)
      (List.combine cells plain_fps)
      pooled;
    if domains >= 2 then Hashtbl.replace evidence pool_mode ()
  end;
  evidence

let prop cells =
  let evidence = check ~modes ~pool:true cells in
  List.iter
    (fun name ->
      if not (Hashtbl.mem evidence name) then
        QCheck.Test.fail_reportf "mode %s: no cell showed that it took effect" name)
    (pool_mode :: List.map (fun m -> m.name) modes);
  true

let suite =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:3
         ~name:"every mode gives plain's fingerprint (all kinds, schemes, policies)"
         (QCheck.make cells_gen
            ~print:(fun cs -> String.concat "\n" (List.map cell_name cs)))
         prop);
  ]

(* A fixed slice of the property, for the suites of the layers it
   covers: the cells of [kinds] from one draw seeded by [name], under
   the named modes ([pool_mode] included). Deterministic, so each such
   case re-checks the same cells on every run. *)
let case name kinds mode_names =
  let rand = Random.State.make [| Hashtbl.hash name |] in
  let draw = QCheck.Gen.generate1 ~rand cells_gen in
  let cells = List.filter (fun c -> List.mem c.kind kinds) draw in
  let modes = List.filter (fun m -> List.mem m.name mode_names) modes in
  Alcotest.test_case name `Quick (fun () ->
      try ignore (check ~modes ~pool:(List.mem pool_mode mode_names) cells)
      with QCheck.Test.Test_fail (_, msgs) -> Alcotest.fail (String.concat "\n" msgs))

(* The cases that name one layer's share of the invariant, listed in
   that layer's suite. *)
let slices suite =
  List.filter_map
    (fun (s, name, kinds, modes) ->
      if s = suite then Some (case name kinds modes) else None)
    [
      ("fastpath", "fig6a point identical", [ Fig6a ], [ "fastpath off" ]);
      ("fastpath", "fig7 point identical", [ Fig7a ], [ "fastpath off" ]);
      ( "fastpath", "faulted point identical (fastpath off)", [ Robust ],
        [ "fastpath off" ] );
      ( "fastpath", "telemetry identical on/off (3 policies)", [ Fig6a ],
        [ "fastpath off" ] );
      ( "vm", "oracle identity (schemes x policies)", [ Fig6a ],
        [ "vm off"; all_three; all_three_vm_off ] );
      ("vm", "vm x fastpath cross product", [ Fig6a ], [ "fastpath off"; "vm off" ]);
      ( "profiler", "profiled = unprofiled (policies x fastpath x vm)", [ Fig6a ],
        [ "profile"; all_three_vm_off ] );
      ( "profiler", "collapsed stacks: vm on = off (every scheme)", [ Fig6a ],
        [ all_three; all_three_vm_off ] );
      ("racecheck", "race bit-identity", [ Fig6a ], [ "race" ]);
      ("racecheck", "engine verdict identity", [ Fig6a ], [ all_three; all_three_vm_off ]);
      ("sanitizer", "sanitize bit-identity", [ Fig6a ], [ "sanitize" ]);
      ("alloc", "fig6 point bit-identity", [ Fig6a ], [ "alloc legacy"; "alloc pooled" ]);
      ("domain-pool", "sweep bit-identical at jobs=1 vs jobs=4", [ Fig6a ], [ pool_mode ]);
      ("service", "cell fastpath identity", [ Serve ], [ "fastpath off" ]);
      ("service", "pool identity", [ Serve ], [ pool_mode ]);
      ("service", "sanitized cell clean", [ Serve ], [ "sanitize" ]);
    ]
