module M = Simcore.Memory
module Pool = Simcore.Domain_pool
module Rng = Simcore.Rng
module Smr_intf = Smr.Smr_intf

type structure = List_set | Hash_set | Bst_set

let scheme_names =
  [ "EBR"; "HP"; "HPopt"; "IBR"; "HE"; "No MM"; "DRC"; "DRC (+snap)" ]

(* All structure/scheme instantiations. HP and HPopt share a module and
   differ only in how often the announcement array is scanned (§7.2). *)
module L_ebr = Cds.List_smr.Make (Smr.Ebr)
module L_hp = Cds.List_smr.Make (Smr.Hp)
module L_ibr = Cds.List_smr.Make (Smr.Ibr)
module L_he = Cds.List_smr.Make (Smr.He)
module L_nomm = Cds.List_smr.Make (Smr.Nomm)
module H_ebr = Cds.Hash_smr.Make (Smr.Ebr)
module H_hp = Cds.Hash_smr.Make (Smr.Hp)
module H_ibr = Cds.Hash_smr.Make (Smr.Ibr)
module H_he = Cds.Hash_smr.Make (Smr.He)
module H_nomm = Cds.Hash_smr.Make (Smr.Nomm)
module B_ebr = Cds.Bst_smr.Make (Smr.Ebr)
module B_hp = Cds.Bst_smr.Make (Smr.Hp)
module B_ibr = Cds.Bst_smr.Make (Smr.Ibr)
module B_he = Cds.Bst_smr.Make (Smr.He)
module B_nomm = Cds.Bst_smr.Make (Smr.Nomm)

let epoch_params _procs = { Smr_intf.slots = 5; batch = 32; era_freq = 24 }

(* Fixed scan thresholds, as in the IBR suite's configuration: HP scans
   every 32 retires; HPopt trades a little memory for 4x fewer scans. *)
let hp_params _procs = { Smr_intf.slots = 5; batch = 32; era_freq = 1 }

let hpopt_params _procs = { Smr_intf.slots = 5; batch = 128; era_freq = 1 }

(* A running structure instance, prefilled, with per-process entry
   points. *)
type instance = {
  i_insert : int -> int -> bool;
  i_delete : int -> int -> bool;
  i_contains : int -> int -> bool;
  i_extra : unit -> int;
  i_flush : unit -> unit;
}

let prefill ~seed ~size insert =
  let keys = Array.init (2 * size) (fun i -> i) in
  Rng.shuffle (Rng.create ~seed:(seed + 7)) keys;
  for i = 0 to size - 1 do
    ignore (insert keys.(i))
  done

let wrap (type t) (module S : Cds.Set_intf.OPS with type t = t) (t : t) ~procs
    ~seed ~size =
  let setup = S.handle t (-1) in
  prefill ~seed ~size (S.insert setup);
  let handles = Array.init procs (S.handle t) in
  {
    i_insert = (fun pid k -> S.insert handles.(pid) k);
    i_delete = (fun pid k -> S.delete handles.(pid) k);
    i_contains = (fun pid k -> S.contains handles.(pid) k);
    i_extra = (fun () -> S.extra_nodes t);
    i_flush = (fun () -> S.flush t);
  }

let factory structure scheme mem ~procs ~seed ~size =
  let p_ep = epoch_params procs
  and p_hp = hp_params procs
  and p_hpo = hpopt_params procs in
  match (structure, scheme) with
  | List_set, "EBR" ->
      wrap (module L_ebr) (L_ebr.create mem ~procs ~params:p_ep) ~procs ~seed ~size
  | List_set, "HP" ->
      wrap (module L_hp) (L_hp.create mem ~procs ~params:p_hp) ~procs ~seed ~size
  | List_set, "HPopt" ->
      wrap (module L_hp) (L_hp.create mem ~procs ~params:p_hpo) ~procs ~seed ~size
  | List_set, "IBR" ->
      wrap (module L_ibr) (L_ibr.create mem ~procs ~params:p_ep) ~procs ~seed ~size
  | List_set, "HE" ->
      wrap (module L_he) (L_he.create mem ~procs ~params:p_ep) ~procs ~seed ~size
  | List_set, "No MM" ->
      wrap (module L_nomm) (L_nomm.create mem ~procs ~params:p_ep) ~procs ~seed ~size
  | List_set, "DRC" ->
      wrap
        (module Cds.List_rc.Plain)
        (Cds.List_rc.Plain.create mem ~procs)
        ~procs ~seed ~size
  | List_set, "DRC (+snap)" ->
      wrap
        (module Cds.List_rc.With_snapshots)
        (Cds.List_rc.With_snapshots.create mem ~procs)
        ~procs ~seed ~size
  | Hash_set, "EBR" ->
      wrap (module H_ebr)
        (H_ebr.create mem ~procs ~params:p_ep ~buckets:size)
        ~procs ~seed ~size
  | Hash_set, "HP" ->
      wrap (module H_hp)
        (H_hp.create mem ~procs ~params:p_hp ~buckets:size)
        ~procs ~seed ~size
  | Hash_set, "HPopt" ->
      wrap (module H_hp)
        (H_hp.create mem ~procs ~params:p_hpo ~buckets:size)
        ~procs ~seed ~size
  | Hash_set, "IBR" ->
      wrap (module H_ibr)
        (H_ibr.create mem ~procs ~params:p_ep ~buckets:size)
        ~procs ~seed ~size
  | Hash_set, "HE" ->
      wrap (module H_he)
        (H_he.create mem ~procs ~params:p_ep ~buckets:size)
        ~procs ~seed ~size
  | Hash_set, "No MM" ->
      wrap (module H_nomm)
        (H_nomm.create mem ~procs ~params:p_ep ~buckets:size)
        ~procs ~seed ~size
  | Hash_set, "DRC" ->
      wrap
        (module Cds.Hash_rc.Plain)
        (Cds.Hash_rc.Plain.create mem ~procs ~buckets:size)
        ~procs ~seed ~size
  | Hash_set, "DRC (+snap)" ->
      wrap
        (module Cds.Hash_rc.With_snapshots)
        (Cds.Hash_rc.With_snapshots.create mem ~procs ~buckets:size)
        ~procs ~seed ~size
  | Bst_set, "EBR" ->
      wrap (module B_ebr) (B_ebr.create mem ~procs ~params:p_ep) ~procs ~seed ~size
  | Bst_set, "HP" ->
      wrap (module B_hp) (B_hp.create mem ~procs ~params:p_hp) ~procs ~seed ~size
  | Bst_set, "HPopt" ->
      wrap (module B_hp) (B_hp.create mem ~procs ~params:p_hpo) ~procs ~seed ~size
  | Bst_set, "IBR" ->
      wrap (module B_ibr) (B_ibr.create mem ~procs ~params:p_ep) ~procs ~seed ~size
  | Bst_set, "HE" ->
      wrap (module B_he) (B_he.create mem ~procs ~params:p_ep) ~procs ~seed ~size
  | Bst_set, "No MM" ->
      wrap (module B_nomm) (B_nomm.create mem ~procs ~params:p_ep) ~procs ~seed ~size
  | Bst_set, "DRC" ->
      wrap
        (module Cds.Bst_rc.Plain)
        (Cds.Bst_rc.Plain.create mem ~procs)
        ~procs ~seed ~size
  | Bst_set, "DRC (+snap)" ->
      wrap
        (module Cds.Bst_rc.With_snapshots)
        (Cds.Bst_rc.With_snapshots.create mem ~procs)
        ~procs ~seed ~size
  | _, other -> invalid_arg ("Fig7.factory: unknown scheme " ^ other)

let point ?policy ?fastpath ?tracer ?(config = Simcore.Config.default)
    ?(profile = false) ~structure ~scheme ~threads ~horizon ~seed ~size
    ~update_pct () =
  let profiler = Fig6.cell_profiler ~profile scheme in
  let mem = M.create config in
  let inst = factory structure scheme mem ~procs:threads ~seed ~size in
  let key_range = 2 * size in
  let half = update_pct in
  (* update_pct is a percentage; draw in [0, 200) so that half the update
     budget goes to inserts and half to deletes. *)
  let op pid rng =
    let k = Rng.int rng key_range in
    let r = Rng.int rng 200 in
    if r < half then ignore (inst.i_insert pid k)
    else if r < 2 * half then ignore (inst.i_delete pid k)
    else ignore (inst.i_contains pid k)
  in
  let pt =
    (* Structure ops are deep closures: the closure driver runs them. *)
    Measure.run_point ?policy ?fastpath ?tracer ?profiler
      ~telemetry:(M.telemetry mem) ~config ~seed ~threads ~horizon ~op
      ~sample:inst.i_extra ()
  in
  Fig6.assert_conservation scheme profiler;
  inst.i_flush ();
  pt

let run ?(arm = Measure.unarmed) ?(threads = Measure.default_threads)
    ?(horizon = 150_000) ?(seed = 42) ~structure ~size ~update_pct ~title () =
  let results =
    Pool.map_grid arm.Measure.pool ~rows:threads ~cols:scheme_names
      ~label:(fun th scheme -> Printf.sprintf "%s [%s, P=%d]" title scheme th)
      (fun th scheme ->
        point ?tracer:arm.tracer ~config:arm.config ~profile:arm.profile
          ~structure ~scheme ~threads:th ~horizon ~seed ~size ~update_pct ())
  in
  Tables.print_series ~title ~unit_label:"throughput: operations per megatick"
    ~columns:scheme_names
    ~rows:
      (List.map
         (fun (th, ps) -> (th, List.map (fun p -> p.Measure.throughput) ps))
         results)
    ();
  Tables.print_series
    ~title:(title ^ " — memory")
    ~unit_label:"extra nodes (removed, not yet reclaimed; sampled average)"
    ~columns:scheme_names
    ~rows:
      (List.map
         (fun (th, ps) -> (th, List.map (fun p -> p.Measure.mem_metric) ps))
         results)
    ()
