module M = Simcore.Memory
module Smr_intf = Smr.Smr_intf

type structure = List_set | Hash_set | Bst_set

let structures = [ List_set; Hash_set; Bst_set ]

type instance = {
  insert : int -> int -> bool;
  delete : int -> int -> bool;
  contains : int -> int -> bool;
  to_list : unit -> int list;
  extra_nodes : unit -> int;
  flush : unit -> unit;
}

(* Handles are plain lookups (no allocation, no simulated access), so
   all of them, the setup handle at index 0 included, are taken up
   front. *)
let wrap (type a) (module S : Set_intf.OPS with type t = a) (t : a) ~procs =
  let handles = Array.init (procs + 1) (fun i -> S.handle t (i - 1)) in
  {
    insert = (fun pid k -> S.insert handles.(pid + 1) k);
    delete = (fun pid k -> S.delete handles.(pid + 1) k);
    contains = (fun pid k -> S.contains handles.(pid + 1) k);
    to_list = (fun () -> S.to_list t);
    extra_nodes = (fun () -> S.extra_nodes t);
    flush = (fun () -> S.flush t);
  }

type make = structure -> M.t -> procs:int -> buckets:int -> instance

(* The three structures over one manual scheme. *)
module Over (R : Smr_intf.S) = struct
  module L = List_smr.Make (R)
  module H = Hash_smr.Make (R)
  module B = Bst_smr.Make (R)

  let make ~params structure mem ~procs ~buckets =
    match structure with
    | List_set -> wrap (module L) (L.create mem ~procs ~params) ~procs
    | Hash_set -> wrap (module H) (H.create mem ~procs ~params ~buckets) ~procs
    | Bst_set -> wrap (module B) (B.create mem ~procs ~params) ~procs
end

module Ebr = Over (Smr.Ebr)
module Hp = Over (Smr.Hp)
module Ibr = Over (Smr.Ibr)
module He = Over (Smr.He)
module Nomm = Over (Smr.Nomm)
module Debra = Over (Smr.Debra)
module Debra_plus = Over (Smr.Debra.Plus)

(* The three structures over one flavour of the paper's library. *)
let rc (module L : List_rc.S) (module H : Hash_rc.S) (module B : Bst_rc.S) :
    make =
 fun structure mem ~procs ~buckets ->
  match structure with
  | List_set -> wrap (module L) (L.create mem ~procs) ~procs
  | Hash_set -> wrap (module H) (H.create mem ~procs ~buckets) ~procs
  | Bst_set -> wrap (module B) (B.create mem ~procs) ~procs

let default_batch = 32

(* Fixed scan thresholds, as in the IBR suite's configuration. Epoch
   and era schemes advance the global era every 24 events; HP scans
   every [batch] retires, and HPopt (the same module) trades a little
   memory for fewer scans with a fixed batch of 128 (§7.2). *)
let epoch ~batch = { Smr_intf.slots = 5; batch; era_freq = 24 }

let hp ~batch = { Smr_intf.slots = 5; batch; era_freq = 1 }

let catalogue ~batch : (string * make) list =
  [
    ("EBR", Ebr.make ~params:(epoch ~batch));
    ("HP", Hp.make ~params:(hp ~batch));
    ("HPopt", Hp.make ~params:(hp ~batch:128));
    ("IBR", Ibr.make ~params:(epoch ~batch));
    ("HE", He.make ~params:(epoch ~batch));
    ("No MM", Nomm.make ~params:(epoch ~batch));
    ("DEBRA", Debra.make ~params:(epoch ~batch));
    ("DEBRA+", Debra_plus.make ~params:(epoch ~batch));
    ( "DRC",
      rc (module List_rc.Plain) (module Hash_rc.Plain) (module Bst_rc.Plain) );
    ( "DRC (+snap)",
      rc
        (module List_rc.With_snapshots)
        (module Hash_rc.With_snapshots)
        (module Bst_rc.With_snapshots) );
  ]

let schemes = List.map fst (catalogue ~batch:default_batch)

let create_batched ~batch structure scheme mem ~procs ~buckets =
  match List.assoc_opt scheme (catalogue ~batch) with
  | Some make -> make structure mem ~procs ~buckets
  | None -> invalid_arg ("Set_catalogue.create: unknown scheme " ^ scheme)

let create structure scheme mem ~procs ~buckets =
  create_batched ~batch:default_batch structure scheme mem ~procs ~buckets
